// xkb-tidy fixture: xkb-hot-path-alloc must stay SILENT here.
//
// The sanctioned patterns: placement new into pre-owned storage (arena
// slots, SmallFn inline buffers) is allocation-free and legal on the hot
// path; ordinary heap allocation is perfectly fine in functions NOT
// annotated XKB_HOT (setup, teardown, reporting); and words that merely
// contain 'new' must not trip the scanner.
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#define XKB_HOT

namespace fixture {

struct Event {
  double t;
  int payload;
};

// Placement new into an arena slot: constructs, never allocates.
XKB_HOT inline Event* emplace_event(void* slot, double t) {
  return ::new (slot) Event{t, 0};
}

// Hot function that only touches pre-sized storage.
XKB_HOT inline void renew_slot(std::vector<Event>& pool, std::size_t i,
                               double t) {
  pool[i].t = t;  // 'renew' contains 'new' -- word boundaries matter
}

// Heap allocation OUTSIDE any hot path is idiomatic: construction-time
// code may allocate freely.
inline std::unique_ptr<Event> make_cold_event(double t) {
  return std::make_unique<Event>(Event{t, 0});
}

inline Event* raw_cold_event(double t) { return new Event{t, 0}; }

}  // namespace fixture
