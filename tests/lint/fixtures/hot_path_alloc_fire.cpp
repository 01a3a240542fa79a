// xkb-tidy fixture: xkb-hot-path-alloc MUST fire on this file.
//
// Allocation inside a function annotated XKB_HOT: the engine hot loop
// (dispatch, queue push/pop, arena create/destroy, cache touch) budgets
// zero allocator traffic, so non-placement new, the malloc family, the
// make_* factories, and std::function construction are all violations
// there.  Clean twin: hot_path_alloc_clean.cpp.
#include <cstdlib>
#include <functional>
#include <memory>

#define XKB_HOT

namespace fixture {

struct Event {
  double t;
  int payload;
};

// Non-placement new on the hot path.
XKB_HOT inline Event* make_event(double t) { return new Event{t, 0}; }

// malloc on the hot path.
XKB_HOT inline void* grab(std::size_t n) { return std::malloc(n); }

// Allocating smart-pointer factory on the hot path.
XKB_HOT inline std::shared_ptr<Event> share(double t) {
  return std::make_shared<Event>(Event{t, 0});
}

// std::function construction on the hot path: closures beyond two words
// heap-allocate behind the small-object optimisation.
XKB_HOT inline void bind_callback(double a, double b, double c) {
  std::function<void()> cb = [a, b, c] { (void)(a + b + c); };
  cb();
}

}  // namespace fixture
