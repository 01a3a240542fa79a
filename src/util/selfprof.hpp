// Host-side self-profiler: where is the *simulator itself* spending wall
// time?  The virtual clock answers nothing about that -- a run that models
// 2 seconds of GPU work may burn 20 host-seconds in queue maintenance --
// so this module hangs scoped wall-clock timers and a handful of
// allocation/queue-depth counters on the XKB_HOT paths (engine dispatch,
// calendar-queue adopt/rebuild, cache touch/reserve, DataManager fetch).
//
// Discipline: the profiler lives *strictly outside the virtual-time lane*.
// Readings never feed an event time, a scheduling decision, the trace, or
// the check hash -- with the profiler active, every pinned event-stream
// hash stays bit-identical (test_determinism pins this).  The wall-clock
// reads below are therefore sanctioned exceptions to xkb-wallclock-in-sim,
// each carrying its justification inline.
//
// Cost model: detached (the default) every instrumentation point is one
// load-and-branch on a global pointer.  Attached, ultra-hot sites (cache
// touch, bucket adopt) only *count* every call and time a 1-in-2^k sample
// of them; rare sites (queue rebuild) and long scopes (the engine run
// loop) time every call.  The measured attach cost is held under the same
// 1.3x budget as the obs layer (check_matrix libs selfprof).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/annotations.hpp"

namespace xkb::prof {

/// Instrumented host-side phases, one slot each.
enum class Phase : int {
  kEngineRun = 0,   ///< Engine::run dispatch loop (whole-loop scope)
  kQueueAdopt,      ///< calendar-queue bucket adoption (sampled 1/64)
  kQueueRebuild,    ///< calendar-queue window rebuild over overflow
  kCacheTouch,      ///< DeviceCache LRU touch (sampled 1/64)
  kCacheReserve,    ///< DeviceCache reserve incl. eviction walk (1/16)
  kDmFetch,         ///< DataManager fetch planning (sampled 1/16)
  kCount
};

/// Monotonic counters without a time dimension.
enum class Counter : int {
  kEngineEvents = 0,  ///< events dispatched inside timed run scopes
  kArenaSlabs,        ///< event-arena slab allocations (hot-path allocs)
  kPeakPending,       ///< high-water pending-event count (max, not sum)
  kCount
};

struct PhaseStats {
  std::uint64_t calls = 0;        ///< every entry into the scope
  std::uint64_t timed_calls = 0;  ///< entries that read the clock
  std::uint64_t total_ns = 0;     ///< wall nanoseconds over timed calls
  std::uint64_t max_ns = 0;       ///< slowest timed call
};

const char* phase_name(Phase p);
const char* counter_name(Counter c);

/// Per-phase sampling shift: time 1 of every 2^shift calls.  0 = every
/// call.  Shifts keep the attached cost of ~10ns-scale scopes negligible
/// while the call count (exact) still scales the sampled mean.
constexpr std::array<unsigned, static_cast<int>(Phase::kCount)>
    kSampleShift = {0, 6, 0, 6, 4, 4};

class SelfProfiler;

namespace detail {
/// The active profiler, or nullptr (the overwhelmingly common case).  A
/// plain global so the hot-path guard is one relaxed load, mirroring the
/// null-checker contract of xkb::check / xkb::obs.
extern SelfProfiler* g_active;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // NOLINT(xkb-wallclock-in-sim): host-side self-profiler; readings never feed virtual time, scheduling, the trace, or the check hash (test_determinism pins hash invariance with the profiler attached)
              .time_since_epoch())
          .count());
}
}  // namespace detail

/// Aggregated host-side self-times.  Create one, activate() it around the
/// region of interest, then render with table_text()/to_json_fragment().
class SelfProfiler {
 public:
  /// The attached profiler, or nullptr when profiling is off.
  static SelfProfiler* active() { return detail::g_active; }
  /// Attach `p` (detach with nullptr).  Not reference-counted: callers
  /// scope activation around a whole run, never nest.
  static void activate(SelfProfiler* p) { detail::g_active = p; }

  void clear() {
    phases_.fill(PhaseStats{});
    counters_.fill(0);
  }

  PhaseStats& slot(Phase p) { return phases_[static_cast<int>(p)]; }
  const PhaseStats& slot(Phase p) const {
    return phases_[static_cast<int>(p)];
  }
  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<int>(c)];
  }

  XKB_HOT void count(Counter c, std::uint64_t n = 1) {
    counters_[static_cast<int>(c)] += n;
  }
  XKB_HOT void note_max(Counter c, std::uint64_t v) {
    std::uint64_t& slot = counters_[static_cast<int>(c)];
    if (v > slot) slot = v;
  }

  /// Fixed-width per-phase self-time table (calls, timed share, total,
  /// mean, max) followed by the counters.
  std::string table_text() const;
  /// JSON object fragment `{"phases":[...],"counters":{...}}` -- embedded
  /// by perf_bench into BENCH_selfprof.json and by the run ledger.
  std::string to_json_fragment() const;

 private:
  std::array<PhaseStats, static_cast<int>(Phase::kCount)> phases_{};
  std::array<std::uint64_t, static_cast<int>(Counter::kCount)> counters_{};
};

/// RAII scope timer for one Phase.  Construction/destruction cost when no
/// profiler is attached: one global load and branch each.
class ScopedTimer {
 public:
  XKB_HOT explicit ScopedTimer(Phase p) : p_(p) {
    SelfProfiler* sp = detail::g_active;
    if (!sp) return;
    sp_ = sp;
    PhaseStats& st = sp->slot(p);
    ++st.calls;
    const unsigned shift = kSampleShift[static_cast<int>(p)];
    const std::uint64_t mask = (1ull << shift) - 1ull;
    if ((st.calls & mask) == 0) start_ = detail::now_ns();
  }
  XKB_HOT ~ScopedTimer() {
    if (start_ == 0) return;
    const std::uint64_t d = detail::now_ns() - start_;
    PhaseStats& st = sp_->slot(p_);
    ++st.timed_calls;
    st.total_ns += d;
    if (d > st.max_ns) st.max_ns = d;
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Phase p_;
  SelfProfiler* sp_ = nullptr;
  std::uint64_t start_ = 0;
};

/// Counter bump that compiles to a load-test-add; safe on XKB_HOT paths.
XKB_HOT inline void count(Counter c, std::uint64_t n = 1) {
  if (SelfProfiler* sp = detail::g_active) sp->count(c, n);
}
XKB_HOT inline void note_max(Counter c, std::uint64_t v) {
  if (SelfProfiler* sp = detail::g_active) sp->note_max(c, v);
}

}  // namespace xkb::prof
