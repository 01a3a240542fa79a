// Deterministic discrete-event simulation engine.
//
// The whole reproduction executes in virtual time on this engine: transfers
// occupy link channels, kernels occupy per-device streams, and the runtime
// reacts to completion events.  Determinism is guaranteed by ordering events
// by (time, insertion sequence); two runs with the same inputs produce the
// same schedule, which the test suite relies on.
//
// Storage and ordering live in sim/event_queue.hpp: events are arena-
// allocated nodes dispatched from a two-tier calendar queue (or, for
// differential testing, a binary heap with the identical dispatch order).
// Callbacks are `sim::Callback` (SmallFn): move-only with a large inline
// buffer, so the hot schedule/dispatch loop performs no heap allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/small_fn.hpp"
#include "util/annotations.hpp"

namespace xkb::sim {

using Callback = SmallFn;

class Engine {
 public:
  using QueueImpl = EventQueue::Impl;

  Engine() : Engine(default_queue_impl()) {}
  explicit Engine(QueueImpl impl) : queue_(impl) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() { clear_events(); }

  /// Queue implementation used by engines default-constructed afterwards
  /// (the calendar queue unless set); the differential determinism tests
  /// flip it per run.
  static QueueImpl default_queue_impl();
  static void set_default_queue_impl(QueueImpl impl);

  QueueImpl queue_impl() const { return queue_.impl(); }

  Time now() const { return now_; }

  /// Schedule `cb` to run at absolute virtual time `t`.
  ///
  /// Contract: `t` must be >= now().  Scheduling into the past is a caller
  /// bug -- it would break the monotonicity every resource relies on -- and
  /// is diagnosed by an assert in debug builds; release builds clamp the
  /// event to now() (it runs next, after already-queued same-time events).
  template <class F>
  XKB_HOT void schedule_at(Time t, F&& cb) {
    assert(t >= now_ && "cannot schedule into the past");
    if (t < now_) t = now_;  // release builds: clamp (see contract above)
    ++observable_pending_;
    queue_.push(
        arena_.create(t, seq_++, /*observable=*/true, std::forward<F>(cb)));
  }

  /// Schedule `cb` to run `dt` seconds from now.
  template <class F>
  XKB_HOT void schedule_after(Time dt, F&& cb) {
    schedule_at(now_ + dt, std::forward<F>(cb));
  }

  /// Schedule a *silent* event: it executes like any other (ordered by
  /// (time, global sequence)) but is invisible to the observer, does not
  /// advance last_observable_time(), and does not consume an observable
  /// ordinal.  Used by xkb::fault for fault-plan triggers and watchdog
  /// ticks, so that a fault that ends up affecting nothing leaves the
  /// observable event stream -- and therefore the xkb::check event-stream
  /// hash -- bit-identical to a fault-free run.
  template <class F>
  XKB_HOT void schedule_silent_at(Time t, F&& cb) {
    assert(t >= now_ && "cannot schedule into the past");
    if (t < now_) t = now_;
    queue_.push(
        arena_.create(t, seq_++, /*observable=*/false, std::forward<F>(cb)));
  }
  template <class F>
  XKB_HOT void schedule_silent_after(Time dt, F&& cb) {
    schedule_silent_at(now_ + dt, std::forward<F>(cb));
  }

  /// Run events until the queue drains.  Returns the final virtual time,
  /// which is the last *observable* instant: if the queue drained on a
  /// trailing silent event (watchdog tick, fault trigger past the last
  /// completion), the clock rewinds to the observable frontier so silent
  /// machinery cannot delay work submitted for a subsequent phase.
  Time run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// An event exactly at `deadline` runs.  Shares run()'s drain contract:
  /// if the queue drained (even on a trailing silent event), the clock
  /// rests at the observable frontier, not at the silent tail or the
  /// deadline.
  Time run_until(Time deadline);

  std::uint64_t events_processed() const { return processed_; }

  /// Count and timestamp of observable (non-silent) events only.  The
  /// timestamp is the makespan as the workload experienced it: silent
  /// bookkeeping (a watchdog tick beyond the last completion, a fault
  /// trigger on an idle link) never inflates it.
  std::uint64_t observable_processed() const { return observable_processed_; }
  Time last_observable_time() const { return last_observable_time_; }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Observable events currently queued.  This is the "is progress still
  /// scheduled?" signal: as long as at least one observable event is
  /// pending, the simulation is legitimately *waiting* (a future arrival,
  /// a kernel completion, a retry timer), not stuck.  The watchdog uses it
  /// to distinguish "no runnable work right now" from "work outstanding
  /// with nothing left that could ever complete it".
  std::size_t observable_pending() const { return observable_pending_; }

  /// High-water mark of simultaneously pending events over the engine's
  /// lifetime (not reset by reset()): the resident queue depth this
  /// run actually exercised.
  std::size_t peak_pending() const { return arena_.peak_live(); }

  /// Reset the clock and drop all pending events (for back-to-back runs).
  /// Pending callbacks (and whatever they capture) are destroyed.  O(n).
  void reset();

  /// Observer invoked for every *observable* event, just before its
  /// callback runs, with the event's (time, observable ordinal).  The
  /// ordinal counts observable events only -- silent events still occupy a
  /// slot in the global tie-break sequence, but the observer never sees a
  /// gap, so the xkb::check event-stream hash is unperturbed by silent
  /// machinery.  At most one observer, empty to detach.
  using Observer = std::function<void(Time, std::uint64_t)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

 private:
  void dispatch(EventNode* n);
  void clear_events();

  EventArena arena_;
  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t observable_seq_ = 0;
  std::uint64_t observable_processed_ = 0;
  std::size_t observable_pending_ = 0;
  Time last_observable_time_ = 0.0;
  Observer observer_;
};

}  // namespace xkb::sim
