#include "sim/engine.hpp"

namespace xkb::sim {

namespace {

Engine::QueueImpl& default_impl_slot() {
  static Engine::QueueImpl impl = Engine::QueueImpl::kCalendar;
  return impl;
}

}  // namespace

Engine::QueueImpl Engine::default_queue_impl() { return default_impl_slot(); }

void Engine::set_default_queue_impl(QueueImpl impl) {
  default_impl_slot() = impl;
}

XKB_HOT void Engine::dispatch(EventNode* n) {
  now_ = n->t;
  ++processed_;
  if (n->observable) {
    assert(observable_pending_ > 0);
    --observable_pending_;
    ++observable_processed_;
    last_observable_time_ = n->t;
    if (observer_) observer_(n->t, observable_seq_);
    ++observable_seq_;
  }
  // Invoke in place: the node is already out of the queue, so a callback
  // that schedules new work (arena slabs are stable, this slot is still
  // live) or resets the engine (drain_all only sees queued nodes) cannot
  // invalidate it.  The guard returns the node to the arena after the call
  // -- including on throw (fault paths propagate FaultError through run()),
  // so the callback's captures are always destroyed exactly once.
  struct NodeGuard {
    EventArena* arena;
    EventNode* n;
    ~NodeGuard() { arena->destroy(n); }
  } guard{&arena_, n};
  n->cb();
}

XKB_HOT Time Engine::run() {
  {
    // Self-profiler scope over the whole dispatch loop: one clock-read
    // pair per run() call, with the exact event count alongside, rather
    // than per-event timers that would distort the 100ns-scale dispatch.
    prof::ScopedTimer pt(prof::Phase::kEngineRun);
    const std::uint64_t before = processed_;
    while (EventNode* n = queue_.pop()) dispatch(n);
    prof::count(prof::Counter::kEngineEvents, processed_ - before);
    prof::note_max(prof::Counter::kPeakPending, arena_.peak_live());
  }
  // The queue may have drained on a *silent* event (a watchdog tick or
  // fault-plan trigger beyond the last completion).  Rewind to the
  // observable frontier so that silent machinery leaves no trace once the
  // queue is empty: work submitted for a subsequent phase resumes from the
  // instant the previous phase observably ended, keeping multi-phase runs
  // bit-identical to runs without any silent events.
  now_ = last_observable_time_;
  return now_;
}

XKB_HOT Time Engine::run_until(Time deadline) {
  {
    prof::ScopedTimer pt(prof::Phase::kEngineRun);
    const std::uint64_t before = processed_;
    while (EventNode* n = queue_.peek()) {
      if (n->t > deadline) break;
      dispatch(queue_.pop());
    }
    prof::count(prof::Counter::kEngineEvents, processed_ - before);
    prof::note_max(prof::Counter::kPeakPending, arena_.peak_live());
  }
  if (queue_.empty()) {
    // Same drain contract as run(): rewind past any trailing silent events
    // so a watchdog tick or fault trigger beyond the last completion never
    // leaks into the clock seen by a later phase.
    now_ = last_observable_time_;
    return now_;
  }
  now_ = deadline > now_ ? deadline : now_;
  return now_;
}

void Engine::reset() {
  clear_events();
  now_ = 0.0;
  seq_ = 0;
  processed_ = 0;
  observable_seq_ = 0;
  observable_processed_ = 0;
  last_observable_time_ = 0.0;
}

void Engine::clear_events() {
  queue_.drain_all([this](EventNode* n) { arena_.destroy(n); });
  observable_pending_ = 0;
}

}  // namespace xkb::sim
