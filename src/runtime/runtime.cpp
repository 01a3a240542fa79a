#include "runtime/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"

namespace xkb::rt {

void RuntimeOptions::validate() const {
  if (prepare_window <= 0)
    throw std::invalid_argument(
        "RuntimeOptions::prepare_window must be >= 1 (got " +
        std::to_string(prepare_window) +
        "): a non-positive window never starts preparing any task");
  if (!(task_overhead >= 0.0))
    throw std::invalid_argument(
        "RuntimeOptions::task_overhead must be a non-negative number of"
        " seconds (got " +
        std::to_string(task_overhead) + ")");
}

Runtime::Runtime(Platform& plat, std::unique_ptr<Scheduler> sched,
                 RuntimeOptions opt)
    : plat_(&plat),
      sched_(std::move(sched)),
      opt_(opt),
      registry_(plat.num_gpus()),
      dm_(plat, opt.heuristics),
      devs_(plat.num_gpus()),
      queued_((static_cast<std::size_t>(plat.num_gpus()) + 63) / 64) {
  opt_.validate();  // before any observer is registered on the engine
  if (opt_.check.enabled) {
    checker_ = std::make_unique<check::Checker>(
        opt_.check, plat.num_gpus(), opt_.heuristics.source,
        opt_.heuristics.optimistic_d2d);
    plat_->set_checker(checker_.get());
    plat_->engine().set_observer(
        [c = checker_.get()](sim::Time t, std::uint64_t seq) {
          c->on_engine_event(t, seq);
        });
  }
  if (obs::Observability* o = plat_->obs()) {
    ready_series_.reserve(static_cast<std::size_t>(plat.num_gpus()));
    for (int g = 0; g < plat.num_gpus(); ++g)
      ready_series_.push_back(o->ready_series(g));
  }
  if (fault::Injector* f = plat_->fault()) {
    fault::Injector::Hooks hk;
    hk.device_fail = [this](int g) { on_device_failure(g); };
    f->bind(std::move(hk));
    f->arm(plat_->engine(), plat.num_gpus());
    watchdog_ = std::make_unique<sim::Watchdog>(
        plat_->engine(), sim::Watchdog::Options{},
        [this] { return static_cast<std::uint64_t>(submitted_ - completed_); },
        [this](std::uint64_t pending) { on_stuck(pending); });
  }
}

Runtime::~Runtime() {
  if (checker_) {
    plat_->set_checker(nullptr);
    plat_->engine().set_observer({});
  }
}

Runtime::HandleSeq& Runtime::seq(const mem::DataHandle* h) {
  if (h->id >= seq_.size()) seq_.resize(h->id + 1);
  return seq_[h->id];
}

Task* Runtime::new_task(TaskDesc desc) {
  Task* t = tasks_.emplace(std::move(desc));
  t->id = next_id_++;
  ++submitted_;
  return t;
}

void Runtime::submit(TaskDesc desc) {
  Task* t = new_task(std::move(desc));
  // Derive dependencies from program order of accesses.
  preds_.clear();
  for (const TaskAccess& a : t->desc.accesses) {
    HandleSeq& hs = seq(a.handle);
    if (hs.last_writer && !hs.last_writer->done)
      preds_.push_back(hs.last_writer);
    if (a.mode == Access::kR) {
      edges_.append(hs.readers, t);
    } else {
      for (const util::Link<Task*>* r = hs.readers.head; r; r = r->next)
        if (!r->value->done && r->value != t) preds_.push_back(r->value);
      edges_.release(hs.readers);
      hs.last_writer = t;
    }
  }
  if (checker_) {
    // Test-only fault: lose one dependence edge (the checker's race
    // detector must catch the resulting unordered accesses).
    const check::Faults& f = checker_->faults();
    if (f.skip_edge_succ == t->id)
      std::erase_if(preds_,
                    [&](Task* p) { return p->id == f.skip_edge_pred; });
  }
  enqueue(t);
}

Task* Runtime::submit_replay(TaskDesc desc, mem::DataHandle* out) {
  Task* t = new_task(std::move(desc));
  preds_.clear();
  for (const TaskAccess& a : t->desc.accesses) {
    HandleSeq& hs = seq(a.handle);
    if (a.handle == out && a.mode != Access::kR) {
      // Regenerating the lost version in place: pending readers are parked
      // on the *data* (they re-plan off this write's mark_written), not
      // ordered before it -- writer-after-reader edges here would deadlock,
      // since those readers are waiting for this very write.
      hs.version_writer = nullptr;  // stale until the replay completes
      if (!hs.last_writer || hs.last_writer->done) hs.last_writer = t;
      continue;
    }
    if (hs.last_writer && !hs.last_writer->done)
      preds_.push_back(hs.last_writer);
    edges_.append(hs.readers, t);
  }
  enqueue(t);
  return t;
}

void Runtime::enqueue(Task* t) {
  // Dedup in *id* order, never pointer order: sorting Task pointers would
  // bake heap addresses into the checker's predecessor ids (an
  // xkb-address-ordering violation) and force every downstream consumer to
  // re-sort defensively.
  std::sort(preds_.begin(), preds_.end(),
            [](const Task* a, const Task* b) { return a->id < b->id; });
  preds_.erase(std::unique(preds_.begin(), preds_.end()), preds_.end());
  std::erase(preds_, t);
  for (Task* p : preds_) {
    edges_.append(p->successors, t);
    ++t->pending_deps;
  }
  if (checker_) {
    checker_acc_.clear();
    for (const TaskAccess& a : t->desc.accesses)
      checker_acc_.emplace_back(a.handle, a.mode);
    checker_preds_.clear();
    for (Task* p : preds_) checker_preds_.push_back(p->id);
    checker_->on_submit(t->id, t->desc.label, checker_acc_, checker_preds_);
  }
  if (watchdog_) watchdog_->ensure_armed();
  if (t->pending_deps == 0) on_ready(t);
}

void Runtime::coherent_async(mem::DataHandle* h,
                             std::function<void()> on_complete) {
  TaskDesc d;
  d.label = "coherent";
  d.accesses.push_back({h, Access::kR});
  d.host_task = true;
  d.on_complete = std::move(on_complete);
  submit(std::move(d));
}

void Runtime::on_ready(Task* t) {
  if (t->desc.host_task) {
    run_host_task(t);
    return;
  }
  int dev = t->desc.forced_device;
  if (dev >= 0 && plat_->device_failed(dev)) dev = -1;  // owner died: re-place
  if (dev < 0) dev = sched_->place(*t, *this);
  assert(dev >= 0 && dev < num_gpus() && !plat_->device_failed(dev));
  t->device = dev;
  devs_[dev].assigned.push_back(t);
  queue_changed(dev);
  fill_all();
}

void Runtime::queue_changed(int g) {
  DevState& ds = devs_[g];
  const std::uint64_t bit = std::uint64_t{1} << (g % 64);
  if (ds.assigned.empty())
    queued_[g / 64] &= ~bit;
  else
    queued_[g / 64] |= bit;
  const bool eligible = ds.assigned.size() >= kStealMinVictim;
  if (eligible != ds.steal_eligible) {
    steal_eligible_ += eligible ? 1 : -1;
    ds.steal_eligible = eligible;
  }
}

XKB_HOT void Runtime::fill_all() {
  // A device can start work only if it has queued tasks or can steal some.
  // When no victim is steal-eligible, fill(g) of an unqueued device is a
  // no-op (its own queue is empty and steal_for early-outs), so walking the
  // queued set -- ascending, like the historical 0..n loop visited them --
  // produces the identical effect sequence at O(active) instead of
  // O(devices) per event.  With an eligible victim the full scan runs:
  // any idle device might steal, exactly as before.
  if (sched_->allows_stealing() && steal_eligible_ > 0) {
    for (int g = 0; g < num_gpus(); ++g) fill(g);
  } else {
    // A snapshot per call: fill() mutates queued_, and a zero-operand task
    // can complete synchronously and re-enter fill_all() mid-walk.
    const std::size_t words = queued_.size();
    std::uint64_t stack[kQueuedStackWords];
    std::vector<std::uint64_t> heap;
    std::uint64_t* snap = stack;
    if (words > kQueuedStackWords) {
      heap.resize(words);
      snap = heap.data();
    }
    std::copy(queued_.begin(), queued_.end(), snap);
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t bits = snap[w]; bits != 0; bits &= bits - 1)
        fill(static_cast<int>(w * 64) + std::countr_zero(bits));
  }
  if (!ready_series_.empty()) {
    const sim::Time now = plat_->engine().now();
    for (int g = 0; g < num_gpus(); ++g)
      ready_series_[g]->sample(now,
                               static_cast<double>(devs_[g].assigned.size()));
  }
}

void Runtime::fill(int dev) {
  if (plat_->device_failed(dev)) return;
  DevState& ds = devs_[dev];
  while (ds.preparing < opt_.prepare_window) {
    Task* t = nullptr;
    if (!ds.assigned.empty()) {
      t = ds.assigned.front();
      ds.assigned.pop_front();
      queue_changed(dev);
    } else if (sched_->allows_stealing()) {
      t = steal_for(dev);
    }
    if (!t) break;
    start_prepare(t, dev);
  }
}

Task* Runtime::steal_for(int thief) {
  // No device holds kStealMinVictim queued tasks: the victim scan below
  // cannot find one, so skip its O(devices) walk entirely.  The counter is
  // exact (queue_changed tracks the >= threshold per device), so this
  // early-out never changes which task is stolen.
  if (steal_eligible_ == 0) return nullptr;
  int victim = -1;
  std::size_t most = kStealMinVictim;
  for (int g = 0; g < num_gpus(); ++g) {
    if (g == thief || plat_->device_failed(g)) continue;
    if (devs_[g].assigned.size() >= most) {
      most = devs_[g].assigned.size();
      victim = g;
    }
  }
  if (victim < 0) return nullptr;
  std::deque<Task*>& q = devs_[victim].assigned;
  Task* t = q.back();
  q.pop_back();
  ++steals_;
  queue_changed(victim);
  return t;
}

void Runtime::start_prepare(Task* t, int dev) {
  t->prepared = true;
  t->device = dev;
  devs_[dev].preparing++;
  t->operands_missing = static_cast<int>(t->desc.accesses.size());
  if (t->operands_missing == 0) {
    on_operands_ready(t);
    return;
  }
  for (const TaskAccess& a : t->desc.accesses) {
    // The epoch guard cancels acquisitions of executions that were migrated
    // off a failed device: a stale arrival must not tick the re-execution's
    // operand count.
    auto arrived = [this, t, e = t->epoch] {
      if (t->epoch != e || t->done) return;
      if (--t->operands_missing == 0) on_operands_ready(t);
    };
    XKB_ASSERT_INLINE_CAPTURE(arrived);
    dm_.acquire(a.handle, dev, a.mode, std::move(arrived));
  }
}

void Runtime::on_operands_ready(Task* t) {
  const int dev = t->device;
  devs_[dev].preparing--;
  if (t->desc.flops <= 0.0 && !t->desc.fn) {
    // Pure data-placement task (2D block-cyclic distribution): no kernel.
    on_kernel_done(t);
  } else {
    const double sec = opt_.task_overhead +
                       plat_->perf().kernel_time(
                           t->desc.flops, t->desc.min_dim, t->desc.eff_factor,
                           t->desc.single_precision);
    auto done = [this, t, e = t->epoch] {
      if (t->epoch != e) return;  // migrated
      on_kernel_done(t);
    };
    XKB_ASSERT_INLINE_CAPTURE(done);
    plat_->launch_kernel(dev, sec, t->desc.flops, t->desc.label,
                         std::move(done), t->id);
  }
  fill_all();
}

void Runtime::on_kernel_done(Task* t) {
  const int dev = t->device;
  if (plat_->options().functional && t->desc.fn)
    t->desc.fn(FunctionalCtx(&t->desc.accesses, dev));
  // Race bookkeeping before the protocol transitions: the write's clock is
  // recorded first, then mark_written bumps the shadow versions.
  if (checker_) checker_->on_task_finish(t->id, dev, plat_->engine().now());
  for (const TaskAccess& a : t->desc.accesses)
    if (a.mode != Access::kR) dm_.mark_written(a.handle, dev);
  // Replay bookkeeping: remember what this task produced and what versions
  // it consumed (a replay is only sound while its inputs are unchanged).
  versions_.release(t->access_versions);
  for (const TaskAccess& a : t->desc.accesses)
    versions_.append(t->access_versions, a.handle->version);
  for (const TaskAccess& a : t->desc.accesses)
    if (a.mode != Access::kR) seq(a.handle).version_writer = t;
  for (const TaskAccess& a : t->desc.accesses) dm_.unpin(a.handle, dev);
  if (opt_.drop_inputs_after_use) {
    for (const TaskAccess& a : t->desc.accesses) {
      mem::Replica& r = a.handle->dev[dev];
      if (a.mode == Access::kR && r.pins == 0 && !r.dirty && r.resident &&
          r.state == mem::ReplicaState::kValid) {
        plat_->cache(dev).release(a.handle);
        if (!a.handle->dev_buf.empty()) {
          a.handle->dev_buf[dev].clear();
          a.handle->dev_buf[dev].shrink_to_fit();
        }
      }
    }
  }
  complete(t);
}

void Runtime::run_host_task(Task* t) {
  t->operands_missing = static_cast<int>(t->desc.accesses.size());
  auto finish = [this, t] {
    if (t->desc.host_seconds > 0.0)
      plat_->host_work(t->desc.host_seconds, [this, t] { complete(t); });
    else
      complete(t);
  };
  if (t->operands_missing == 0) {
    finish();
    return;
  }
  for (const TaskAccess& a : t->desc.accesses) {
    if (a.mode == Access::kR) {
      // memory_coherent: pull the authoritative copy back to the host.
      auto flushed = [this, t, finish] {
        if (--t->operands_missing == 0) finish();
      };
      XKB_ASSERT_INLINE_CAPTURE(flushed);
      dm_.flush_to_host(a.handle, std::move(flushed));
    } else {
      // host_overwrite: the CPU produced new data; device replicas die.
      dm_.host_write(a.handle);
      if (--t->operands_missing == 0) finish();
    }
  }
}

XKB_HOT void Runtime::complete(Task* t) {
  assert(!t->done);
  t->done = true;
  ++completed_;
  if (checker_) {
    checker_->on_task_complete(t->id, plat_->engine().now());
    // Test-only fault: swallow the completion event -- successors never
    // become ready and the progress auditor must report them as stuck.
    if (checker_->faults().drop_completion_task == t->id) {
      --completed_;  // the runtime itself never saw the event
      return;
    }
  }
  if (t->desc.on_complete) t->desc.on_complete();
  // No snapshot needed: a done task gains no successors, and its links go
  // back to the pool only after the walk.
  for (const util::Link<Task*>* s = t->successors.head; s; s = s->next)
    if (--s->value->pending_deps == 0) on_ready(s->value);
  edges_.release(t->successors);
  fill_all();
}

void Runtime::on_device_failure(int g) {
  if (plat_->device_failed(g)) return;  // idempotent
  if (plat_->num_alive_gpus() <= 1)
    throw fault::FaultError("device-fail of gpu" + std::to_string(g) +
                            ": no surviving GPU to recover onto");
  plat_->apply_device_failure(g);  // topology blacklist + its report

  // Detach g's queued work before replica recovery: the re-planned fetches
  // and replay submissions below must never land on its queues.
  std::deque<Task*> queued = std::move(devs_[g].assigned);
  devs_[g].assigned.clear();
  queue_changed(g);
  std::vector<Task*> inflight;
  tasks_.for_each([&](Task& t) {
    if (!t.done && t.prepared && !t.desc.host_task && t.device == g)
      inflight.push_back(&t);
  });
  devs_[g].preparing = 0;

  // Replica recovery.  The callback only *validates* producer replays and
  // queues their descriptions; actual submission happens after the scan, so
  // every needs-replay handle is registered before any replay task starts
  // fetching operands (which may themselves be lost tiles that park).
  pending_replays_.clear();
  dm_.on_device_failure(g, registry_.all(),
                        [this](mem::DataHandle* h, std::string& reason) {
                          return replay_producer(h, reason);
                        });
  auto replays = std::move(pending_replays_);
  pending_replays_.clear();
  for (auto& [desc, out] : replays) {
    Task* nt = submit_replay(std::move(desc), out);
    ++replays_;
    plat_->report_replay(*out, nt->id);
  }

  // Migrate in-flight executions: the epoch bump turns their outstanding
  // operand-arrival and kernel-completion callbacks into dead letters, and
  // the task restarts preparation on a live device (at the front of its
  // queue: it already burned window budget once).
  for (Task* t : inflight) {
    t->epoch++;
    t->prepared = false;
    t->operands_missing = 0;
    const int nd = pick_alive_device(t);
    plat_->report_remap(t->id, g, nd);
    ++remaps_;
    t->device = nd;
    devs_[nd].assigned.push_front(t);
    queue_changed(nd);
  }
  // Queued (never-started) tasks just re-place.
  for (Task* t : queued) {
    const int nd = pick_alive_device(t);
    t->device = nd;
    devs_[nd].assigned.push_back(t);
    queue_changed(nd);
  }
  if (watchdog_) watchdog_->ensure_armed();
  fill_all();
}

bool Runtime::replay_producer(mem::DataHandle* h, std::string& reason) {
  Task* p = h->id < seq_.size() ? seq_[h->id].version_writer : nullptr;
  if (!p) {
    reason = "no completed producer is recorded for the current version";
    return false;
  }
  if (!p->done) return true;  // its in-flight re-execution rewrites the tile
  int writes = 0;
  const util::Link<std::uint64_t>* consumed = p->access_versions.head;
  for (const TaskAccess& a : p->desc.accesses) {
    if (a.mode == Access::kRW) {
      reason = "producer '" + p->desc.label + "' (task " +
               std::to_string(p->id) +
               ") updates the tile in place: its pre-image died with the"
               " replica";
      return false;
    }
    if (a.mode == Access::kW) ++writes;
    if (a.mode == Access::kR && consumed &&
        a.handle->version != consumed->value) {
      reason = "input tile " + std::to_string(a.handle->id) +
               " of producer '" + p->desc.label +
               "' was overwritten after it ran (version " +
               std::to_string(a.handle->version) + ", consumed " +
               std::to_string(consumed->value) + ")";
      return false;
    }
    if (consumed) consumed = consumed->next;
  }
  if (writes != 1) {
    reason = "producer '" + p->desc.label + "' writes " +
             std::to_string(writes) +
             " tiles: a multi-output replay would clobber live data";
    return false;
  }
  TaskDesc d = p->desc;
  d.label += "+replay";
  d.forced_device = -1;  // the original owner may be the dead device
  d.on_complete = {};    // bookkeeping already ran on the original completion
  pending_replays_.emplace_back(std::move(d), h);
  return true;
}

int Runtime::pick_alive_device(Task* t) {
  int nd = t->desc.forced_device;
  if (nd < 0 || plat_->device_failed(nd)) nd = sched_->place(*t, *this);
  if (nd < 0 || nd >= num_gpus() || plat_->device_failed(nd)) {
    nd = -1;
    for (int d = 0; d < num_gpus(); ++d)
      if (!plat_->device_failed(d)) {
        nd = d;
        break;
      }
  }
  assert(nd >= 0 && "no alive device to place on");
  return nd;
}

void Runtime::on_stuck(std::uint64_t pending) {
  std::ostringstream os;
  os << "no observable progress while " << pending
     << " tasks are outstanding; first stuck tasks:";
  int shown = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Task* t = &tasks_[i];
    if (t->done) continue;
    if (++shown > 8) {
      os << "\n  ...";
      break;
    }
    os << "\n  task " << t->id << " '" << t->desc.label << "' dev "
       << t->device << " deps=" << t->pending_deps
       << " operands_missing=" << t->operands_missing
       << (t->prepared ? " (preparing)" : "");
  }
  // Compose the flight-recorder dump at the stall site, where the last-N
  // timeline still shows the events leading up to it.  The dump is stashed
  // on the Observability instance; the bench skeleton retrieves it after
  // the throw unwinds Engine::run.
  if (obs::Observability* o = plat_->obs()) {
    o->finalize_registry(plat_->trace());
    obs::LedgerMeta lm = o->ledger_meta();  // registered by the skeleton
    if (lm.lib.empty()) lm.lib = "(stalled)";
    const obs::RunLedger snap = obs::build_ledger(
        plat_->trace(), plat_->topology(), o, 0, std::move(lm));
    o->set_flight_dump(o->flight().dump_json("watchdog-stall: " + os.str(),
                                             obs::ledger_json(snap)));
  }
  throw fault::StuckProgress(os.str());
}

double Runtime::drain() {
  plat_->engine().run();
  // Silent events (fault plans, watchdog ticks) may outlive the workload;
  // the makespan is the instant of the last observable event.
  return plat_->engine().last_observable_time();
}

void Runtime::finalize_checks() {
  if (checker_) {
    const TransferStats& ts = dm_.stats();
    check::StatsView sv;
    sv.h2d = ts.h2d;
    sv.d2d = ts.d2d;
    sv.optimistic_waits = ts.optimistic_waits;
    sv.submitted = submitted_;
    sv.completed = completed_;
    checker_->finalize(sv);
  } else {
    assert(completed_ == submitted_ && "tasks stuck: dependency or data bug");
  }
}

double Runtime::run() {
  const double t = drain();
  finalize_checks();
  return t;
}

}  // namespace xkb::rt
