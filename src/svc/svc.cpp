#include "svc/svc.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/annotations.hpp"

namespace xkb::svc {

namespace {
// Attempt k interns its tiles at kWindowBase + k * kWindowStride, above the
// wl::Bridge default window; a graph fits when each tile gets a slot.
constexpr std::uint64_t kWindowBase = 0x700000000000ull;
constexpr std::uint64_t kWindowStride = 0x100000000ull;  // 4 GiB
constexpr std::size_t kWindowTiles = kWindowStride / wl::Bridge::kTileSlot;
}  // namespace

const char* to_string(Arbitration a) {
  switch (a) {
    case Arbitration::kFairShare: return "fair-share";
    case Arbitration::kStrictPriority: return "strict-priority";
  }
  return "?";
}

Arbitration arbitration_from(const std::string& name) {
  if (name == "fair-share" || name == "fair") return Arbitration::kFairShare;
  if (name == "strict-priority" || name == "priority")
    return Arbitration::kStrictPriority;
  throw std::invalid_argument(
      "unknown arbitration '" + name +
      "' (accepted: fair-share|fair|strict-priority|priority)");
}

const char* to_string(Reject r) {
  switch (r) {
    case Reject::kQueueFull: return "QueueFull";
    case Reject::kQuotaExceeded: return "QuotaExceeded";
    case Reject::kBrownout: return "Brownout";
  }
  return "?";
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kBackoff: return "backoff";
    case JobState::kCompleted: return "completed";
    case JobState::kDeadLetter: return "dead-letter";
  }
  return "?";
}

void ServiceOptions::validate() const {
  if (max_running < 1)
    throw std::invalid_argument("ServiceOptions::max_running must be >= 1");
  if (max_retries < 0)
    throw std::invalid_argument("ServiceOptions::max_retries must be >= 0");
  if (!(backoff_base > 0.0) || !(backoff_cap >= backoff_base))
    throw std::invalid_argument(
        "ServiceOptions backoff: need 0 < backoff_base <= backoff_cap");
  if (!(brownout_high_water > 0.0) || brownout_high_water > 1.0 ||
      !(brownout_low_water >= 0.0) ||
      brownout_low_water >= brownout_high_water)
    throw std::invalid_argument(
        "ServiceOptions brownout: need 0 <= low_water < high_water <= 1");
}

Service::Service(rt::Runtime& runtime, ServiceOptions opt)
    : rt_(runtime),
      opt_(opt),
      watchdog_(
          runtime.platform().engine(), sim::Watchdog::Options{},
          [this] { return in_system_; },
          [this](std::uint64_t pending) {
            std::ostringstream os;
            os << "service stuck: " << pending << " jobs in system ("
               << total_queued_ << " queued, " << running_
               << " running) with no observable progress and nothing "
                  "scheduled";
            throw fault::StuckProgress(os.str());
          }) {
  opt_.validate();
  on_deadline_ = [this](std::uint64_t id, int attempt) {
    deadline_fired(id, attempt);
  };
}

int Service::add_tenant(TenantSpec spec) {
  if (spec.name.empty())
    spec.name = "tenant" + std::to_string(tenants_.size());
  if (!(spec.share > 0.0))
    throw std::invalid_argument("TenantSpec::share must be > 0 for '" +
                                spec.name + "'");
  if (!(spec.deadline >= 0.0))
    throw std::invalid_argument("TenantSpec::deadline must be >= 0 for '" +
                                spec.name + "'");
  Tenant tn;
  tn.spec = std::move(spec);
  tenants_.push_back(std::move(tn));
  return static_cast<int>(tenants_.size()) - 1;
}

int Service::effective_max_running() const {
  // Degradation ladder step 3: concurrency shrinks with the machine.  A
  // blacklisted device reduces the budget proportionally (never below one
  // job), so the service keeps draining at reduced throughput instead of
  // piling the full load onto the survivors.
  const int total = rt_.num_gpus();
  int alive = 0;
  for (int g = 0; g < total; ++g)
    if (!rt_.platform().device_failed(g)) ++alive;
  if (alive <= 0) return 1;  // the runtime itself throws on total loss
  return std::max(1, opt_.max_running * alive / total);
}

double Service::min_service_time(const wl::WorkloadGraph& g) const {
  // Every task must run somewhere, so no attempt can finish faster than
  // its slowest single kernel: a cheap, deterministic lower bound that
  // lets admission dead-letter unservable deadlines up front instead of
  // burning retries on a job that can never make it.
  const rt::PerfModel& perf = rt_.platform().perf();
  double lb = 0.0;
  for (const wl::TaskSpec& t : g.tasks)
    lb = std::max(lb, perf.kernel_time(t.flops, t.min_dim, t.eff_factor,
                                       /*single_precision=*/false));
  return lb;
}

Service::Job& Service::make_job(int tenant, JobSpec spec, double deadline_rel,
                                double min_service) {
  auto up = std::make_unique<Job>();
  Job& job = *up;
  job.id = jobs_.size();
  job.tenant = tenant;
  job.arrival = engine().now();
  job.deadline_rel = deadline_rel;
  job.min_service = min_service;
  job.spec = std::move(spec);
  jobs_.push_back(std::move(up));
  return job;
}

SubmitResult Service::submit(int tenant, JobSpec spec) {
  if (tenant < 0 || tenant >= num_tenants())
    throw ServiceError("submit: unknown tenant id " + std::to_string(tenant));
  if (!spec.graph) throw ServiceError("submit: job without a graph");
  Tenant& tn = tenants_[tenant];
  ++stats_.submitted;
  ++tn.stats.submitted;
  const double deadline_rel =
      spec.deadline >= 0.0 ? spec.deadline : tn.spec.deadline;
  const double min_service = min_service_time(*spec.graph);
  if (spec.name.empty())
    spec.name = tn.spec.name + "-j" + std::to_string(tn.stats.submitted);

  SubmitResult res;
  // Unservable on arrival: no attempt can launch (the tiles overflow the
  // attempt's address window) or every attempt would expire (the budget
  // is below the graph's single-task lower bound).  Straight to the
  // dead-letter record -- no queue slot, no retries.
  std::string unservable;
  const std::size_t tiles = spec.graph->tiles.size();
  if (tiles > kWindowTiles) {
    unservable = std::to_string(tiles) + " tiles exceed the " +
                 std::to_string(kWindowTiles) +
                 "-tile address window of an attempt";
  } else if (deadline_rel > 0.0 && deadline_rel < min_service) {
    std::ostringstream os;
    os << "deadline " << deadline_rel << "s below minimum service time "
       << min_service << "s";
    unservable = os.str();
  }
  if (!unservable.empty()) {
    Job& job = make_job(tenant, std::move(spec), deadline_rel, min_service);
    res.job = job.id;
    job.attempts = 0;  // never attempted
    ++in_system_;  // record_terminal releases it
    ++tn.in_system;
    dead_letter(job, unservable);
    res.dead_letter = true;
    return res;
  }
  if (!admit(tenant, /*retry=*/false, &res.reason)) return res;
  Job& job = make_job(tenant, std::move(spec), deadline_rel, min_service);
  res.job = job.id;
  res.admitted = true;
  ++stats_.admitted;
  ++tn.stats.admitted;
  ++in_system_;
  ++tn.in_system;
  enqueue(job);
  watchdog_.ensure_armed();
  pump();
  return res;
}

// Admission state machine, shared by arrivals and retries.  Order:
// brownout gate, then quota, then queue capacity.  Retries keep the
// in-system quota they already hold, so only the first two gates apply a
// second time plus queue capacity.
bool Service::admit(int tenant, bool retry, Reject* why) {
  Tenant& tn = tenants_[tenant];
  if (brownout_ && tn.spec.priority < opt_.brownout_priority_floor) {
    ++stats_.rejected_brownout;
    ++tn.stats.rejected_brownout;
    *why = Reject::kBrownout;
    return false;
  }
  if (!retry && tn.in_system >= tn.spec.max_in_system) {
    ++stats_.rejected_quota;
    ++tn.stats.rejected_quota;
    *why = Reject::kQuotaExceeded;
    return false;
  }
  // A free run slot implies every queue is empty (pump() is called after
  // each state change), so the arrival will launch immediately and no
  // queue capacity applies -- this is what makes a zero-capacity queue
  // mean "admit only straight into a slot".
  const bool free_slot =
      running_ < static_cast<std::size_t>(effective_max_running());
  if (!free_slot) {
    if (tn.queue.size() >= tn.spec.queue_cap ||
        total_queued_ >= opt_.global_queue_cap) {
      ++stats_.rejected_queue_full;
      ++tn.stats.rejected_queue_full;
      *why = Reject::kQueueFull;
      return false;
    }
  }
  return true;
}

void Service::enqueue(Job& job) {
  job.state = JobState::kQueued;
  tenants_[job.tenant].queue.push_back(job.id);
  ++total_queued_;
  peak_queued_ = std::max(peak_queued_, total_queued_);
  update_brownout();
  arm_deadline(job);
}

// Pick the next tenant to serve among those with queued work; -1 if none.
// Fair-share: least weighted service consumed so far; strict priority:
// highest priority.  Both tie-break on the lowest queued job id -- the
// stable order the determinism gate relies on.
int Service::pick_tenant() const {
  int best = -1;
  for (int t = 0; t < num_tenants(); ++t) {
    const Tenant& tn = tenants_[t];
    if (tn.queue.empty()) continue;
    if (best < 0) {
      best = t;
      continue;
    }
    const Tenant& bt = tenants_[best];
    if (opt_.arbitration == Arbitration::kStrictPriority) {
      if (tn.spec.priority > bt.spec.priority ||
          (tn.spec.priority == bt.spec.priority &&
           tn.queue.front() < bt.queue.front()))
        best = t;
    } else {
      if (tn.consumed < bt.consumed ||
          (tn.consumed == bt.consumed &&
           tn.queue.front() < bt.queue.front()))
        best = t;
    }
  }
  return best;
}

void Service::pump() {
  while (running_ < static_cast<std::size_t>(effective_max_running())) {
    const int t = pick_tenant();
    if (t < 0) break;
    Tenant& tn = tenants_[t];
    const std::uint64_t id = tn.queue.front();
    tn.queue.pop_front();
    --total_queued_;
    launch(*jobs_[id]);
  }
  update_brownout();
}

void Service::launch(Job& job) {
  Tenant& tn = tenants_[job.tenant];
  const wl::WorkloadGraph& g = *job.spec.graph;
  job.state = JobState::kRunning;
  if (job.started < 0) job.started = engine().now();
  ++running_;
  // Fair-share accounting at launch: weighted service the tenant has
  // consumed.  Charged up front (not on completion) so the policy reacts
  // before a burst from one tenant monopolises every slot.
  tn.consumed += g.total_flops() / tn.spec.share;

  wl::BridgeOptions bopt;
  bopt.base_address = kWindowBase + launches_ * kWindowStride;
  ++launches_;
  // Owner-computes home placement, spread over the devices alive *now*;
  // jobs launched after a device failure never pick the corpse as home.
  std::vector<int> alive;
  for (int d = 0; d < rt_.num_gpus(); ++d)
    if (!rt_.platform().device_failed(d)) alive.push_back(d);
  bopt.home = [alive](std::size_t i, std::size_t) {
    return alive[i % alive.size()];
  };
  bopt.task_done = [this, id = job.id, attempt = job.attempts] {
    on_task_done(id, attempt);
  };
  job.bridge = std::make_unique<wl::Bridge>(rt_, g, std::move(bopt));
  job.tasks_done = 0;
  job.emitting = true;
  job.bridge->emit();
  job.bridge->coherent();
  job.emitting = false;
  job.tasks_total = job.bridge->tasks_submitted();
  if (job.tasks_done >= job.tasks_total) finish(job);
}

void Service::arm_deadline(Job& job) {
  if (job.deadline_rel <= 0.0) return;
  job.deadline_at = engine().now() + job.deadline_rel;
  engine().schedule_silent_at(
      job.deadline_at,
      [this, id = job.id, attempt = job.attempts] {
        deadline_shim(id, attempt);
      });
}

// Silent-lane entry: Injector-style indirection through a std::function
// member, so this body provably touches no observable state itself.  A
// deadline that fires on a finished or superseded attempt is a no-op --
// the event stream stays bit-identical to a run without deadlines.
XKB_SILENT void Service::deadline_shim(std::uint64_t id, int attempt) {
  on_deadline_(id, attempt);
}

void Service::deadline_fired(std::uint64_t id, int attempt) {
  Job& job = *jobs_[id];
  if (attempt != job.attempts) return;  // superseded by a retry
  switch (job.state) {
    case JobState::kQueued: {
      // Timed out waiting for a slot: pull it out of the queue and send
      // the attempt through the retry ladder.
      Tenant& tn = tenants_[job.tenant];
      auto it = std::find(tn.queue.begin(), tn.queue.end(), id);
      assert(it != tn.queue.end());
      tn.queue.erase(it);
      --total_queued_;
      update_brownout();
      ++stats_.expired;
      ++tn.stats.expired;
      fail_attempt(job, "expired in queue");
      break;
    }
    case JobState::kRunning:
      // The runtime cannot preempt a bridged attempt (degradation-ladder
      // choice, DESIGN.md): let it finish and count the miss.
      job.deadline_missed = true;
      break;
    case JobState::kBackoff:
    case JobState::kCompleted:
    case JobState::kDeadLetter:
      break;  // no-op: nothing to expire
  }
}

void Service::on_task_done(std::uint64_t id, int attempt) {
  Job& job = *jobs_[id];
  if (attempt != job.attempts || job.state != JobState::kRunning)
    return;  // a task of an aborted attempt straggling home
  ++job.tasks_done;
  if (!job.emitting && job.tasks_done >= job.tasks_total) finish(job);
}

void Service::finish(Job& job) {
  Tenant& tn = tenants_[job.tenant];
  job.state = JobState::kCompleted;
  --running_;
  if (job.deadline_rel > 0.0 && engine().now() > job.deadline_at)
    job.deadline_missed = true;
  if (job.deadline_missed) {
    ++stats_.deadline_miss;
    ++tn.stats.deadline_miss;
  }
  ++stats_.completed;
  ++tn.stats.completed;
  job.bridge.reset();
  record_terminal(job, "");
  pump();
}

// Attempt `job.attempts` failed (queue expiry or a runtime fault).  Either
// schedule the next attempt after capped exponential backoff, or give up
// into a dead-letter record.
void Service::fail_attempt(Job& job, const std::string& reason) {
  if (job.attempts > opt_.max_retries) {
    dead_letter(job, reason + " (attempt " + std::to_string(job.attempts) +
                         " of " + std::to_string(opt_.max_retries + 1) + ")");
    return;
  }
  Tenant& tn = tenants_[job.tenant];
  ++stats_.retries;
  ++tn.stats.retries;
  ++job.attempts;
  job.state = JobState::kBackoff;
  double d = opt_.backoff_base;
  for (int i = 2; i < job.attempts && d < opt_.backoff_cap; ++i) d *= 2.0;
  d = std::min(d, opt_.backoff_cap);
  // Retry timers are *observable*: a retry that fires re-enters admission
  // and can launch work, so it is part of the workload's own stream (and
  // keeps the engine alive across an otherwise idle gap).
  engine().schedule_after(d, [this, id = job.id] { retry_fired(id); });
}

void Service::retry_fired(std::uint64_t id) {
  Job& job = *jobs_[id];
  if (job.state != JobState::kBackoff) return;
  Reject why = Reject::kQueueFull;
  if (!admit(job.tenant, /*retry=*/true, &why)) {
    fail_attempt(job,
                 std::string("re-admission rejected: ") + to_string(why));
    return;
  }
  enqueue(job);
  watchdog_.ensure_armed();
  pump();
}

void Service::dead_letter(Job& job, const std::string& reason) {
  Tenant& tn = tenants_[job.tenant];
  job.state = JobState::kDeadLetter;
  job.bridge.reset();
  ++stats_.dead_letters;
  ++tn.stats.dead_letters;
  record_terminal(job, reason);
}

void Service::record_terminal(Job& job, const std::string& reason) {
  assert(in_system_ > 0);
  --in_system_;
  assert(tenants_[job.tenant].in_system > 0);
  --tenants_[job.tenant].in_system;
  JobRecord r;
  r.id = job.id;
  r.tenant = job.tenant;
  r.name = job.spec.name;
  r.state = job.state;
  r.arrival = job.arrival;
  r.started = job.started;
  r.finished = engine().now();
  r.attempts = job.attempts;
  r.deadline_missed = job.deadline_missed;
  r.reason = reason;
  records_.push_back(std::move(r));
  job.spec.graph.reset();  // jobs_ keeps only the terminal skeleton
}

void Service::update_brownout() {
  const double fill =
      opt_.global_queue_cap == 0
          ? (total_queued_ > 0 ? 1.0 : 0.0)
          : static_cast<double>(total_queued_) /
                static_cast<double>(opt_.global_queue_cap);
  if (!brownout_ && fill >= opt_.brownout_high_water) {
    brownout_ = true;
    ++stats_.brownout_enters;
  } else if (brownout_ && fill <= opt_.brownout_low_water) {
    brownout_ = false;
    ++stats_.brownout_exits;
  }
}

// A FaultError unwound the dispatch loop: every in-flight attempt is
// poisoned (its tasks may never complete).  Fail them into the retry
// ladder -- a retried attempt gets a fresh bridge in a fresh window, so
// stragglers from the old attempt are ignored by the epoch guard in
// on_task_done.
void Service::abort_running(const std::string& reason) {
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (job.state != JobState::kRunning) continue;
    ++stats_.aborted_attempts;
    --running_;
    job.bridge.reset();
    fail_attempt(job, "runtime fault: " + reason);
  }
  pump();
}

double Service::drain() {
  double t = 0.0;
  for (;;) {
    try {
      t = rt_.drain();
    } catch (const fault::FaultError& e) {
      ++stats_.runtime_faults;
      fault_notes_.push_back(e.what());
      abort_running(e.what());
      continue;  // degradation ladder step 4: keep serving the survivors
    }
    break;  // engine fully drained
  }
  // The audit expects every submitted task to have completed; after an
  // aborted attempt that is exactly what we cannot promise, so the
  // stats_.aborted_attempts counter gates it (surfaced in reports).
  if (stats_.aborted_attempts == 0) rt_.finalize_checks();
  return t;
}

}  // namespace xkb::svc
