// xkb::svc -- multi-tenant service mode on one shared simulated platform.
//
// One run = one workload = one exit is the batch model every bench driver
// uses; the service layer replaces it with a long-running loop: many
// tenants submit WorkloadGraph jobs over virtual time onto one Runtime,
// and the service survives overload and faults instead of exiting.
//
//   * Admission control: bounded per-tenant and global queues shed load
//     with typed rejections (QueueFull / QuotaExceeded / Brownout) rather
//     than growing unboundedly.
//   * Deadlines: each attempt gets a budget in virtual time, enforced by
//     silent-lane timers (a deadline that fires on an already-finished
//     attempt is a no-op and must not perturb the observable stream --
//     the same invisibility contract as fault triggers and watchdog
//     ticks).  Expired or failed attempts retry with capped exponential
//     backoff; exhaustion produces a dead-letter record.
//   * Arbitration: fair-share (weighted consumed service) or strict
//     priority, pluggable per service; every tie breaks on stable ids.
//   * Graceful degradation: a device failure mid-stream shrinks the
//     concurrency budget proportionally (the runtime itself blacklists
//     the device and re-queues its tasks); queue pressure past a
//     high-water mark enters brownout, shedding low-priority arrivals
//     until pressure recedes; a FaultError that unwinds the dispatch
//     loop fails only the in-flight attempts (retried through the same
//     backoff ladder) and the service keeps draining.
//
// Everything is deterministic: tenants and queues iterate in stable id
// order, timers are ordered by the engine's (time, sequence) pair, and a
// seeded soak reruns bit-identically (event hash + ledger bytes), which
// tools/service_bench gates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "sim/watchdog.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"

namespace xkb::svc {

/// Misconfiguration of the service itself (bad tenant id, invalid
/// options); never raised by load or faults, which are shed or absorbed.
class ServiceError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class Arbitration : std::uint8_t { kFairShare, kStrictPriority };
const char* to_string(Arbitration a);
/// Accepts "fair-share"/"fair" and "strict-priority"/"priority".
Arbitration arbitration_from(const std::string& name);

/// Typed admission rejections, in check order: brownout gates first (the
/// degradation ladder overrides individual budgets), then the tenant's
/// in-system quota, then queue capacity.
enum class Reject : std::uint8_t { kQueueFull, kQuotaExceeded, kBrownout };
const char* to_string(Reject r);

enum class JobState : std::uint8_t {
  kQueued,      ///< admitted, waiting for a run slot
  kRunning,     ///< bridged onto the runtime, tasks in flight
  kBackoff,     ///< attempt failed/expired, waiting for the retry timer
  kCompleted,   ///< terminal: every task of the last attempt finished
  kDeadLetter,  ///< terminal: retries exhausted (or unservable on arrival)
};
const char* to_string(JobState s);

struct TenantSpec {
  std::string name;
  int priority = 0;   ///< strict-priority: higher runs first
  double share = 1.0; ///< fair-share weight (> 0)
  std::size_t queue_cap = 64;  ///< waiting jobs (0 = admit only into a free slot)
  std::size_t max_in_system = std::numeric_limits<std::size_t>::max() / 2;
  double deadline = 0.0;  ///< default per-attempt budget, seconds (0 = none)
};

struct JobSpec {
  std::string name;
  std::shared_ptr<const wl::WorkloadGraph> graph;
  double deadline = -1.0;  ///< per-attempt budget; < 0 = tenant default
};

struct SubmitResult {
  bool admitted = false;
  /// Job id when admitted or dead-lettered; rejected arrivals leave no
  /// job behind (load shedding is cheap by design).
  std::uint64_t job = 0;
  Reject reason = Reject::kQueueFull;  ///< meaningful when !admitted
  bool dead_letter = false;  ///< admitted=false, but recorded (unservable)
};

/// Terminal outcome of one job, appended in completion order (which is
/// itself deterministic).  `reason` is empty for completed jobs.
struct JobRecord {
  std::uint64_t id = 0;
  int tenant = -1;
  std::string name;
  JobState state = JobState::kCompleted;
  double arrival = 0.0;
  double started = -1.0;   ///< first launch instant (-1 = never launched)
  double finished = -1.0;  ///< completion / dead-letter instant
  int attempts = 1;
  bool deadline_missed = false;  ///< finished after the attempt's deadline
  std::string reason;
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_brownout = 0;
  std::uint64_t expired = 0;   ///< attempts that timed out waiting in queue
  std::uint64_t retries = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t deadline_miss = 0;  ///< completed, but past the deadline
};

struct ServiceStats : TenantStats {
  std::uint64_t brownout_enters = 0;
  std::uint64_t brownout_exits = 0;
  std::uint64_t runtime_faults = 0;   ///< FaultErrors absorbed by drain()
  std::uint64_t aborted_attempts = 0; ///< in-flight attempts failed by those
};

struct ServiceOptions {
  Arbitration arbitration = Arbitration::kFairShare;
  /// Jobs concurrently bridged onto the runtime.  Scaled down
  /// proportionally while devices are blacklisted (degradation ladder
  /// step 3), never below 1.
  int max_running = 4;
  std::size_t global_queue_cap = 256;
  /// Attempts beyond the first; attempt max_retries+1 failing dead-letters.
  int max_retries = 3;
  double backoff_base = 250e-6;  ///< attempt k retries after min(base*2^(k-1), cap)
  double backoff_cap = 10e-3;
  /// Brownout hysteresis on global queue fill (queued / global_queue_cap):
  /// enter at >= high water, exit at <= low water.  While in brownout only
  /// tenants with priority >= brownout_priority_floor are admitted.
  double brownout_high_water = 0.75;
  double brownout_low_water = 0.5;
  int brownout_priority_floor = 1;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// The service layer.  Construct over a Runtime (whose platform may carry
/// obs/fault/check layers), add tenants, schedule `submit` calls as
/// observable engine events (tools/service_bench replays an ArrivalTrace
/// that way), then `drain()`.
class Service {
 public:
  Service(rt::Runtime& runtime, ServiceOptions opt = {});
  // Engine callbacks and the watchdog hold `this`.
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Register a tenant; returns its id (dense, in registration order).
  /// Tenants must be registered before the first submit.
  int add_tenant(TenantSpec spec);

  /// Submit a job at the current virtual time.  Runs the admission state
  /// machine; a rejected job is not recorded, an unservable one (more
  /// tiles than an attempt's address window holds, or a deadline below
  /// the graph's critical-task lower bound) dead-letters immediately.
  SubmitResult submit(int tenant, JobSpec spec);

  /// Drain the platform until every admitted job reached a terminal
  /// state.  FaultErrors that unwind the dispatch loop are absorbed:
  /// the in-flight attempts fail into the retry ladder and draining
  /// resumes.  Returns the final virtual time; runs the runtime's
  /// end-of-run audit when no attempt had to be abandoned.
  double drain();

  // --- introspection -----------------------------------------------------
  const ServiceOptions& options() const { return opt_; }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const TenantSpec& tenant(int t) const { return tenants_.at(t).spec; }
  const TenantStats& tenant_stats(int t) const { return tenants_.at(t).stats; }
  const ServiceStats& stats() const { return stats_; }
  const std::vector<JobRecord>& records() const { return records_; }
  const std::vector<std::string>& fault_notes() const { return fault_notes_; }
  bool brownout() const { return brownout_; }
  std::size_t queued() const { return total_queued_; }
  std::size_t peak_queued() const { return peak_queued_; }
  std::size_t running() const { return running_; }
  std::uint64_t in_system() const { return in_system_; }
  int effective_max_running() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    int tenant = -1;
    JobSpec spec;
    JobState state = JobState::kQueued;
    double arrival = 0.0;
    double started = -1.0;
    double deadline_rel = 0.0;  ///< per-attempt budget (0 = none)
    double deadline_at = 0.0;   ///< absolute, for the current attempt
    double min_service = 0.0;   ///< max kernel time over the graph's tasks
    int attempts = 1;
    bool deadline_missed = false;
    std::unique_ptr<wl::Bridge> bridge;  ///< alive while kRunning
    std::size_t tasks_total = 0;
    std::size_t tasks_done = 0;
    bool emitting = false;  ///< tasks may complete synchronously during emit
  };
  struct Tenant {
    TenantSpec spec;
    std::deque<std::uint64_t> queue;  ///< FIFO of queued job ids
    std::uint64_t in_system = 0;      ///< queued + running + backoff
    double consumed = 0.0;  ///< fair-share: launched flops / share
    TenantStats stats;
  };

  sim::Engine& engine() const { return rt_.platform().engine(); }
  double min_service_time(const wl::WorkloadGraph& g) const;
  Job& make_job(int tenant, JobSpec spec, double deadline_rel,
                double min_service);
  bool admit(int tenant, bool retry, Reject* why);
  void enqueue(Job& job);
  void pump();
  int pick_tenant() const;
  void launch(Job& job);
  void arm_deadline(Job& job);
  void deadline_fired(std::uint64_t id, int attempt);
  void deadline_shim(std::uint64_t id, int attempt);  // XKB_SILENT (defn)
  void on_task_done(std::uint64_t id, int attempt);
  void finish(Job& job);
  void fail_attempt(Job& job, const std::string& reason);
  void retry_fired(std::uint64_t id);
  void dead_letter(Job& job, const std::string& reason);
  void record_terminal(Job& job, const std::string& reason);
  void update_brownout();
  void abort_running(const std::string& reason);

  rt::Runtime& rt_;
  ServiceOptions opt_;
  std::vector<Tenant> tenants_;
  std::vector<std::unique_ptr<Job>> jobs_;  ///< indexed by job id
  std::vector<JobRecord> records_;
  std::vector<std::string> fault_notes_;
  ServiceStats stats_;
  std::size_t total_queued_ = 0;
  std::size_t peak_queued_ = 0;
  std::size_t running_ = 0;
  std::uint64_t in_system_ = 0;  ///< queued + running + backoff
  /// Window allocator cursor: each attempt interns its tiles in a private
  /// address window (kWindowBase + k * kWindowStride for the k-th launch,
  /// svc.cpp), so concurrent jobs never alias and xkb::check sees
  /// per-attempt handles.
  std::uint64_t launches_ = 0;
  bool brownout_ = false;
  /// Injector-style indirection: the silent shim calls through this plain
  /// member so the XKB_SILENT body itself provably touches no observable
  /// state; consequences (retry timers, admission changes) surface on the
  /// observable lane they are scheduled onto.
  std::function<void(std::uint64_t, int)> on_deadline_;
  /// Jobs in system as the outstanding signal.  Relies on
  /// Engine::observable_pending() to stay quiet over legitimate idle gaps
  /// between arrivals.
  sim::Watchdog watchdog_;
};

}  // namespace xkb::svc
