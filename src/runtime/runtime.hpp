// The XKaapi-like data-flow runtime: dependency tracking, per-device task
// queues with a bounded prefetch window, work stealing, and completion-driven
// execution on the simulated platform.
//
// Life of a task:
//   submit() derives dependencies from access modes (readers after the last
//   writer, writers after all readers) -> when the last dependency completes
//   the scheduler places the task on a device -> the device pulls it into its
//   prepare window and the DataManager fetches operands (this is where the
//   paper's heuristics act) -> when all operands are valid the kernel is
//   submitted to the device's kernel FIFO -> completion propagates to
//   successors.  Devices that run out of assigned work steal from the most
//   loaded peer (OwnerComputesScheduler only).
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "mem/registry.hpp"
#include "runtime/data_manager.hpp"
#include "runtime/platform.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "sim/watchdog.hpp"

namespace xkb::obs {
class Series;
}

namespace xkb::rt {

struct RuntimeOptions {
  HeuristicConfig heuristics;
  /// Max tasks per device concurrently fetching operands.  Bounds prefetch
  /// depth (and hence transient memory) like the real runtime's pending
  /// window.
  int prepare_window = 6;
  /// A victim must have at least this many queued tasks to be stolen from.
  int steal_min_victim = 2;
  /// Locality-aware stealing (an XKaapi option): only steal a task if some
  /// of its operands are already valid on the thief, scanning the victim's
  /// queue from the back.  Reduces transfer traffic at the price of less
  /// aggressive balancing.
  bool locality_stealing = false;
  /// Drop read-only replicas once their consumer finishes (models streaming
  /// libraries like cuBLAS-XT that do not cache inputs across tile products).
  bool drop_inputs_after_use = false;
  /// Per-task CPU-side runtime overhead, added to every kernel occupancy
  /// (task creation + scheduling cost; the paper credits XKBlas's small
  /// runtime for its reactivity on small matrices).
  double task_overhead = 0.0;
  /// Opt-in validation layer (race detection, coherence invariants,
  /// progress audit, event-stream hash).  Off by default: when disabled the
  /// run pays one null-pointer test per observation point.
  check::CheckConfig check;

  /// Reject nonsensical configurations with an actionable message instead
  /// of a hang or a silent misbehaviour deep in the run.  Called by the
  /// Runtime constructor; throws std::invalid_argument.
  void validate() const;
};

class Runtime {
 public:
  Runtime(Platform& plat, std::unique_ptr<Scheduler> sched,
          RuntimeOptions opt = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  mem::Registry& registry() { return registry_; }
  DataManager& data_manager() { return dm_; }
  Platform& platform() { return *plat_; }
  Scheduler& scheduler() { return *sched_; }

  /// Submit a task; dependencies are derived from its accesses.
  void submit(TaskDesc desc);

  /// Make the host copy of `h` valid once all producing tasks completed
  /// (the paper's xkblas_memory_coherent_async).  `on_complete` (optional)
  /// is invoked when the flush task finishes -- the service layer uses it
  /// to count a job's coherence tasks like any other task.
  void coherent_async(mem::DataHandle* h, std::function<void()> on_complete = {});

  /// Drain the simulation; returns the virtual completion time (the instant
  /// of the last *observable* event, so silent fault-plan or watchdog ticks
  /// never stretch the measured makespan).  When a checker is attached this
  /// also runs its end-of-run audit (reception ledger, completion check,
  /// final protocol scan).
  ///
  /// Exactly drain() followed by finalize_checks() -- the one-workload,
  /// one-exit entry point.  Long-running callers (xkb::svc) use the two
  /// halves directly: drain() may be re-entered after a caught FaultError
  /// to keep serving the surviving jobs, and finalize_checks() runs once,
  /// at end of service, only when no jobs were abandoned mid-flight.
  double run();

  /// First half of run(): drain the engine's event queue and return the
  /// last observable instant.  No end-of-run audit, no completion assert --
  /// callable again after a FaultError unwound the dispatch loop.
  double drain();

  /// Second half of run(): the checker's end-of-run audit when one is
  /// attached, otherwise the completed == submitted sanity assert.  Call
  /// once, when every submitted task is expected to have finished.
  void finalize_checks();

  /// The validation layer, or nullptr when RuntimeOptions::check.enabled
  /// was false.  Inspect checker()->ok() / report() / event_hash() after
  /// run().
  const check::Checker* checker() const { return checker_.get(); }

  // --- introspection for schedulers, tests and benches ---
  int num_gpus() const { return plat_->num_gpus(); }
  std::size_t queue_length(int dev) const { return devs_[dev].assigned.size(); }
  std::size_t tasks_submitted() const { return submitted_; }
  std::size_t tasks_completed() const { return completed_; }
  std::size_t steals() const { return steals_; }
  /// Not-yet-finished tasks migrated off a failed device.
  std::size_t task_remaps() const { return remaps_; }
  /// Producer tasks resubmitted to rebuild lost dirty tiles.
  std::size_t task_replays() const { return replays_; }

  /// Device-failure recovery entry point (bound to the fault injector's
  /// device_fail hook; exposed for tests): blacklist `g` in the platform,
  /// recover its replicas through the DataManager (promote survivors,
  /// replay producers), migrate its queued and in-flight tasks to live
  /// devices, and refill the prepare windows.
  void on_device_failure(int g);

 private:
  struct DevState {
    std::deque<Task*> assigned;
    int preparing = 0;
    bool in_queued = false;       ///< membership in Runtime::queued_
    bool steal_eligible = false;  ///< counted in Runtime::steal_eligible_
  };
  struct HandleSeq {
    Task* last_writer = nullptr;
    std::vector<Task*> readers;
    /// The completed task whose write produced the handle's current
    /// version -- the one a replay must re-execute (last_writer may be a
    /// later, not-yet-run writer).
    Task* version_writer = nullptr;
  };

  void on_ready(Task* t);
  void fill(int dev);
  void fill_all();
  /// Re-sync queued_ / steal_eligible_ after any mutation of
  /// devs_[g].assigned.  Every push/pop site calls this so fill_all can walk
  /// only devices that can actually start work (O(active), not O(devices)).
  void queue_changed(int g);
  Task* steal_for(int thief);
  void start_prepare(Task* t, int dev);
  void on_operands_ready(Task* t);
  void on_kernel_done(Task* t);
  void complete(Task* t);
  void run_host_task(Task* t);

  /// Validate that `h`'s lost current version can be rebuilt by re-running
  /// its producer; on success queue the resubmission (flushed after the
  /// DataManager's recovery scan finishes, so every needs-replay handle is
  /// registered before any replay fetches operands).  On failure `reason`
  /// explains why (kRW pre-image destroyed, inputs overwritten, ...).
  bool replay_producer(mem::DataHandle* h, std::string& reason);
  /// Submit a replayed producer, bypassing writer-after-reader edges on its
  /// output: pending readers are data-parked on the regenerated version,
  /// not ordered before it (ordering them first would deadlock).
  Task* submit_replay(TaskDesc desc, mem::DataHandle* out);
  /// What both submit paths share: create the task record, then (enqueue)
  /// wire it after its deduplicated `preds`, report the submission to the
  /// checker, and make it ready when nothing blocks it.
  Task* new_task(TaskDesc desc);
  void enqueue(Task* t, std::vector<Task*> preds);
  int pick_alive_device(Task* t);
  [[noreturn]] void on_stuck(std::uint64_t pending);

  Platform* plat_;
  std::unique_ptr<Scheduler> sched_;
  RuntimeOptions opt_;
  std::unique_ptr<check::Checker> checker_;  // before dm_: observes its events
  mem::Registry registry_;
  DataManager dm_;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::unordered_map<mem::DataHandle*, HandleSeq> seq_;
  std::vector<DevState> devs_;
  /// Devices with a non-empty assigned queue (ascending, mirrors DevState).
  std::set<int> queued_;
  /// Devices holding >= steal_min_victim queued tasks -- when zero, no
  /// steal_for scan can find a victim and fill_all skips idle devices.
  int steal_eligible_ = 0;
  /// Cached "ready.gpu<g>" series when an Observability layer was attached
  /// to the platform before construction; empty otherwise.
  std::vector<obs::Series*> ready_series_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t steals_ = 0;
  std::size_t remaps_ = 0;
  std::size_t replays_ = 0;
  std::uint64_t next_id_ = 1;

  /// Armed only when a fault injector is attached: silent ticks that turn a
  /// drained-queue-with-outstanding-work bug into a StuckProgress throw.
  std::unique_ptr<sim::Watchdog> watchdog_;
  /// Producer resubmissions validated during a device-failure scan, flushed
  /// once the DataManager's recovery pass returns.
  std::vector<std::pair<TaskDesc, mem::DataHandle*>> pending_replays_;
};

}  // namespace xkb::rt
