// xkb::check -- an opt-in validation layer for the simulated runtime.
//
// The checker observes every semantically relevant event of a run (task
// graph construction, kernel issue/finish, replica transitions, transfers,
// evictions, engine events) and verifies three families of properties:
//
//  1. Happens-before race detection: vector clocks are propagated along
//     task-dependence edges, stream/lane FIFO order and transfer
//     completions; two conflicting accesses (R/W or W/W) to the same tile
//     that are not ordered by those edges are reported as a race.  This
//     catches scheduler/dependency bugs that otherwise only show up as a
//     wrong makespan (or wrong bits in functional mode).
//  2. Coherence-protocol invariants of the MSI-like replica state machine:
//     every read observes the latest version, `choose_source` never selects
//     an invalid or stale replica, optimistic forwarding only chains on a
//     genuinely in-flight reception, at most one dirty replica per tile,
//     eviction never drops the last copy of the current version, every
//     issued reception either arrives or is aborted, and
//     `optimistic_waits == 0` under the ablation configurations.
//  3. Progress and determinism: after the engine drains, every submitted
//     task must have completed -- if not, the wait-for graph is dumped and
//     searched for cycles (deadlock) -- and an FNV-1a hash of the full
//     event stream is exposed so two runs of the same configuration can be
//     asserted bit-identical.
//
// State is sized by what a run touches, never by the device count: a tile's
// shadow keeps one record per device that ever received or wrote it
// (created on first touch, ascending by device like mem::ReplicaMap), and
// vector clocks keep only their non-zero lanes.  Each read and write is
// remembered as the FastTrack epoch of its stamp -- (lane, clock) -- which
// decides happens-before exactly (vector_clock.hpp), and a predecessor's
// clock, or the last write's clock a peer copy carries, is joined only when
// its epoch says it adds something.  Clocks are freed once nothing can read
// them: a reception's when it arrives, aborts or is lost; a task's submit
// snapshot when it completes; a task's own clock when it and every
// successor have completed.
//
// Per-task and per-tile records come from checker-owned tables and pools,
// not one heap allocation each: task and tile records sit in tables
// indexed by id, a task's accesses and predecessors in two append-only
// stores, reader records in a link pool, per-device records in pooled
// arrays that double as a tile visits more devices, and freed clocks hand
// their buffers to a pool the next copy takes them from.
//
// The checker depends only on `mem`, `sim` and the shared vocabulary of
// trace/facts.hpp; rt::Platform's fan-out feeds it every fact through the
// hooks below.  It is always compiled and costs one null-pointer test per
// report when disabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/vector_clock.hpp"
#include "mem/handle.hpp"
#include "sim/engine.hpp"
#include "trace/facts.hpp"
#include "util/slab.hpp"

namespace xkb::check {

/// Test-only fault injection, honoured by the runtime only when a checker
/// is attached.  Used by the checker's own mutant tests: a checker that
/// cannot fail its mutants proves nothing.
struct Faults {
  /// Swallow the completion of this task id: successors never run
  /// (simulates a dropped completion event; the progress auditor must
  /// report the stuck tasks).
  std::uint64_t drop_completion_task = 0;
  /// Skip the dependence edge pred -> succ at submit time (simulates a
  /// reordered/lost dependence; the race detector must report the
  /// unordered conflicting accesses).
  std::uint64_t skip_edge_pred = 0;
  std::uint64_t skip_edge_succ = 0;
};

struct CheckConfig {
  bool enabled = false;
  /// Replica-protocol invariants (off only where a test isolates race
  /// reports).  Race detection and the progress audit always run.
  bool coherence = true;
  Faults faults;  ///< test-only
};

enum class ViolationKind : std::uint8_t {
  kRace,
  kCoherence,
  kStats,
  kProgress,
};

const char* to_string(ViolationKind k);

struct Violation {
  ViolationKind kind = ViolationKind::kCoherence;
  std::string message;
};

/// The runtime counters the end-of-run audit checks invariants over
/// (rt::TransferStats plus the task counters).
struct StatsView {
  std::size_t h2d = 0, d2d = 0;  ///< receptions issued
  std::size_t optimistic_waits = 0;
  std::size_t submitted = 0, completed = 0;
};

class Checker {
 public:
  Checker(const CheckConfig& cfg, int num_gpus, trace::SourcePolicy policy,
          bool optimistic_d2d);

  const CheckConfig& config() const { return cfg_; }
  const Faults& faults() const { return cfg_.faults; }

  // --- task-graph / execution events (fed by rt::Runtime; kernel issue
  // reported through rt::Platform) ---
  /// Task ids are unique and submitted in ascending order (the runtime
  /// numbers tasks 1, 2, ... as it submits them); an id may be skipped.
  void on_submit(
      std::uint64_t task, std::string label,
      const std::vector<std::pair<const mem::DataHandle*, trace::Access>>&
          accesses,
      std::span<const std::uint64_t> pred_ids);
  /// Kernel handed to `dev`'s kernel FIFO (FIFO order == issue order).
  /// Performs the read-side race + staleness checks.
  void on_kernel_issue(std::uint64_t task, int dev, sim::Time start,
                       sim::Time end);
  /// Kernel (or kernel-less placement task) finished on `dev`: performs the
  /// write-side race checks and records the write's vector clock.
  void on_task_finish(std::uint64_t task, int dev, sim::Time t);
  /// Task fully completed (successors about to be notified).
  void on_task_complete(std::uint64_t task, sim::Time t);

  // --- replica-protocol events (reported through rt::Platform) ---
  void on_source_choice(const mem::DataHandle* h, int dst,
                        trace::SourceKind kind, int src, bool forced);
  /// A copy of `h` was issued: a reception (kHtoD from the host, kPtoP
  /// from `src`) into `dst`, or a host flush (kDtoH) of `h`'s current
  /// version from `src`.
  void on_transfer_issue(trace::OpKind k, const mem::DataHandle* h, int src,
                         int dst, sim::Time start, sim::Time end);
  /// A replica reception completed on `dev` (kInFlight -> kValid).
  void on_arrival(const mem::DataHandle* h, int dev, sim::Time t);
  void on_mark_written(const mem::DataHandle* h, int dev, sim::Time t);
  void on_host_write(const mem::DataHandle* h);
  void on_host_flush_done(const mem::DataHandle* h, int src, bool stale,
                          std::uint64_t version, sim::Time t);
  /// A resident replica was evicted from `dev` (already released).
  void on_evict(const mem::DataHandle* h, int dev, bool was_dirty);

  // --- fault-recovery events (reported through rt::Platform) ---
  /// An issued transfer aborted before completion (injected failure, or
  /// cancelled because an endpoint died).  `dst` is -1 for D2H flushes.
  /// `attempts`/`cap` drive the bounded-retries invariant (0/0 for aborts
  /// that are not retries of the same reception, e.g. device-loss purges).
  void on_transfer_abort(trace::OpKind k, const mem::DataHandle* h, int src,
                         int dst, std::size_t attempts, std::size_t cap);
  /// GPU `dev` was blacklisted.  From here on, no source choice, D2D issue
  /// or kernel may touch it.
  void on_device_failure(int dev);
  /// The replica of `h` on (failed) `dev` was purged.  If it was the last
  /// holder of the current version, the handle enters the needs-recovery
  /// set: a matching on_replay must follow, or finalize reports the loss.
  void on_replica_lost(const mem::DataHandle* h, int dev, bool was_dirty);
  /// A surviving replica on `dev` was promoted to dirty, replacing a dirty
  /// copy lost to a device failure.  It must hold the current version.
  void on_promote(const mem::DataHandle* h, int dev);
  /// The producer of `h`'s lost dirty replica was resubmitted as `task`.
  void on_replay(const mem::DataHandle* h, std::uint64_t task);
  /// A not-yet-finished task migrated off a failed device; its recorded
  /// (now cancelled) reads are dropped so the re-execution re-orders them.
  void on_task_remap(std::uint64_t task, int from_dev, int to_dev);

  // --- engine events (fed by sim::Engine's observer hook) ---
  void on_engine_event(sim::Time t, std::uint64_t seq);

  /// End-of-run audit: reception ledger and ablation counters, completion/
  /// progress check with wait-for cycle detection, final protocol scan
  /// (dirty uniqueness, pin leaks, data loss).
  void finalize(const StatsView& s);

  bool ok() const { return total_violations_ == 0; }
  std::size_t total_violations() const { return total_violations_; }
  const std::vector<Violation>& violations() const { return violations_; }
  /// FNV-1a 64-bit hash over the observed event stream.
  std::uint64_t event_hash() const { return hash_; }
  /// Human-readable summary of all recorded violations (empty string when
  /// the run is clean).
  std::string report() const;

 private:
  /// Version of a location that holds no copy.
  static constexpr std::uint64_t kNoVersion = ~0ull;
  /// Task and tile records per table block, reader links per pool block
  /// and per-device records per array-pool block.
  static constexpr std::size_t kTaskBlock = 256;
  static constexpr std::size_t kShadowBlock = 256;
  static constexpr std::size_t kReaderBlock = 512;
  static constexpr std::size_t kDevBlock = 256;

  struct Shadow;
  struct AccessRec {
    Shadow* shadow = nullptr;  ///< stable: shadows_ only grows at the back
    trace::Access mode = trace::Access::kR;
  };
  struct TaskInfo {
    std::string label;
    /// The task's accesses and sorted predecessors: `acc_count` records of
    /// acc_ from `acc_begin`, `pred_count` ids of preds_ from `pred_begin`.
    std::size_t acc_begin = 0, pred_begin = 0;
    std::uint32_t acc_count = 0, pred_count = 0;
    /// The task's event clock once stamped.  Only a successor's stamp reads
    /// it after the task completes, and a successor may be stamped again
    /// until it completes itself (a device failure remaps tasks whose
    /// kernels already ran their stamp), so it is freed once the task and
    /// every successor have completed.
    VectorClock vc;
    /// Join of the clocks of every task already completed when this one was
    /// submitted.  Tasks that finished before `t` even existed happen-before
    /// everything `t` does -- the runtime rightly creates no dependence edge
    /// for them (multi-phase runs: distribute, run, then emit compute), so
    /// the edge has to come from the submit point itself.  Snapshotted at
    /// submit, NOT read at stamp time: by stamp time concurrent tasks may
    /// have completed, and joining those would mask real races.  Freed at
    /// completion, after the task's last stamp.
    VectorClock submit_vc;
    Epoch epoch;  ///< stamp lane and clock (clock 0 until stamped)
    std::uint32_t open_succs = 0;  ///< successors not yet completed
    bool submitted = false;  ///< false for an id the run skipped
    bool completed = false;
    bool stamped() const { return epoch.clock != 0; }
  };
  struct ReaderRec {
    std::uint64_t task = 0;
    Epoch epoch;  ///< the read's stamp
  };
  /// One device's view of a tile, created when the device first receives or
  /// writes it.  A device without a record holds no version, has nothing in
  /// flight and carries no happens-before edges.
  struct DevShadow {
    std::uint64_t version = kNoVersion;     ///< version the replica holds
    std::uint64_t in_version = kNoVersion;  ///< version of the in-flight rx
    VectorClock in_vc;       ///< HB carried by the in-flight rx
    VectorClock arrival_vc;  ///< HB carried by every arrival so far
  };
  using DevRec = std::pair<int, DevShadow>;
  /// Shadow replica bookkeeping of one tile.
  struct Shadow {
    const mem::DataHandle* handle = nullptr;  ///< null until first touched
    std::uint64_t version = 0;       ///< writes observed so far
    std::uint64_t host_version = 0;  ///< version the host copy holds
    /// Per-device records, ascending by device (mem::ReplicaMap's idiom), in
    /// an array of 2^dev_class slots from devs_; a tile visits few of the
    /// devices, so nothing here is sized by them.
    DevRec* dev = nullptr;
    std::uint32_t ndev = 0;
    std::uint8_t dev_class = 0;
    bool d2h_inflight = false;
    /// The tile's last current copy died with failed GPU `lost_dev` (a
    /// `lost_dirty` replica at `lost_version`), and no replay or surviving
    /// copy has restored it yet.
    bool recovery_pending = false;
    bool lost_dirty = false;
    int lost_dev = -1;
    std::uint64_t lost_version = 0;
    VectorClock host_vc;   ///< HB carried by the host copy
    VectorClock write_vc;  ///< clock of the last write event
    Epoch write_epoch;     ///< the last write's stamp
    std::uint64_t write_task = 0;
    util::LinkList<ReaderRec> readers;  ///< reads since the last write

    std::span<DevRec> devs() const { return {dev, ndev}; }
    /// `g`'s record, or nullptr when `g` never touched the tile.
    DevShadow* find(int g) const;
    std::uint64_t dev_version(int g) const {
      const DevShadow* d = find(g);
      return d ? d->version : kNoVersion;
    }
  };

  /// `h`'s shadow, created on first touch.
  Shadow& shadow(const mem::DataHandle* h);
  /// `g`'s record of `s`, created on first touch.  Invalidates other
  /// records' addresses when it creates one.
  DevShadow& touch(Shadow& s, int g);
  /// Clear `s`'s pending recovery, if any.
  void settle_recovery(Shadow& s);
  /// Task `id`'s record, or nullptr when `id` was never submitted.
  TaskInfo* task(std::uint64_t id) {
    return id < tasks_.size() && tasks_[id].submitted ? &tasks_[id] : nullptr;
  }
  std::span<const AccessRec> accesses(const TaskInfo& t) const {
    return {acc_.data() + t.acc_begin, t.acc_count};
  }
  std::span<const std::uint64_t> preds(const TaskInfo& t) const {
    return {preds_.data() + t.pred_begin, t.pred_count};
  }
  /// Clock lanes: 0 is the host, then one kernel FIFO per device, then one
  /// virtual lane per device for kernel-less placement tasks.
  std::size_t lane_kernel(int dev) const {
    return 1 + static_cast<std::size_t>(dev);
  }
  std::size_t lane_virtual(int dev) const {
    return 1 + static_cast<std::size_t>(gpus_) + static_cast<std::size_t>(dev);
  }
  VectorClock& lane_clock(std::size_t lane);

  /// Stamp `t` with a fresh event on `lane`: join every happens-before edge
  /// into the lane clock, tick it and copy it into `t.vc`.  The caller joins
  /// the edges carried by `t`'s read operands into the lane clock first.
  void stamp(TaskInfo& t, std::size_t lane);
  /// Free `t`'s clock once nothing can read it again.
  void release_clock(TaskInfo& t) {
    if (t.completed && t.open_succs == 0) t.vc.recycle(clocks_);
  }
  void check_reads(std::uint64_t id, TaskInfo& t);
  /// on_transfer_issue for a kDtoH flush of `h`'s current version.
  void host_flush_issue(const mem::DataHandle* h, int src);
  void record_writes(std::uint64_t id, TaskInfo& t, int dev, sim::Time now);

  void violation(ViolationKind kind, std::string msg);
  void fold(std::uint64_t v) {
    hash_ = (hash_ ^ v) * 1099511628211ull;  // FNV-1a 64, 8 bytes at a time
  }
  void fold_time(sim::Time t);

  /// True when some location (or in-flight reception) still holds the
  /// current version of `h`.
  bool current_version_survives(const mem::DataHandle* h, const Shadow& s,
                                int excluding_dev) const;

  CheckConfig cfg_;
  int gpus_;
  trace::SourcePolicy policy_;
  bool optimistic_;

  /// Indexed by task id and grown as ids are submitted (a skipped id is a
  /// record that reads as absent).  Records never move, so a hook keeps its
  /// TaskInfo& across submits, and walking the table visits the tasks in
  /// submission order.
  util::Slab<TaskInfo, kTaskBlock> tasks_;
  /// Every task's access records and predecessor ids, appended at submit.
  std::vector<AccessRec> acc_;
  std::vector<std::uint64_t> preds_;
  /// Indexed by mem::DataHandle::id and grown on first touch: records never
  /// move, so growth keeps every AccessRec::shadow valid, and walking the
  /// table visits the tiles in id order.
  util::Slab<Shadow, kShadowBlock> shadows_;
  util::LinkPool<ReaderRec, kReaderBlock> readers_;
  util::ArrayPool<DevRec, kDevBlock> devs_;
  /// Buffers of freed clocks, for the next clock copy.
  VectorClock::Pool clocks_;
  std::vector<VectorClock> lanes_;
  /// Join of all completed tasks' clocks, lane-indexed: it is the one clock
  /// that spans every lane, so a completion raises its own lanes in place
  /// instead of merging into a sparse clock.
  std::vector<std::uint64_t> completed_;
  /// Sparse snapshot of `completed_` handed to submits, rebuilt only when a
  /// submit follows a completion.
  VectorClock completed_vc_;
  bool completed_vc_stale_ = false;

  // Reception ledger, balanced against the issued receptions in finalize().
  std::size_t arrivals_ = 0;
  std::size_t rx_aborts_seen_ = 0;  ///< aborted H2D/D2D receptions

  std::vector<char> failed_devs_;  ///< blacklisted GPUs (empty = none)
  bool device_failed(int dev) const {
    return dev >= 0 && static_cast<std::size_t>(dev) < failed_devs_.size() &&
           failed_devs_[static_cast<std::size_t>(dev)] != 0;
  }
  /// Shadows with recovery_pending set: each must be resolved by a replay
  /// or a promotion before finalize.
  std::size_t pending_recoveries_ = 0;

  /// Violations beyond this many are counted but not recorded verbatim.
  static constexpr std::size_t kMaxRecorded = 64;
  std::vector<Violation> violations_;
  std::size_t total_violations_ = 0;
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a offset basis
};

}  // namespace xkb::check
