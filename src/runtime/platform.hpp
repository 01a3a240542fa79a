// The simulated multi-GPU machine: topology + channels + kernel FIFOs +
// caches, and the one place the runtime reports what happens on it.
//
// A Platform instantiates the resources the discrete-event simulation runs
// on, mirroring the DGX-1 of the paper:
//   * per host-link (PCIe switch) one channel per direction -- two GPUs
//     share each switch, so their H2D traffic contends, a first-order
//     limiter the paper identifies;
//   * per directed GPU pair one peer channel at the Fig. 2 bandwidth;
//   * per GPU one kernel FIFO (XKaapi's concurrent kernel streams share the
//     SMs, so they time-slice rather than multiply throughput);
//   * per GPU a software-cache capacity (32 GB on the V100-SXM2).
// All operations are recorded in the Trace.
//
// The instrumentation stream: every fact the runtime produces -- a copy
// issued, a kernel launched, a source decision, a cache reference, an
// eviction, an abort, a retry, a replica lost or promoted, a replay, a
// remap -- is reported once, through the calls at the end of the class.
// Each report fans out, in place, to whichever sinks are attached (the op
// trace, xkb::obs, xkb::check) and bumps the fact's TransferStats counter,
// so no two views of one fact can disagree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "mem/cache.hpp"
#include "obs/obs.hpp"
#include "runtime/perf_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"

namespace xkb::fault {
class Injector;
}

namespace xkb::rt {

/// Counters of the reported facts, cumulative over the platform's life
/// (one Runtime per Platform: they are that runtime's data-movement counts).
struct TransferStats {
  std::size_t h2d = 0;               ///< host-to-device transfers issued
  std::size_t d2h = 0;
  std::size_t d2d = 0;               ///< device-to-device transfers issued
  /// Duplicate H2D avoided by the Section III-C heuristic: a valid host copy
  /// existed but we chained on an in-flight peer reception instead.  Only
  /// incremented when HeuristicConfig::optimistic_d2d chose to wait -- the
  /// ablation configurations must report 0 here.
  std::size_t optimistic_waits = 0;
  /// Waits forced by coherence, not chosen by the heuristic: the only copy
  /// of the data was in flight, so there was nothing else to copy from.
  /// These fire under every HeuristicConfig.
  std::size_t forced_waits = 0;
  std::size_t evict_flushes = 0;
  std::size_t oom_deferrals = 0;  ///< acquisitions deferred under pressure
  /// Transfers that died in flight: injected transient failures plus copies
  /// cancelled because an endpoint device failed.
  std::size_t transfer_aborts = 0;
  /// Fetches re-issued after a transient failure's backoff elapsed.
  std::size_t transfer_retries = 0;
  /// Optimistic/forced waiters whose awaited source device failed while
  /// their chained reception was pending: each was re-planned to a
  /// surviving source (or the host) instead of deadlocking.
  std::size_t waiter_replans = 0;
};

struct PlatformOptions {
  /// Execute functional kernel payloads and real byte movement (tests);
  /// when false only virtual time advances (paper-scale benches).
  bool functional = false;
  /// No effect: every device has exactly one kernel FIFO.  Still declared
  /// so existing configuration code keeps compiling.
  int kernel_streams = 2;
  std::size_t device_capacity = 32ull << 30;  ///< bytes per GPU (V100 32GB)
  mem::EvictionPolicy eviction = mem::EvictionPolicy::kReadOnlyFirst;
};

class Platform {
 public:
  Platform(topo::Topology topo, PerfModel perf, PlatformOptions opt);

  sim::Engine& engine() { return engine_; }
  const topo::Topology& topology() const { return topo_; }
  const PerfModel& perf() const { return perf_; }
  const PlatformOptions& options() const { return opt_; }
  trace::Trace& trace() { return trace_; }
  mem::DeviceCache& cache(int dev) { return *caches_[dev]; }
  int num_gpus() const { return topo_.num_gpus(); }

  /// Attach/detach the validation layer (owned by the Runtime); null when
  /// disabled.
  void set_checker(check::Checker* c) { checker_ = c; }

  /// Attach/detach the observability layer: registers a link-utilization
  /// probe on every directed channel (host links per direction, every peer
  /// channel, the host worker).  Must run before the Runtime is constructed
  /// (it caches registry series pointers); null detaches all probes.
  void set_obs(obs::Observability* o);
  obs::Observability* obs() const { return obs_; }

  /// Attach the fault injector (owned by the caller, like obs): binds the
  /// platform-side link hooks so plan events can mutate the live topology
  /// and channels.  Must run before the Runtime is constructed -- the
  /// Runtime binds the device-failure hook and arms the plan.  The
  /// DataManager reaches the injector through here; null when disabled.
  void set_fault(fault::Injector* f);
  fault::Injector* fault() const { return fault_; }

  // Fault application (invoked by the injector's silent plan events and,
  // for device failure, by the Runtime after draining).  Each mutates the
  // dynamic topology state *and* mirrors the new bandwidth onto the live
  // channels, so both the heuristics' rank view and the DES cost model
  // shift at the same virtual instant, and reports the fault.
  void apply_link_brownout(int a, int b, double fraction);
  void apply_link_heal(int a, int b);
  void apply_link_down(int a, int b);
  void apply_device_failure(int g);

  bool device_failed(int g) const { return topo_.device_failed(g); }
  int num_alive_gpus() const { return topo_.num_alive_gpus(); }

  // Raw copies of `bytes` with no tile behind them (link benchmarks): each
  // is recorded in the op trace only.  Tile fetches and flushes go through
  // transfer(), which reports them.
  /// Host -> device copy over the GPU's (possibly shared) host link.
  sim::Interval copy_h2d(int dev, std::size_t bytes, sim::Callback done);
  /// Device -> host copy.
  sim::Interval copy_d2h(int dev, std::size_t bytes, sim::Callback done);
  /// Direct peer copy (src must have a peer path to dst).
  sim::Interval copy_p2p(int src, int dst, std::size_t bytes,
                         sim::Callback done);

  /// Launch a kernel on `dev`'s kernel FIFO and report it; `task` names
  /// the runtime task it executes (0 for none).
  sim::Interval launch_kernel(int dev, double seconds, double flops,
                              const std::string& label, sim::Callback done,
                              std::uint64_t task = 0);

  /// Host-side work (layout conversions of the Chameleon LAPACK baseline).
  sim::Interval host_work(double seconds, sim::Callback done);

  /// Busy time of `dev`'s kernel FIFO.
  double kernel_busy(int dev) const { return kernels_[dev]->busy_time(); }

  // --- the instrumentation stream: one report per fact ---------------------
  const TransferStats& stats() const { return stats_; }

  /// Issue a copy of `h` and report it: kHtoD host -> `dst`, kPtoP `src` ->
  /// `dst`, kDtoH `src` -> host (a flush of `h`'s current version).
  /// `chained` marks the forwarding leg of a kWaitDevice wait.
  sim::Interval transfer(trace::OpKind k, const mem::DataHandle& h, int src,
                         int dst, bool chained, sim::Callback done);
  /// The source decision for the fetch of `h` into `dst`; `src` is the
  /// device source or wait target, -1 for the host.  kNone parks the
  /// fetch until a producer replay rewrites the tile.
  void report_source(const mem::DataHandle& h, int dst, trace::SourceKind k,
                     int src, bool forced);
  /// A resident replica was evicted from `dev`; a dirty one is flushed.
  void report_evict(const mem::DataHandle& h, int dev, bool dirty);
  /// A copy died in flight; `detail` describes it on obs' fault track.
  /// `attempts`/`cap` feed the checker's bounded-retry invariant (0/0 for
  /// copies cancelled because an endpoint died).
  void report_abort(trace::OpKind k, const mem::DataHandle& h, int src,
                    int dst, int attempts, int cap, std::string detail);
  void report_cache_ref(int dev, obs::CacheRef ref) {
    if (obs_) obs_->on_cache_ref(dev, ref);
  }
  /// A fault instant (link faults, exhausted retries): obs' fault track.
  void report_fault(std::string what, std::string detail) {
    if (obs_) obs_->on_fault_mark(engine_.now(), std::move(what),
                                  std::move(detail));
  }
  /// A failed fetch or flush re-issued after its backoff.
  void report_retry() {
    ++stats_.transfer_retries;
    if (obs_) obs_->count_fault("transfer_retry");
  }
  /// A waiter re-planned because the device it waited on died.
  void report_waiter_replan() {
    ++stats_.waiter_replans;
    if (obs_) obs_->count_fault("waiter_replan");
  }
  /// An acquisition deferred under device-memory pressure.
  void report_oom_deferral() { ++stats_.oom_deferrals; }
  // Replica-protocol transitions (xkb::check's shadow state).
  void report_arrival(const mem::DataHandle& h, int dev) {
    if (checker_) checker_->on_arrival(&h, dev, engine_.now());
  }
  void report_written(const mem::DataHandle& h, int dev) {
    if (checker_) checker_->on_mark_written(&h, dev, engine_.now());
  }
  void report_host_write(const mem::DataHandle& h) {
    if (checker_) checker_->on_host_write(&h);
  }
  void report_flush_done(const mem::DataHandle& h, int src, bool stale,
                         std::uint64_t version) {
    if (checker_)
      checker_->on_host_flush_done(&h, src, stale, version, engine_.now());
  }
  // Device-failure recovery.
  void report_replica_lost(const mem::DataHandle& h, int dev, bool dirty) {
    if (checker_) checker_->on_replica_lost(&h, dev, dirty);
    if (obs_) obs_->count_fault("replica_lost");
  }
  void report_promote(const mem::DataHandle& h, int dev) {
    if (checker_) checker_->on_promote(&h, dev);
    if (obs_) obs_->count_fault("promote");
  }
  void report_replay(const mem::DataHandle& h, std::uint64_t task) {
    if (checker_) checker_->on_replay(&h, task);
    if (obs_) obs_->count_fault("replay");
  }
  void report_remap(std::uint64_t task, int from, int to) {
    if (checker_) checker_->on_task_remap(task, from, to);
    if (obs_) obs_->count_fault("task_remap");
  }

 private:
  topo::Topology topo_;
  PerfModel perf_;
  PlatformOptions opt_;
  sim::Engine engine_;
  trace::Trace trace_;

  std::vector<std::unique_ptr<sim::Channel>> h2d_;  // per host link
  std::vector<std::unique_ptr<sim::Channel>> d2h_;  // per host link
  /// Directed peer channels, created on first use, one row per source
  /// device sorted by destination.  A 1024-device machine only pays for the
  /// pairs its workload actually exercises; creation is deterministic
  /// (single-threaded DES, and a Channel's constructor has no engine side
  /// effects).  A lookup is a binary search in its source's row, and walking
  /// the rows in order visits pairs in sorted (src, dst) order, so
  /// detach/re-attach walks a stable order.
  std::vector<std::vector<std::pair<int, std::unique_ptr<sim::Channel>>>>
      p2p_rows_;
  std::vector<std::unique_ptr<sim::FifoResource>> kernels_;  // per device
  std::unique_ptr<sim::FifoResource> host_worker_;
  std::vector<std::unique_ptr<mem::DeviceCache>> caches_;
  check::Checker* checker_ = nullptr;
  obs::Observability* obs_ = nullptr;
  fault::Injector* fault_ = nullptr;
  TransferStats stats_;

  void sync_link_bandwidth(int a, int b);
  sim::Channel& p2p_channel(int src, int dst);
};

}  // namespace xkb::rt
