// xkb::obs -- the runtime-wide observability layer.
//
// Where xkb::check answers "is the run *correct*", xkb::obs answers "*why*
// is the run this fast (or slow)": which link every transfer crossed and how
// contended it was, which replica candidates the DataManager saw when it
// picked a source, where optimistic D2D forwarding chains flowed, and which
// operations actually bound the makespan (critical_path.hpp).  The paper
// argues its Section III heuristics through exactly this evidence (nvprof
// class breakdowns, Figs. 6-7 and 9); this layer reproduces it from the
// simulator with zero overhead when detached (one null-pointer test per
// observation point, same contract as the checker).
//
// Ownership: an Observability instance is created by the driver (bench
// skeleton, CLI, test) and attached to the Platform *before* the Runtime is
// constructed (the runtime caches series pointers for per-event queue-depth
// sampling).  It depends only on sim/topo/trace -- never on runtime; the
// runtime feeds it through rt::Platform's fan-out, which reports every fact
// once to the op trace, this layer and xkb::check.  Numbers the op trace
// already carries (op counts, per-class time and bytes) are not counted
// again here: finalize_registry sums them from the trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/probes.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "trace/facts.hpp"

namespace xkb::trace {
class Trace;
}

namespace xkb::obs {

/// Caller-supplied identity of the run a ledger describes.  Lives here
/// (not ledger.hpp) because the Observability instance carries it: crash
/// dumps composed deep inside the runtime -- where lib/routine are not in
/// scope -- reuse the registered identity.
struct LedgerMeta {
  std::string lib;       ///< "xkblas", "nohint-notopo", ...
  std::string routine;   ///< "gemm", "trsm", workload name, ...
  std::string scenario;  ///< "data-on-host" | "data-on-device"
  std::size_t n = 0, tile = 0;
  std::uint64_t seed = 0;
};

}  // namespace xkb::obs

namespace xkb::obs {

/// Opt-in switch carried by BenchConfig (parallel to check::CheckConfig).
struct ObsConfig {
  bool enabled = false;
};

/// How an ensure_valid request hit the software cache.
enum class CacheRef : std::uint8_t { kHit, kMiss, kInFlightHit };

/// One source-selection decision: every replica candidate the policy saw
/// (with its P2P performance rank) and what it picked.  Rendered as instant
/// events in the Chrome export so a questionable source choice can be
/// inspected in context.
struct Decision {
  sim::Time t = 0.0;
  std::uint64_t handle = 0;  ///< tile id
  int dst = -1;              ///< requesting device
  trace::SourceKind pick = trace::SourceKind::kHost;
  int picked_dev = -1;  ///< device source/wait target, -1 for host
  bool forced = false;  ///< kWaitDevice only: coherence-forced, not chosen
  struct Candidate {
    int dev = -1;
    int rank = 0;          ///< topo::p2p_perf_rank(dev, dst)
    bool in_flight = false;  ///< optimistic candidate (reception ongoing)
  };
  std::vector<Candidate> candidates;
};

/// A fault-plan event or recovery action, stamped at the virtual instant it
/// applied.  Rendered as instant events on a dedicated "faults" track in
/// the Chrome export and folded into fault.* registry counters.
struct FaultMark {
  sim::Time t = 0.0;
  std::string what;    ///< counter key: brownout, link_down, device_fail, ...
  std::string detail;  ///< human-readable description for the export
};

/// One transfer-forwarding chain: a reception on `src_dev` whose completion
/// triggered a device-to-device copy to `dst_dev` (the Section III-C
/// optimistic heuristic, or a coherence-forced wait).  Rendered as a flow
/// arrow between the two slices in the Chrome export.
struct Flow {
  std::uint64_t handle = 0;
  int src_dev = -1, dst_dev = -1;
  int src_tid = 1;  ///< Chrome sub-track of the incoming reception
  bool forced = false;
  sim::Interval src_iv;  ///< the reception that was waited on
  sim::Interval dst_iv;  ///< the forwarded D2D copy
};

class Observability {
 public:
  explicit Observability(int num_gpus);

  int num_gpus() const { return gpus_; }
  MetricsRegistry& metrics() { return reg_; }
  const MetricsRegistry& metrics() const { return reg_; }

  // --- platform hooks ---
  /// Create (and own) a probe for one directed channel; the platform
  /// attaches the returned pointer to the sim resource.
  sim::UsageProbe* make_link_probe(std::string name, std::string cls,
                                   LinkDir dir, int src, int dst);
  void on_kernel(int dev, const std::string& label, sim::Interval iv);

  // --- data-movement hooks ---
  void on_cache_ref(int dev, CacheRef ref);
  void on_evict(int dev, bool dirty);
  /// A kWaitDevice decision also opens a wait: the request on `dst` now
  /// waits for the reception ongoing on `picked_dev`.
  void on_decision(Decision d);
  /// `chained` marks a kPtoP copy issued by a reception-completion waiter
  /// (the forwarding leg of a wait) -- it closes the pending Flow.
  void on_transfer(trace::OpKind k, std::uint64_t handle, int src, int dst,
                   sim::Interval iv, std::size_t bytes, bool chained);

  // --- fault hooks (platform link mutations + runtime recovery) ---
  /// Record a fault instant: `what` is the counter key (becomes the
  /// registry counter "fault.<what>"), `detail` the export description.
  void on_fault_mark(sim::Time t, std::string what, std::string detail);
  /// Count a recovery action without an export-worthy instant (retries,
  /// re-plans, remaps...): bumps "fault.<what>" only.
  void count_fault(const std::string& what, double n = 1.0);

  // --- runtime hooks ---
  /// The ready-queue-depth series of `dev` ("ready.gpu<dev>"); the runtime
  /// caches the pointer and samples it on every scheduling event.
  Series* ready_series(int dev);

  // --- run identity ---
  /// Registered by the bench skeleton before the run so crash dumps
  /// composed inside the runtime (watchdog stall) still name the run.
  void set_ledger_meta(LedgerMeta m) { ledger_meta_ = std::move(m); }
  const LedgerMeta& ledger_meta() const { return ledger_meta_; }

  // --- flight recorder ---
  /// Last-N ring fed by the hooks above; always recording while attached.
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  /// Stash the crash dump composed at the failure site (watchdog stall,
  /// checker violation, exception unwind); the bench skeleton retrieves it
  /// after the catch.  First dump wins -- the failure closest to the cause.
  void set_flight_dump(std::string json) {
    if (flight_dump_.empty()) flight_dump_ = std::move(json);
  }
  const std::string& flight_dump() const { return flight_dump_; }

  // --- results ---
  const std::vector<std::unique_ptr<LinkProbe>>& links() const {
    return links_;
  }
  const std::vector<Decision>& decisions() const { return decisions_; }
  const std::vector<Flow>& flows() const { return flows_; }
  const std::vector<FaultMark>& fault_marks() const { return fault_marks_; }
  /// Latest virtual time observed by any hook or probe.
  sim::Time span() const;

  /// Reset every measurement in place (probes stay attached, cached series
  /// pointers stay valid).  Called where multi-phase runs clear the trace.
  void clear();

  /// Fold the run into the registry under canonical names (transfers.*,
  /// waits.*, cache.*, evict.*, time.*, bytes.*, link.*, gpu<g>.*).  `ops`
  /// is the op trace of the observed window (the platform's trace):
  /// transfers.*, time.*, bytes.* and gpu<g>.time.* are its per-class
  /// counts and sums, added in issue order exactly as Trace::breakdown
  /// adds them, and waits.* count the decision list.  Idempotent; call
  /// before exporting the registry.
  void finalize_registry(const trace::Trace& ops);
  /// Everything but the op-trace sums, which keep their last values.
  void finalize_registry();

 private:
  int gpus_;
  MetricsRegistry reg_;
  std::vector<std::unique_ptr<LinkProbe>> links_;
  std::vector<Decision> decisions_;
  std::vector<Flow> flows_;
  std::vector<FaultMark> fault_marks_;
  std::vector<std::pair<std::string, double>> fault_counts_;  // insertion order
  std::vector<Series*> ready_;  ///< cached "ready.gpu<g>" series

  FlightRecorder flight_;
  std::string flight_dump_;
  LedgerMeta ledger_meta_;

  std::vector<std::uint64_t> hits_, misses_, inflight_hits_;
  std::vector<std::uint64_t> evict_clean_, evict_dirty_;
  sim::Time last_event_ = 0.0;

  /// Last reception per (handle, device) + pending wait flags, for flow
  /// reconstruction, keyed by the full (handle, device) pair.
  struct PendingRx {
    int tid = 1;
    sim::Interval iv;
  };
  struct RxKey {
    std::uint64_t handle = 0;
    int dev = 0;
    bool operator==(const RxKey&) const = default;
  };
  struct RxKeyHash {
    std::size_t operator()(const RxKey& k) const {
      return std::hash<std::uint64_t>{}(k.handle * 0x9e3779b97f4a7c15ull ^
                                        static_cast<std::uint64_t>(k.dev));
    }
  };
  std::unordered_map<RxKey, PendingRx, RxKeyHash> pending_rx_;
  /// (handle, dst) -> forced flag of the wait that will chain to dst.
  std::unordered_map<RxKey, bool, RxKeyHash> pending_wait_;
};

}  // namespace xkb::obs
