// Policy-faithful models of the BLAS libraries the paper compares against
// (Section IV-D), all running on the same simulated platform so that, as in
// the paper, performance differences come only from scheduling and data
// management policies.  Each library is one ModelSpec row of the table in
// library_model.cpp (Fig. 5 order, keyed by CLI name, with the reason for
// every knob); every run of a model -- a BLAS routine, the Fig. 8
// composition or a generic workload -- goes through the one run skeleton
// in run.cpp.
//
// | Library          | Placement              | Sources        | Extras |
// |------------------|------------------------|----------------|--------|
// | XKBlas           | owner-computes + WS    | topology-aware | optimistic D2D, lazy coherency |
// | cuBLAS-XT        | static round-robin     | host only      | synchronous per call, streams inputs (no cache) |
// | BLASX            | owner-computes + WS    | switch peer    | GEMM only, 2-level cache, OOM > 45k |
// | Chameleon Tile   | dmdas                  | first valid    | tile layout native |
// | Chameleon LAPACK | dmdas                  | first valid    | host layout conversions before/after |
// | cuBLAS-MG        | static 2D block cyclic | first valid    | GEMM only, distribute+collect in time |
// | Slate            | static 2D block cyclic | host only      | batched outer products, per-step sync |
// | DPLASMA          | static 2D block cyclic | first valid    | GEMM only |
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "runtime/data_manager.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"
#include "util/flops.hpp"

namespace xkb::baselines {

/// How a model places, sources and moves data: the policy knobs that
/// distinguish the libraries of the paper's comparison.
struct ModelSpec {
  std::string name;
  bool dmdas = false;            ///< dmdas scheduler instead of owner+WS
  bool stealing = true;          ///< owner-computes work stealing
  rt::HeuristicConfig heur;      ///< source policy + optimistic flag
  bool static_block_cyclic = false;      ///< force placement by output tile
  bool drop_inputs = false;              ///< stream inputs, no cross-task cache
  bool flush_outputs_each_task = false;  ///< host-centric outer products
  double task_overhead = 0.0;    ///< per-task runtime cost (seconds)
  int prepare_window = 6;        ///< per-device prefetch depth
  /// Fixed per-call setup cost (graph unrolling, performance-model lookup,
  /// grid/handle initialisation) -- dominates at small N; calibrated from
  /// the paper's small-matrix gaps.
  double call_overhead = 0.0;
  double peak_scale = 1.0;       ///< kernel quality vs cuBLAS (Slate batched)
  bool lapack_conversion = false;  ///< Chameleon LAPACK layout conversions
  std::size_t max_n = SIZE_MAX;  ///< hard failure threshold (BLASX)
  mem::EvictionPolicy eviction = mem::EvictionPolicy::kReadOnlyFirst;
  std::vector<Blas3> routines;   ///< supported routines (empty = all nine)
};

/// What every run shares, whatever it submits: the scenario, the machine
/// and the opt-in layers.
struct RunConfig {
  /// Pre-place the operands before the timed region: 2D block-cyclic for
  /// BLAS routines, each input on its first consumer for workloads.
  bool data_on_device = false;
  topo::Topology topology = topo::Topology::dgx1();
  std::size_t device_capacity = 32ull << 30;
  /// Opt-in validation layer, forwarded to RuntimeOptions::check.  When
  /// enabled the result carries the checker verdict and event-stream hash.
  check::CheckConfig check;
  /// Opt-in observability layer (metrics registry, link probes, decision
  /// trace).  When enabled the result carries the metrics JSON, the ledger,
  /// the live Observability instance and the run's trace.
  obs::ObsConfig obs;
  /// Opt-in fault plan (xkb::fault).  Non-empty plans arm a deterministic
  /// Injector before the run; recovery statistics and injector counters
  /// land in BenchResult::fault_json.  A FaultError (retries exhausted,
  /// unrecoverable data loss, stuck progress) is reported as a failed-but-
  /// diagnosed run, like an OOM.
  fault::FaultPlan fault_plan;

  /// Reject configurations no run can execute (no device memory) with an
  /// actionable std::invalid_argument instead of a run that defers on
  /// out-of-memory until it gives up.  Called by every run.
  void validate() const;
};

/// One paper benchmark: a BLAS-3 routine on square operands.
struct BenchConfig : RunConfig {
  Blas3 routine = Blas3::kGemm;
  std::size_t n = 16384;      ///< square matrix dimension
  std::size_t tile = 2048;

  /// RunConfig::validate, plus n/tile of zero and tile > n (a division by
  /// zero or an empty task graph deep in the run otherwise).
  void validate() const;
};

struct BenchResult {
  bool supported = true;
  bool failed = false;        ///< e.g. BLASX memory allocation error
  std::string error;
  double seconds = 0.0;       ///< end-to-end virtual time
  double tflops = 0.0;
  trace::Breakdown breakdown;  ///< per-op-class busy time
  std::vector<trace::Breakdown> per_gpu;
  rt::TransferStats transfers;
  std::size_t steals = 0;
  std::size_t tasks = 0;
  // Engine event counters for the whole run (distribution + measured
  // phases): total dispatched events incl. silent machinery, and the
  // observable subset (the event-stream length the hash covers).  Feeds the
  // BENCH_e2e.json events/sec trajectory.
  std::uint64_t events_processed = 0;
  std::uint64_t events_observable = 0;
  std::uint64_t events_peak_pending = 0;
  // Populated only when RunConfig::check.enabled was set.
  bool check_ok = true;
  std::size_t check_violations = 0;
  std::string check_report;
  std::uint64_t event_hash = 0;  ///< FNV-1a over the simulated event stream
  // Populated only when RunConfig::obs.enabled was set.
  std::string metrics_json;  ///< report_json: span/links/critical-path/metrics
  std::string ledger_json;   ///< RunLedger artifact (schema xkb.obs.ledger/1)
  /// Flight-recorder dump (schema xkb.obs.flight/1): last-N observable
  /// events + decisions + fault marks with a ledger snapshot.  Written only
  /// when the run failed or the checker flagged a violation -- a clean run
  /// leaves it empty.
  std::string flight_json;
  std::shared_ptr<obs::Observability> obs;  ///< the live measurement layer
  /// The measured region's op trace (Gantt charts, Chrome export, critical
  /// path); kept for completed runs only.
  std::shared_ptr<const trace::Trace> trace;
  // Populated only when RunConfig::fault_plan was non-empty.
  std::size_t task_remaps = 0;   ///< tasks migrated off a failed device
  std::size_t task_replays = 0;  ///< producers re-run to rebuild lost tiles
  std::string fault_json;  ///< injector counters + runtime recovery stats
};

/// One library of the comparison: its ModelSpec, run through the shared
/// skeleton.
class LibraryModel {
 public:
  explicit LibraryModel(ModelSpec spec) : spec_(std::move(spec)) {}
  const std::string& name() const { return spec_.name; }
  bool supports(Blas3 r) const;
  /// The benchmark `cfg` under this model's policies; unsupported routines
  /// come back with `supported == false`, n above the model's max_n as a
  /// failed run.
  BenchResult run(const BenchConfig& cfg) const;

 private:
  ModelSpec spec_;
};

/// All models in the paper's Fig. 5 order.
std::vector<std::unique_ptr<LibraryModel>> all_models();

/// The table's CLI names ("blasx", ..., "xkblas"), in Fig. 5 order.
std::vector<std::string> library_names();

/// The ModelSpec behind a CLI library name, with `heur` applied to XKBlas.
/// Unknown names throw std::invalid_argument listing every accepted value.
ModelSpec spec_for_library(
    const std::string& name,
    rt::HeuristicConfig heur = rt::HeuristicConfig::xkblas());

/// The XKBlas variants of the Fig. 3 ablation.
std::unique_ptr<LibraryModel> make_xkblas(rt::HeuristicConfig heur,
                                          std::string suffix = "");
std::unique_ptr<LibraryModel> make_cublasxt();
std::unique_ptr<LibraryModel> make_blasx();
std::unique_ptr<LibraryModel> make_chameleon(bool tile_layout);
std::unique_ptr<LibraryModel> make_cublasmg();
std::unique_ptr<LibraryModel> make_slate();
std::unique_ptr<LibraryModel> make_dplasma();

/// The command-line names every tool accepts.  A routine is gemm, symm,
/// syrk, syr2k, trmm, trsm, hemm, herk or her2k.  A topology is dgx1 (the
/// built-in builder), pcie, nvswitch, summit, a tdl preset name
/// (fat_tree_2x8, pcie8, ...) or a .tpo machine file.  Unknown names throw
/// std::invalid_argument listing the accepted values.
Blas3 parse_routine(const std::string& name);
topo::Topology parse_topo(const std::string& name);

}  // namespace xkb::baselines
