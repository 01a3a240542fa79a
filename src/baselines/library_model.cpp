#include "baselines/library_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "baselines/common.hpp"
#include "tdl/presets.hpp"

namespace xkb::baselines {

namespace {

struct Row {
  const char* cli;  ///< the name every tool's --lib accepts
  ModelSpec spec;
};

// Designated initializers name only the knobs a library changes; every
// other field keeps its ModelSpec default.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

/// The libraries of the paper's comparison, in Fig. 5 order.  Built once;
/// a factory copies only the row it asks for.
const std::vector<Row>& table() {
  static const std::vector<Row> rows = {
      // BLASX: a multi-GPU level-3 BLAS with a two-level software cache that
      // favours GPU-to-GPU transfers between devices sharing a PCIe switch
      // (the L2 cache level), scheduling tiles dynamically.  The public code
      // only ships GEMM, and the public build exhausts device memory on
      // matrices larger than 45000 (paper Fig. 5 note) -- both reproduced.
      {"blasx",
       {.name = "BLASX",
        .heur = {rt::SourcePolicy::kSwitchPeer, /*optimistic=*/false},
        .task_overhead = 4e-6,
        .call_overhead = 10e-3,
        .max_n = 45000,
        .routines = {Blas3::kGemm}}},
      // Chameleon over StarPU with the dmdas scheduler (the configuration of
      // the paper's experiments: 2 concurrent kernels per GPU, performance
      // models pre-trained).  dmdas places each ready task where its
      // expected completion time -- including estimated transfer cost -- is
      // minimal, which balances SYRK/SYR2K better than XKaapi's work
      // stealing (the crossover of Fig. 5).  StarPU costs 20 us per task to
      // submit and schedule, and 80 ms per call to unroll the graph and
      // look up its models.  The LAPACK variant takes operands in LAPACK
      // layout and converts to/from tile layout on the host before and
      // after the computation, which makes it ~5x slower end to end.
      {"chameleon-lapack",
       {.name = "Chameleon LAPACK",
        .dmdas = true,
        .heur = {rt::SourcePolicy::kFirstValid, /*optimistic=*/false},
        .task_overhead = 20e-6,
        .call_overhead = 80e-3,
        .lapack_conversion = true}},
      // Chameleon Tile: the same library with operands already in its
      // internal tile layout.
      {"chameleon-tile",
       {.name = "Chameleon Tile",
        .dmdas = true,
        .heur = {rt::SourcePolicy::kFirstValid, /*optimistic=*/false},
        .task_overhead = 20e-6,
        .call_overhead = 80e-3}},
      // cuBLAS-MG (early access): GEMM only, matrices distributed 2D
      // block-cyclic across devices.  Placement is static (owner of the C
      // block); peer copies are used but without topology ranking, and
      // there is no optimistic forwarding -- the gap to XKBlas the paper
      // measures (up to 1.13x).  The call pays grid descriptor setup and
      // the explicit distribution.
      {"cublas-mg",
       {.name = "cuBLAS-MG",
        .stealing = false,
        .heur = {rt::SourcePolicy::kFirstValid, /*optimistic=*/false},
        .static_block_cyclic = true,
        .task_overhead = 2e-6,
        .call_overhead = 90e-3,
        .routines = {Blas3::kGemm}}},
      // cuBLAS-XT: NVIDIA's out-of-core multi-GPU BLAS.  Tiles of the output
      // are statically distributed; every input block is streamed from host
      // memory for each tile product (no software cache across products)
      // and results return to the host at the end of every call
      // (synchronous semantics).  All traffic crosses PCIe -- no peer
      // transfers -- which is why the paper measures it spending most of
      // its time in HtoD copies (Fig. 6).  Shallow per-stream pipelining,
      // no tile sharing.
      {"cublas-xt",
       {.name = "cuBLAS-XT",
        .stealing = false,
        .heur = {rt::SourcePolicy::kHostOnly, /*optimistic=*/false},
        .static_block_cyclic = true,
        .drop_inputs = true,
        .task_overhead = 2e-6,
        .prepare_window = 3,
        .call_overhead = 5e-3}},
      // DPLASMA over PaRSEC: static 2D block-cyclic data distribution with
      // the hierarchical DAG scheduler.  GPU support (GEMM only) stages
      // transfers through host memory, without topology-aware peer
      // selection; each call instantiates the PaRSEC DAG.
      {"dplasma",
       {.name = "DPLASMA",
        .stealing = false,
        .heur = {rt::SourcePolicy::kHostOnly, /*optimistic=*/false},
        .static_block_cyclic = true,
        .task_overhead = 10e-6,
        .call_overhead = 100e-3,
        .routines = {Blas3::kGemm}}},
      // Slate: targets distributed-memory supercomputers; accelerator
      // support goes through block outer products on batched GEMM, whose
      // kernels run below hand-tuned cuBLAS peak.  On a single DGX-1 node
      // this design cannot exploit the NVLink fabric: all traffic crosses
      // the four PCIe switches, panels are re-streamed from the host each
      // step, and output blocks round-trip between host and device every
      // panel update (host-centric memory management) -- which is why the
      // paper measures it flat-lining well below the other libraries.
      {"slate",
       {.name = "Slate",
        .stealing = false,
        .heur = {rt::SourcePolicy::kHostOnly, /*optimistic=*/false},
        .static_block_cyclic = true,
        .drop_inputs = true,
        .flush_outputs_each_task = true,
        .task_overhead = 5e-6,
        .call_overhead = 60e-3,
        .peak_scale = 0.9}},
      // XKBlas: the paper's library -- owner-computes placement with XKaapi
      // work stealing, lazy host coherency, and the two heuristics under
      // test (topology-aware source selection + optimistic device-to-device
      // forwarding); spec_for_library swaps in the Fig. 3 variants.
      // XKaapi's runtime is lightweight, which the paper credits for
      // XKBlas's reactivity on small matrices.  It prefetches deeply ahead
      // of execution (asynchronous tasks are known well in advance), which
      // is what lets the optimistic heuristic catch so many concurrent
      // first touches.
      {"xkblas",
       {.name = "XKBlas",
        .heur = rt::HeuristicConfig::xkblas(),
        .task_overhead = 3e-6,
        .prepare_window = 16,
        .call_overhead = 1e-3}},
  };
  return rows;
}

#pragma GCC diagnostic pop

std::unique_ptr<LibraryModel> model(const char* cli) {
  return std::make_unique<LibraryModel>(spec_for_library(cli));
}

}  // namespace

bool LibraryModel::supports(Blas3 r) const {
  if (spec_.routines.empty()) return true;
  return std::find(spec_.routines.begin(), spec_.routines.end(), r) !=
         spec_.routines.end();
}

BenchResult LibraryModel::run(const BenchConfig& cfg) const {
  BenchResult res;
  if (!supports(cfg.routine)) {
    res.supported = false;
    return res;
  }
  cfg.validate();
  if (cfg.n > spec_.max_n) {
    res.failed = true;
    res.error = "memory allocation error";
    return res;
  }
  obs::LedgerMeta id;
  id.routine = blas3_name(cfg.routine);
  id.n = cfg.n;
  id.tile = cfg.tile;
  return run_plan(spec_, cfg, std::move(id), [&](rt::Runtime& runtime) {
    return plan_routine(runtime, cfg.routine, cfg.n,
                        emit_options(spec_, cfg.tile, runtime.num_gpus()));
  });
}

void RunConfig::validate() const {
  if (device_capacity == 0)
    throw std::invalid_argument(
        "RunConfig.device_capacity == 0: no replica could ever be "
        "allocated");
}

void BenchConfig::validate() const {
  if (n == 0)
    throw std::invalid_argument(
        "BenchConfig.n == 0: an empty matrix has no task graph to run");
  if (tile == 0)
    throw std::invalid_argument(
        "BenchConfig.tile == 0: tiling by zero divides the matrix into "
        "nothing");
  if (tile > n)
    throw std::invalid_argument(
        "BenchConfig.tile (" + std::to_string(tile) + ") exceeds n (" +
        std::to_string(n) + "): the tile grid would be empty");
  RunConfig::validate();
}

std::vector<std::unique_ptr<LibraryModel>> all_models() {
  std::vector<std::unique_ptr<LibraryModel>> v;
  for (const Row& r : table())
    v.push_back(std::make_unique<LibraryModel>(r.spec));
  return v;
}

std::vector<std::string> library_names() {
  std::vector<std::string> v;
  for (const Row& r : table()) v.emplace_back(r.cli);
  return v;
}

ModelSpec spec_for_library(const std::string& name, rt::HeuristicConfig heur) {
  for (const Row& r : table()) {
    if (name != r.cli) continue;
    ModelSpec s = r.spec;
    // The Fig. 3 ablation varies XKBlas's heuristics only.
    if (name == "xkblas") s.heur = heur;
    return s;
  }
  std::string all;
  for (const std::string& n : library_names())
    all += (all.empty() ? "" : "|") + n;
  throw std::invalid_argument("unknown library '" + name +
                              "' (accepted: " + all + ")");
}

std::unique_ptr<LibraryModel> make_xkblas(rt::HeuristicConfig heur,
                                          std::string suffix) {
  ModelSpec s = spec_for_library("xkblas", heur);
  s.name += suffix;
  return std::make_unique<LibraryModel>(std::move(s));
}
std::unique_ptr<LibraryModel> make_cublasxt() { return model("cublas-xt"); }
std::unique_ptr<LibraryModel> make_blasx() { return model("blasx"); }
std::unique_ptr<LibraryModel> make_chameleon(bool tile_layout) {
  return model(tile_layout ? "chameleon-tile" : "chameleon-lapack");
}
std::unique_ptr<LibraryModel> make_cublasmg() { return model("cublas-mg"); }
std::unique_ptr<LibraryModel> make_slate() { return model("slate"); }
std::unique_ptr<LibraryModel> make_dplasma() { return model("dplasma"); }

Blas3 parse_routine(const std::string& name) {
  if (name == "gemm") return Blas3::kGemm;
  if (name == "symm") return Blas3::kSymm;
  if (name == "syrk") return Blas3::kSyrk;
  if (name == "syr2k") return Blas3::kSyr2k;
  if (name == "trmm") return Blas3::kTrmm;
  if (name == "trsm") return Blas3::kTrsm;
  if (name == "hemm") return Blas3::kHemm;
  if (name == "herk") return Blas3::kHerk;
  if (name == "her2k") return Blas3::kHer2k;
  throw std::invalid_argument(
      "unknown routine '" + name +
      "' (accepted: gemm|symm|syrk|syr2k|trmm|trsm|hemm|herk|her2k)");
}

topo::Topology parse_topo(const std::string& name) {
  if (name == "dgx1") return topo::Topology::dgx1();
  if (name == "pcie") return topo::Topology::pcie_only(8);
  if (name == "nvswitch") return topo::Topology::nvswitch(8);
  if (name == "summit") return topo::Topology::summit_like();
  // Anything ending in .tpo is a machine description file.
  if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tpo") == 0)
    return topo::Topology::from_tpo_file(name);
  // Fall through to the tdl preset registry (fat_tree_2x8, pcie8, ...), so
  // every preset a .tpo file can be generated from is also runnable.
  try {
    return topo::Topology::from_machine(tdl::preset_machine(name));
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "unknown topology '" + name +
        "' (accepted: dgx1|pcie|nvswitch|summit|<tdl preset>|<file.tpo>)");
  }
}

}  // namespace xkb::baselines
