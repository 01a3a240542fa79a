// Tests of the library models: supported-routine matrices, failure
// emulation, and -- most importantly -- the qualitative *shape* claims of
// the paper that the whole reproduction hangs on (who wins, where, why).
// These run at a reduced size (N=16384, tile 2048) to stay fast.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "baselines/common.hpp"
#include "baselines/library_model.hpp"
#include "tdl/presets.hpp"
#include "trace/gantt.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"

namespace xkb::baselines {
namespace {

BenchConfig cfg_for(Blas3 r, std::size_t n = 16384) {
  BenchConfig cfg;
  cfg.routine = r;
  cfg.n = n;
  cfg.tile = 2048;
  return cfg;
}

TEST(Models, FactoryProducesAllEight) {
  const auto models = all_models();
  ASSERT_EQ(models.size(), 8u);
  std::vector<std::string> names;
  for (const auto& m : models) names.push_back(m->name());
  EXPECT_NE(std::find(names.begin(), names.end(), "XKBlas"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Chameleon Tile"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cuBLAS-XT"), names.end());
}

TEST(Models, RoutineSupportMatchesThePaper) {
  auto blasx = make_blasx();
  auto mg = make_cublasmg();
  auto dplasma = make_dplasma();
  auto xkblas = make_xkblas(rt::HeuristicConfig::xkblas());
  // "cuBLAS-MG only implements GEMM; BLASX public code only contains GEMM;
  //  DPLASMA exploits GPUs with GEMM only."
  for (Blas3 r : {Blas3::kSymm, Blas3::kSyrk, Blas3::kSyr2k, Blas3::kTrmm,
                  Blas3::kTrsm}) {
    EXPECT_FALSE(blasx->supports(r));
    EXPECT_FALSE(mg->supports(r));
    EXPECT_FALSE(dplasma->supports(r));
    EXPECT_TRUE(xkblas->supports(r));
  }
  EXPECT_TRUE(blasx->supports(Blas3::kGemm));
  // XKBlas offers the 9 standard routines incl. the Hermitian trio.
  for (Blas3 r : {Blas3::kHemm, Blas3::kHerk, Blas3::kHer2k})
    EXPECT_TRUE(xkblas->supports(r));
}

TEST(Models, UnsupportedRoutineReportsUnsupported) {
  auto blasx = make_blasx();
  const BenchResult r = blasx->run(cfg_for(Blas3::kTrsm));
  EXPECT_FALSE(r.supported);
}

TEST(Models, BlasxFailsAbove45000) {
  auto blasx = make_blasx();
  const BenchResult r = blasx->run(cfg_for(Blas3::kGemm, 49152));
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("memory"), std::string::npos);
  EXPECT_FALSE(blasx->run(cfg_for(Blas3::kGemm, 32768)).failed);
}

TEST(Models, AllProduceSaneResults) {
  for (const auto& m : all_models()) {
    const BenchResult r = m->run(cfg_for(Blas3::kGemm));
    ASSERT_TRUE(r.supported) << m->name();
    ASSERT_FALSE(r.failed) << m->name();
    EXPECT_GT(r.tflops, 1.0) << m->name();
    EXPECT_LT(r.tflops, 62.4) << m->name() << " exceeds the platform peak";
    EXPECT_GT(r.tasks, 0u) << m->name();
    EXPECT_EQ(r.per_gpu.size(), 8u) << m->name();
  }
}

// ---- the paper's headline shape claims ----

TEST(PaperShape, XkblasWinsGemmDataOnHost) {
  const auto cfg = cfg_for(Blas3::kGemm);
  auto xkblas = make_xkblas(rt::HeuristicConfig::xkblas());
  const double xk = xkblas->run(cfg).tflops;
  for (const auto& m : all_models()) {
    if (m->name() == "XKBlas") continue;
    const BenchResult r = m->run(cfg);
    if (!r.supported || r.failed) continue;
    EXPECT_GT(xk, r.tflops) << "XKBlas must outperform " << m->name();
  }
}

TEST(PaperShape, HeuristicAblationOrdering) {
  // Fig. 3: full XKBlas > no-heuristic >= both-disabled, for GEMM.
  const auto cfg = cfg_for(Blas3::kGemm, 24576);
  const double full =
      make_xkblas(rt::HeuristicConfig::xkblas())->run(cfg).tflops;
  const double no_heur =
      make_xkblas(rt::HeuristicConfig::no_heuristic())->run(cfg).tflops;
  const double no_topo =
      make_xkblas(rt::HeuristicConfig::no_heuristic_no_topo())
          ->run(cfg).tflops;
  EXPECT_GT(full, no_heur * 1.1) << "optimistic heuristic must matter";
  EXPECT_GE(no_heur * 1.05, no_topo) << "GEMM is insensitive to topo alone";
}

TEST(PaperShape, Syr2kTopologySensitivity) {
  // Table II reports the *maximum* loss over N >= 16384: somewhere in that
  // range, disabling the topology ranking must cost SYR2K strictly more
  // than disabling only the optimistic heuristic.
  auto base = make_xkblas(rt::HeuristicConfig::xkblas());
  auto heur = make_xkblas(rt::HeuristicConfig::no_heuristic());
  auto topo = make_xkblas(rt::HeuristicConfig::no_heuristic_no_topo());
  double worst_heur = 0.0, worst_topo = 0.0;
  for (std::size_t n : {16384ul, 24576ul}) {
    const auto cfg = cfg_for(Blas3::kSyr2k, n);
    const double b = base->run(cfg).tflops;
    worst_heur = std::max(worst_heur, 1.0 - heur->run(cfg).tflops / b);
    worst_topo = std::max(worst_topo, 1.0 - topo->run(cfg).tflops / b);
  }
  EXPECT_GT(worst_topo, worst_heur)
      << "rank-blind source selection must cost SYR2K extra";
}

TEST(PaperShape, DataOnDeviceGains) {
  // Fig. 4: 2D block-cyclic pre-distribution beats data-on-host.
  auto xkblas = make_xkblas(rt::HeuristicConfig::xkblas());
  for (Blas3 r : {Blas3::kGemm, Blas3::kSyr2k, Blas3::kTrsm}) {
    BenchConfig host_cfg = cfg_for(r);
    BenchConfig dod_cfg = host_cfg;
    dod_cfg.data_on_device = true;
    const double host = xkblas->run(host_cfg).tflops;
    const double dod = xkblas->run(dod_cfg).tflops;
    EXPECT_GT(dod, host) << blas3_name(r);
  }
}

TEST(PaperShape, CublasXtIsTransferBound) {
  // Fig. 6: cuBLAS-XT spends most GPU time in HtoD copies.
  const BenchResult r = make_cublasxt()->run(cfg_for(Blas3::kGemm, 32768));
  EXPECT_GT(r.breakdown.htod, r.breakdown.kernel);
  EXPECT_EQ(r.transfers.d2d, 0u) << "cuBLAS-XT never uses peer links";
}

TEST(PaperShape, XkblasTransferShareLowest) {
  // Fig. 6: XKBlas has the smallest transfer share of total GPU time.
  const auto cfg = cfg_for(Blas3::kGemm, 32768);
  auto share = [&](LibraryModel& m) {
    const BenchResult r = m.run(cfg);
    return r.breakdown.transfers() / r.breakdown.total();
  };
  auto xkblas = make_xkblas(rt::HeuristicConfig::xkblas());
  auto cham = make_chameleon(true);
  auto xt = make_cublasxt();
  const double xk = share(*xkblas);
  EXPECT_LT(xk, share(*cham));
  EXPECT_LT(xk, share(*xt));
  EXPECT_LT(xk, 0.35) << "paper: ~25% of total execution";
}

TEST(PaperShape, ChameleonLapackConversionPenalty) {
  // Fig. 5: Chameleon LAPACK pays host layout conversions; the Tile variant
  // does not.
  const auto cfg = cfg_for(Blas3::kGemm);
  const double tile = make_chameleon(true)->run(cfg).tflops;
  const double lapack = make_chameleon(false)->run(cfg).tflops;
  EXPECT_GT(tile, lapack * 1.5);
}

TEST(PaperShape, SlateFlatAndSlow) {
  // Fig. 5: Slate cannot exploit NVLink; its outer products round-trip C.
  const BenchResult r = make_slate()->run(cfg_for(Blas3::kGemm, 32768));
  EXPECT_LT(r.tflops, 20.0);
  EXPECT_EQ(r.transfers.d2d, 0u);
  EXPECT_GT(r.transfers.d2h, 256u) << "C tiles round-trip every step";
}

TEST(PaperShape, DropInReplacementRatios) {
  // Section IV-D: XKBlas up to ~3x cuBLAS-XT and ~5x Chameleon LAPACK.
  const auto cfg = cfg_for(Blas3::kGemm);
  const double xk = make_xkblas(rt::HeuristicConfig::xkblas())
                        ->run(cfg).tflops;
  const double xt = make_cublasxt()->run(cfg).tflops;
  const double cl = make_chameleon(false)->run(cfg).tflops;
  EXPECT_GT(xk / xt, 1.5);
  EXPECT_GT(xk / cl, 2.5);
}

TEST(PaperShape, CompositionBeatsSynchronised) {
  // Figs. 8-9: composing TRSM+GEMM without a barrier wins.  No call
  // overhead, so the drain between the calls is the only difference.
  ModelSpec xkblas = spec_for_library("xkblas");
  xkblas.call_overhead = 0.0;
  const BenchResult composed = run_composition(xkblas, 16384, 2048, false);
  const BenchResult synced = run_composition(xkblas, 16384, 2048, true);
  EXPECT_GT(composed.tflops, synced.tflops);
}

TEST(PaperShape, XkblasImbalanceVsDmdas) {
  // Fig. 7: XKBlas's work stealing leaves more kernel-time imbalance on
  // SYR2K than Chameleon's dmdas.
  const auto cfg = cfg_for(Blas3::kSyr2k, 32768);
  auto imbalance = [](const BenchResult& r) {
    double kmin = 1e30, kmax = 0.0;
    for (const auto& b : r.per_gpu) {
      kmin = std::min(kmin, b.kernel);
      kmax = std::max(kmax, b.kernel);
    }
    return kmax / kmin;
  };
  const double xk = imbalance(
      make_xkblas(rt::HeuristicConfig::xkblas())->run(cfg));
  const double ch = imbalance(make_chameleon(true)->run(cfg));
  EXPECT_GT(xk, ch);
}

// With obs on, the result keeps the run's trace, which is what Fig. 9 draws
// its Gantt chart from; with obs off nothing extra is kept.
TEST(Composition, GanttIsProducedOnRequest) {
  const ModelSpec spec = spec_for_library("xkblas");
  EXPECT_FALSE(run_composition(spec, 8192, 1024, false).trace);
  RunConfig cfg;
  cfg.obs.enabled = true;
  const BenchResult r = run_composition(spec, 8192, 1024, false, cfg);
  ASSERT_TRUE(r.trace);
  const std::string gantt = trace::gantt_ascii(*r.trace, 8);
  EXPECT_NE(gantt.find("GPU 0"), std::string::npos);
  EXPECT_NE(gantt.find('K'), std::string::npos);
}

TEST(Composition, DataOnDeviceIsRejected) {
  RunConfig cfg;
  cfg.data_on_device = true;
  EXPECT_THROW(
      run_composition(spec_for_library("xkblas"), 8192, 1024, false, cfg),
      std::invalid_argument);
}

// A default ModelSpec is the bare runtime: a Session runs the event stream
// of a Platform and a Runtime wired by hand with every option at its
// default, on topo_bench's 64-device point and on a dgx1 graph whose
// devices steal and fill their prefetch windows.
TEST(Session, DefaultSpecIsTheBareRuntime) {
  tdl::FatTreeSpec ft;
  ft.nodes = 4;
  ft.gpus_per_node = 16;
  const std::pair<topo::Topology, const char*> cases[] = {
      {topo::Topology::from_machine(tdl::fat_tree_machine(ft)),
       "stencil_1d:width=128,depth=8"},
      {topo::Topology::dgx1(), "random:width=64,depth=8"},
  };
  for (const auto& [topo, spec] : cases) {
    const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(spec));
    const auto run = [&g](rt::Runtime& runtime) {
      wl::BridgeOptions bopt;
      bopt.home = [n = runtime.num_gpus()](std::size_t i, std::size_t) {
        return static_cast<int>(i % static_cast<std::size_t>(n));
      };
      wl::Bridge bridge(runtime, g, std::move(bopt));
      bridge.emit();
      bridge.coherent();
      runtime.run();
    };

    rt::Platform plat(topo, rt::PerfModel{}, rt::PlatformOptions{});
    rt::RuntimeOptions ropt;
    ropt.check.enabled = true;
    rt::Runtime by_hand(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                        ropt);
    run(by_hand);
    ASSERT_TRUE(by_hand.checker()->ok()) << by_hand.checker()->report();

    RunConfig cfg;
    cfg.topology = topo;
    cfg.check.enabled = true;
    Session session({}, cfg, {});
    run(session.runtime());
    BenchResult res;
    session.capture(res);
    EXPECT_TRUE(res.check_ok) << spec << ": " << res.check_report;
    EXPECT_EQ(plat.engine().events_processed(), res.events_processed) << spec;
    EXPECT_EQ(by_hand.checker()->event_hash(), res.event_hash) << spec;
  }
}

}  // namespace
}  // namespace xkb::baselines
