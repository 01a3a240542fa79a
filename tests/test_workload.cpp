// xkb::wl: generator structure, spec parsing, .wlg round-trips and
// line-precise errors, the runtime bridge under xkb::check, and the
// bit-identical equivalence of the bridged Fig. 8 composition with the
// baselines composition plan.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "baselines/common.hpp"
#include "baselines/workload_entry.hpp"
#include "obs/report.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"

namespace xkb::wl {
namespace {

using baselines::BenchResult;
using baselines::ModelSpec;
using baselines::run_workload;
using baselines::RunConfig;
using baselines::spec_for_library;

WorkloadSpec spec_of(const std::string& text) {
  return WorkloadSpec::parse(text);
}

// --- generators ----------------------------------------------------------

TEST(Generators, TrivialHasNoCrossTaskEdges) {
  const WorkloadGraph g = build(spec_of("trivial:width=4,depth=3"));
  EXPECT_EQ(g.tasks.size(), 12u);
  EXPECT_EQ(g.tiles.size(), 4u + 12u);  // inputs + one output per task
  // Only layer 0 reads anything (its external input).
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.input_tiles().size(), 4u);
  EXPECT_EQ(g.coherent.size(), 4u);  // last layer's outputs
}

TEST(Generators, Stencil1dReadsTheThreePointHalo) {
  const WorkloadGraph g = build(spec_of("stencil_1d:width=5,depth=3"));
  // Task (t=1, p=2) reads outputs 1, 2, 3 of layer 0 and writes its own.
  const TaskSpec& t = g.tasks[5 * 1 + 2];
  ASSERT_EQ(t.accesses.size(), 4u);
  EXPECT_EQ(t.accesses[0].mode, rt::Access::kR);
  EXPECT_EQ(t.accesses[3].mode, rt::Access::kW);
  // Boundary points lose one neighbour.
  EXPECT_EQ(g.tasks[5 * 1 + 0].accesses.size(), 3u);
  EXPECT_EQ(g.tasks[5 * 1 + 4].accesses.size(), 3u);
}

TEST(Generators, NearestRadixWidensTheHalo) {
  const WorkloadGraph g = build(spec_of("nearest:width=9,depth=2,radix=3"));
  const TaskSpec& mid = g.tasks[9 * 1 + 4];  // interior point, layer 1
  EXPECT_EQ(mid.accesses.size(), 7u + 1u);   // 2*radix+1 reads + write
}

TEST(Generators, FftReadsSelfAndButterflyPartner) {
  const WorkloadGraph g = build(spec_of("fft:width=8,depth=4"));
  // Layer t reads {p, p ^ 2^((t-1) % 3)}.
  for (std::size_t t = 1; t < 4; ++t)
    for (std::size_t p = 0; p < 8; ++p) {
      const TaskSpec& task = g.tasks[8 * t + p];
      ASSERT_EQ(task.accesses.size(), 3u) << "t=" << t << " p=" << p;
    }
  // t=1: stride 1, p=0 partners with 1: reads prev outputs of points 0, 1.
  const TaskSpec& b = g.tasks[8 * 1 + 0];
  EXPECT_EQ(b.accesses[0].tile, g.tasks[0].accesses.back().tile);
  EXPECT_EQ(b.accesses[1].tile, g.tasks[1].accesses.back().tile);
}

TEST(Generators, TreeHalvesLayerWidth) {
  const WorkloadGraph g = build(spec_of("tree:width=8,depth=4"));
  // Layer widths: 8, 4, 2, 1.
  EXPECT_EQ(g.tasks.size(), 8u + 4u + 2u + 1u);
  EXPECT_EQ(g.coherent.size(), 1u);  // the reduction root
  // A layer-1 task combines two layer-0 outputs.
  EXPECT_EQ(g.tasks[8].accesses.size(), 3u);
}

TEST(Generators, RandomIsSeededAndNeverDisconnected) {
  const WorkloadGraph a = build(spec_of("random:width=10,depth=6,seed=3"));
  const WorkloadGraph b = build(spec_of("random:width=10,depth=6,seed=3"));
  const WorkloadGraph c = build(spec_of("random:width=10,depth=6,seed=4"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (const TaskSpec& t : a.tasks) {
    std::size_t reads = 0;
    for (const TaskAccessSpec& acc : t.accesses)
      if (acc.mode == rt::Access::kR) ++reads;
    EXPECT_GE(reads, 1u) << "task '" << t.label << "' has no incoming edge";
  }
}

TEST(Generators, DnnBuildsFwdBwdAndReductionTree) {
  const std::size_t W = 4, L = 3;
  const WorkloadGraph g = build(spec_of("dnn:width=4,depth=3"));
  // fwd W*L + loss W + bwd W*L + reduction (W-1)*L + update L.
  EXPECT_EQ(g.tasks.size(), W * L + W + W * L + (W - 1) * L + L);
  EXPECT_EQ(g.coherent.size(), L);  // the trained weights come home
  std::size_t wred = 0, wupd = 0;
  for (const TaskSpec& t : g.tasks) {
    if (t.label == "wred") ++wred;
    if (t.label == "wupd") ++wupd;
  }
  EXPECT_EQ(wred, (W - 1) * L);
  EXPECT_EQ(wupd, L);
}

TEST(Generators, DnnIsSeededViaItsOwnSubstream) {
  const WorkloadGraph a = build(spec_of("dnn:width=4,depth=3,seed=5"));
  const WorkloadGraph b = build(spec_of("dnn:width=4,depth=3,seed=5"));
  const WorkloadGraph c = build(spec_of("dnn:width=4,depth=3,seed=6"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // per-layer cost jitter comes from the "dnn" stream
}

TEST(Generators, DegenerateSpecsThrow) {
  EXPECT_THROW(build(spec_of("stencil_1d:width=0")), std::invalid_argument);
  EXPECT_THROW(build(spec_of("composition:n=100,tile=200")),
               std::invalid_argument);
}

// --- spec parsing --------------------------------------------------------

TEST(WorkloadSpec, ParsesAndRoundTrips) {
  const WorkloadSpec s =
      spec_of("random:width=16,depth=9,flops=2.5e8,bytes=1048576,prob=0.3,"
              "seed=99");
  EXPECT_EQ(s.kind, Generator::kRandom);
  EXPECT_EQ(s.width, 16u);
  EXPECT_EQ(s.depth, 9u);
  EXPECT_DOUBLE_EQ(s.flops, 2.5e8);
  EXPECT_EQ(s.bytes, 1048576u);
  EXPECT_DOUBLE_EQ(s.prob, 0.3);
  EXPECT_EQ(s.seed, 99u);
  const WorkloadSpec again = spec_of(s.to_string());
  EXPECT_EQ(again.to_string(), s.to_string());
}

TEST(WorkloadSpec, UnknownGeneratorListsAccepted) {
  try {
    spec_of("frobnicate:width=4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frobnicate"), std::string::npos);
    for (const std::string& name : generator_names())
      EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

TEST(WorkloadSpec, BadKeyAndValueNameTheField) {
  EXPECT_THROW(spec_of("fft:wdith=4"), std::invalid_argument);
  try {
    spec_of("fft:depth=banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("depth"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
}

// --- .wlg round-trip and parse errors ------------------------------------

TEST(Wlg, GraphSurvivesWriteParseWriteExactly) {
  for (const char* spec : {"stencil_1d:width=4,depth=3", "dnn:width=3,depth=2",
                           "composition:n=4096,tile=2048"}) {
    const WorkloadGraph g = build(spec_of(spec));
    const std::string text = write_wlg(g);
    const WorkloadGraph parsed = parse_wlg(text);
    EXPECT_EQ(parsed, g) << spec;
    EXPECT_EQ(write_wlg(parsed), text) << spec;  // canonical fixed point
  }
}

void expect_error_names(const std::string& text, const char* line_tag,
                        const char* field) {
  try {
    parse_wlg(text, "bad.wlg");
    FAIL() << "expected std::invalid_argument for: " << text;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;  // one-line error
    EXPECT_NE(msg.find(line_tag), std::string::npos) << msg;
    EXPECT_NE(msg.find(field), std::string::npos) << msg;
  }
}

TEST(Wlg, MalformedLinesNameLineAndField) {
  const std::string head = "workload t\ntile 0 4 4 8\n";
  expect_error_names(head + "task k 1 4 1 0 0 q:0\n", "bad.wlg:3", "access");
  expect_error_names(head + "task k 1 4 1 0 0 r:7\n", "bad.wlg:3", "access");
  expect_error_names(head + "task k x 4 1 0 0 r:0\n", "bad.wlg:3", "flops");
  expect_error_names(head + "tile 5 4 4 8\n", "bad.wlg:3", "id");
  expect_error_names(head + "coherent 9\n", "bad.wlg:3", "tile");
  expect_error_names(head + "frob 1 2\n", "bad.wlg:3", "directive");
  expect_error_names("tile 0 4 4 8\n", "workload", "name");
}

TEST(Wlg, CommentsAndBlanksAreIgnored) {
  const WorkloadGraph g = parse_wlg(
      "# header comment\n"
      "workload demo\n"
      "\n"
      "tile 0 8 8 8   # an input tile\n"
      "tile 1 8 8 8\n"
      "task copy 1e6 8 1 0 0 r:0 w:1\n"
      "coherent 1\n");
  EXPECT_EQ(g.name, "demo");
  EXPECT_EQ(g.tiles.size(), 2u);
  ASSERT_EQ(g.tasks.size(), 1u);
  EXPECT_EQ(g.tasks[0].accesses.size(), 2u);
  EXPECT_EQ(g.coherent.size(), 1u);
}

// --- the bridge under the full validation stack --------------------------

TEST(Bridge, WorkloadsRunCleanUnderCheckInBothPlacements) {
  const ModelSpec xkblas =
      spec_for_library("xkblas", rt::HeuristicConfig::xkblas());
  for (const char* spec : {"stencil_1d:width=6,depth=4", "tree:width=8,depth=4",
                           "dnn:width=4,depth=3"}) {
    const WorkloadGraph g = build(spec_of(spec));
    for (const bool dod : {false, true}) {
      RunConfig cfg;
      cfg.data_on_device = dod;
      cfg.check.enabled = true;
      const BenchResult r = run_workload(xkblas, g, cfg);
      EXPECT_FALSE(r.failed) << spec << ": " << r.error;
      EXPECT_TRUE(r.check_ok) << spec << ": " << r.check_report;
      EXPECT_GE(r.tasks, g.tasks.size()) << spec;
      EXPECT_GT(r.seconds, 0.0) << spec;
    }
  }
}

TEST(Bridge, ObsMetricsReconcileForWorkloads) {
  const WorkloadGraph g = build(spec_of("stencil_1d:width=8,depth=6"));
  RunConfig cfg;
  cfg.check.enabled = true;
  cfg.obs.enabled = true;
  const BenchResult r = run_workload(
      spec_for_library("xkblas", rt::HeuristicConfig::xkblas()), g, cfg);
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_TRUE(r.check_ok) << r.check_report;  // includes the obs reconcile
  ASSERT_TRUE(r.obs);
  const std::string metrics = obs::report_json(r.report(), r.obs.get());
  EXPECT_NE(metrics.find("\"links\""), std::string::npos);
  EXPECT_NE(metrics.find("\"critical_path\""), std::string::npos);
}

// A checker violation found after a workload run leaves the same flight
// dump as a BLAS run: the skeleton composes it for every plan.
TEST(Bridge, CheckerViolationWritesTheFlightDump) {
  const WorkloadGraph g = build(spec_of("tree:width=8,depth=4"));
  RunConfig cfg;
  cfg.check.enabled = true;
  cfg.check.faults.drop_completion_task = 9;  // its successors never run
  cfg.obs.enabled = true;
  const BenchResult r = run_workload(
      spec_for_library("xkblas", rt::HeuristicConfig::xkblas()), g, cfg);
  ASSERT_FALSE(r.failed) << r.error;
  EXPECT_FALSE(r.check_ok);
  ASSERT_FALSE(r.flight_json.empty());
  EXPECT_NE(r.flight_json.find("\"checker-violation\""), std::string::npos);
}

// Workload runs validate their config like BLAS runs: no device memory is
// rejected up front instead of deferring on out-of-memory until failure.
TEST(Bridge, ZeroDeviceCapacityIsRejected) {
  const WorkloadGraph g = build(spec_of("stencil_1d:width=4,depth=2"));
  RunConfig cfg;
  cfg.device_capacity = 0;
  EXPECT_THROW(run_workload(spec_for_library("xkblas"), g, cfg),
               std::invalid_argument);
}

TEST(Bridge, SpecForLibraryRejectsUnknownNamesWithTheList) {
  try {
    spec_for_library("frobnicas", rt::HeuristicConfig::xkblas());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const std::string& name : baselines::library_names())
      EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

// --- Fig. 8 equivalence --------------------------------------------------

// The composition capture replayed through the generic bridge must
// reproduce the baselines composition plan bit for bit: same virtual
// makespan, same event-stream hash.  This is the proof that the bridge adds
// no second semantics -- a workload task graph and a BLAS emission are the
// same thing to the runtime.
TEST(Composition, BridgedReplayIsBitIdenticalToTheBlasEmission) {
  const ModelSpec xkblas =
      spec_for_library("xkblas", rt::HeuristicConfig::xkblas());
  RunConfig cfg;
  cfg.check.enabled = true;
  const BenchResult ref = baselines::run_composition(
      xkblas, 8192, 2048, /*sync_between_calls=*/false, cfg);
  EXPECT_TRUE(ref.check_ok);

  const WorkloadGraph g = composition_graph(8192, 2048);
  EXPECT_TRUE(g.grid_placement);
  const BenchResult r = run_workload(xkblas, g, cfg);
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_TRUE(r.check_ok) << r.check_report;

  EXPECT_EQ(r.event_hash, ref.event_hash);
  EXPECT_DOUBLE_EQ(r.seconds, ref.seconds);
  EXPECT_DOUBLE_EQ(r.tflops, ref.tflops);
}

// Same equivalence for the heuristic ablation: the bridge must not bake in
// any policy of its own.
TEST(Composition, BridgedReplayMatchesUnderTheAblationToo) {
  const ModelSpec blind =
      spec_for_library("xkblas", rt::HeuristicConfig::no_heuristic_no_topo());
  RunConfig cfg;
  cfg.check.enabled = true;
  const BenchResult ref = baselines::run_composition(
      blind, 8192, 2048, /*sync_between_calls=*/false, cfg);
  const WorkloadGraph g = composition_graph(8192, 2048);
  const BenchResult r = run_workload(blind, g, cfg);
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_EQ(r.event_hash, ref.event_hash);
  EXPECT_DOUBLE_EQ(r.seconds, ref.seconds);
}

}  // namespace
}  // namespace xkb::wl
