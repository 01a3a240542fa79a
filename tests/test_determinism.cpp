// Determinism regression: the discrete-event engine orders events by
// (time, insertion sequence), so two runs of the same configuration must
// produce bit-identical event streams.  The checker's FNV hash over the
// stream makes "identical" checkable in one comparison; TransferStats are
// compared field-by-field as a second, coarser witness.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/library_model.hpp"
#include "baselines/workload_entry.hpp"
#include "util/selfprof.hpp"

namespace xkb::baselines {
namespace {

struct Preset {
  const char* name;
  rt::HeuristicConfig heur;
};

std::vector<Preset> presets() {
  return {
      {"xkblas", rt::HeuristicConfig::xkblas()},
      {"no_heuristic", rt::HeuristicConfig::no_heuristic()},
      {"no_heuristic_no_topo", rt::HeuristicConfig::no_heuristic_no_topo()},
  };
}

BenchResult run_once(const rt::HeuristicConfig& heur, Blas3 routine,
                     const fault::FaultPlan& plan = {},
                     topo::Topology topo = topo::Topology::dgx1()) {
  BenchConfig cfg;
  cfg.routine = routine;
  cfg.n = 8192;
  cfg.tile = 2048;
  cfg.check.enabled = true;
  cfg.fault_plan = plan;
  cfg.topology = std::move(topo);
  auto model = make_xkblas(heur);
  BenchResult res = model->run(cfg);
  EXPECT_TRUE(res.supported);
  EXPECT_FALSE(res.failed) << res.error;
  return res;
}

void expect_identical(const BenchResult& a, const BenchResult& b,
                      const char* what) {
  EXPECT_EQ(a.event_hash, b.event_hash) << what;
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.tasks, b.tasks) << what;
  EXPECT_EQ(a.transfers.h2d, b.transfers.h2d) << what;
  EXPECT_EQ(a.transfers.d2h, b.transfers.d2h) << what;
  EXPECT_EQ(a.transfers.d2d, b.transfers.d2d) << what;
  EXPECT_EQ(a.transfers.optimistic_waits, b.transfers.optimistic_waits)
      << what;
  EXPECT_EQ(a.transfers.forced_waits, b.transfers.forced_waits) << what;
  EXPECT_EQ(a.transfers.evict_flushes, b.transfers.evict_flushes) << what;
  EXPECT_EQ(a.transfers.oom_deferrals, b.transfers.oom_deferrals) << what;
}

TEST(Determinism, GemmIsBitIdenticalAcrossRerunsForEveryPreset) {
  for (const Preset& p : presets()) {
    BenchResult a = run_once(p.heur, Blas3::kGemm);
    BenchResult b = run_once(p.heur, Blas3::kGemm);
    EXPECT_TRUE(a.check_ok) << p.name << ": " << a.check_report;
    expect_identical(a, b, p.name);
  }
}

TEST(Determinism, TrsmIsBitIdenticalAcrossRerunsForEveryPreset) {
  for (const Preset& p : presets()) {
    BenchResult a = run_once(p.heur, Blas3::kTrsm);
    BenchResult b = run_once(p.heur, Blas3::kTrsm);
    EXPECT_TRUE(a.check_ok) << p.name << ": " << a.check_report;
    expect_identical(a, b, p.name);
  }
}

// The committed presets/dgx1.tpo IS the machine: routing the text file
// must yield bit-identical event streams to the built-in builder across
// the full heuristic preset matrix, for both a GEMM and a TRSM shape.
// This is the tentpole safety net -- any drift between the .tpo language,
// the routing engine and the historical tables shows up here first.
TEST(Determinism, Dgx1TpoFileIsBitIdenticalToBuilderAcrossPresetMatrix) {
  const std::string path = std::string(XKB_PRESET_DIR) + "/dgx1.tpo";
  for (const Preset& p : presets()) {
    for (const Blas3 routine : {Blas3::kGemm, Blas3::kTrsm}) {
      BenchResult built = run_once(p.heur, routine);
      BenchResult filed = run_once(p.heur, routine, {},
                                   topo::Topology::from_tpo_file(path));
      EXPECT_TRUE(filed.check_ok) << p.name << ": " << filed.check_report;
      expect_identical(built, filed, p.name);
    }
  }
}

// Faulted determinism: a seeded fault plan (targeted aborts + probabilistic
// failures + a brownout) must reproduce the observable event stream bit for
// bit across reruns -- the xkb::fault design invariant that makes every
// chaos finding replayable from just (workload, plan).
TEST(Determinism, SeededFaultPlanIsBitIdenticalAcrossReruns) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed 1234\n"
      "fail-prob 0.03\n"
      "brownout 0.002 0 1 0.2 0.01\n"
      "xfail 0.001 any -1 -1\n"
      "xfail 0.004 d2d -1 -1\n");
  BenchResult a = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm, plan);
  BenchResult b = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm, plan);
  EXPECT_TRUE(a.check_ok) << a.check_report;
  EXPECT_GT(a.transfers.transfer_aborts, 0u);  // the plan actually bit
  expect_identical(a, b, "seeded-fault-plan");
  EXPECT_EQ(a.transfers.transfer_aborts, b.transfers.transfer_aborts);
  EXPECT_EQ(a.transfers.transfer_retries, b.transfers.transfer_retries);
}

// A different fault seed drives a different probabilistic failure stream,
// so the hashes must differ -- otherwise the seed would be vacuous.
TEST(Determinism, FaultSeedDistinguishesRuns) {
  fault::FaultPlan p1 = fault::FaultPlan::parse("seed 1\nfail-prob 0.05\n");
  fault::FaultPlan p2 = fault::FaultPlan::parse("seed 2\nfail-prob 0.05\n");
  BenchResult a = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm, p1);
  BenchResult b = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm, p2);
  EXPECT_NE(a.event_hash, b.event_hash);
}

// Generic workloads (xkb::wl) through the submission bridge: a seeded
// `random` and a `dnn` graph rerun must be bit-identical, for every
// heuristic preset and both placements -- the workload analogue of the BLAS
// reruns above.
BenchResult run_workload_once(const std::string& spec_text,
                              const rt::HeuristicConfig& heur, bool dod) {
  const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(spec_text));
  const ModelSpec spec = spec_for_library("xkblas", heur);
  RunConfig cfg;
  cfg.data_on_device = dod;
  cfg.check.enabled = true;
  BenchResult res = run_workload(spec, g, cfg);
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_TRUE(res.check_ok) << res.check_report;
  return res;
}

TEST(Determinism, SeededRandomWorkloadIsBitIdenticalAcrossReruns) {
  const std::string spec = "random:width=12,depth=10,seed=7,prob=0.2";
  for (const Preset& p : presets())
    for (const bool dod : {false, true}) {
      BenchResult a = run_workload_once(spec, p.heur, dod);
      BenchResult b = run_workload_once(spec, p.heur, dod);
      expect_identical(a, b, p.name);
    }
}

TEST(Determinism, DnnWorkloadIsBitIdenticalAcrossReruns) {
  const std::string spec = "dnn:width=8,depth=6,seed=11";
  for (const Preset& p : presets())
    for (const bool dod : {false, true}) {
      BenchResult a = run_workload_once(spec, p.heur, dod);
      BenchResult b = run_workload_once(spec, p.heur, dod);
      expect_identical(a, b, p.name);
    }
}

// A different master seed must drive a different random graph, hence a
// different event stream -- otherwise the seed would be vacuous.
TEST(Determinism, WorkloadSeedDistinguishesRuns) {
  BenchResult a = run_workload_once("random:width=12,depth=10,seed=1,prob=0.2",
                                    rt::HeuristicConfig::xkblas(), false);
  BenchResult b = run_workload_once("random:width=12,depth=10,seed=2,prob=0.2",
                                    rt::HeuristicConfig::xkblas(), false);
  EXPECT_NE(a.event_hash, b.event_hash);
}

// Differential gate for the calendar-queue engine: the full preset matrix
// (every heuristic preset x routine x placement), plus a seeded-fault run
// and a workload run, executed once on the reference binary-heap engine
// and once on the calendar queue, must produce bit-identical event hashes,
// makespans, transfer stats, and event counts.  This is the end-to-end
// witness that the queue swap changed the engine's speed and nothing else.
struct QueueImplGuard {
  sim::Engine::QueueImpl saved = sim::Engine::default_queue_impl();
  ~QueueImplGuard() { sim::Engine::set_default_queue_impl(saved); }
};

TEST(Determinism, CalendarEngineMatchesHeapEngineAcrossPresetMatrix) {
  QueueImplGuard guard;
  for (const Preset& p : presets())
    for (Blas3 routine : {Blas3::kGemm, Blas3::kTrsm, Blas3::kSyr2k})
      for (const bool dod : {false, true}) {
        BenchConfig cfg;
        cfg.routine = routine;
        cfg.n = 8192;
        cfg.tile = 2048;
        cfg.data_on_device = dod;
        cfg.check.enabled = true;
        sim::Engine::set_default_queue_impl(sim::Engine::QueueImpl::kHeap);
        const BenchResult a = make_xkblas(p.heur)->run(cfg);
        sim::Engine::set_default_queue_impl(sim::Engine::QueueImpl::kCalendar);
        const BenchResult b = make_xkblas(p.heur)->run(cfg);
        ASSERT_FALSE(a.failed) << a.error;
        ASSERT_FALSE(b.failed) << b.error;
        expect_identical(a, b, p.name);
        EXPECT_EQ(a.events_processed, b.events_processed) << p.name;
        EXPECT_EQ(a.events_observable, b.events_observable) << p.name;
      }
}

TEST(Determinism, CalendarEngineMatchesHeapEngineUnderFaultsAndWorkloads) {
  QueueImplGuard guard;
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed 1234\n"
      "fail-prob 0.03\n"
      "brownout 0.002 0 1 0.2 0.01\n"
      "xfail 0.001 any -1 -1\n");
  sim::Engine::set_default_queue_impl(sim::Engine::QueueImpl::kHeap);
  const BenchResult fa =
      run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm, plan);
  const BenchResult wa = run_workload_once("dnn:width=8,depth=6,seed=11",
                                           rt::HeuristicConfig::xkblas(), true);
  sim::Engine::set_default_queue_impl(sim::Engine::QueueImpl::kCalendar);
  const BenchResult fb =
      run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm, plan);
  const BenchResult wb = run_workload_once("dnn:width=8,depth=6,seed=11",
                                           rt::HeuristicConfig::xkblas(), true);
  EXPECT_GT(fa.transfers.transfer_aborts, 0u);  // the plan actually bit
  expect_identical(fa, fb, "heap-vs-calendar seeded-fault");
  EXPECT_EQ(fa.events_processed, fb.events_processed);
  expect_identical(wa, wb, "heap-vs-calendar dnn workload");
  EXPECT_EQ(wa.events_processed, wb.events_processed);
}

// The tools and Fig. 9 take their traces from obs-enabled runs, so
// attaching obs must not change the run: for every heuristic preset, a
// GEMM with data on host, a SYR2K with data on device, and a workload in
// both scenarios replay the same event stream, makespan and transfers
// checked with and without obs.
TEST(Determinism, ObsAttachDoesNotPerturbTheRun) {
  const wl::WorkloadGraph g =
      wl::build(wl::WorkloadSpec::parse("stencil_1d:width=8,depth=4"));
  for (const Preset& p : presets()) {
    const ModelSpec spec = spec_for_library("xkblas", p.heur);
    for (const auto& [routine, dod] :
         {std::pair{Blas3::kGemm, false}, std::pair{Blas3::kSyr2k, true}}) {
      BenchConfig cfg;
      cfg.routine = routine;
      cfg.n = 8192;
      cfg.tile = 2048;
      cfg.data_on_device = dod;
      cfg.check.enabled = true;
      const BenchResult off = LibraryModel(spec).run(cfg);
      cfg.obs.enabled = true;
      const BenchResult on = LibraryModel(spec).run(cfg);
      EXPECT_TRUE(on.check_ok) << p.name << ": " << on.check_report;
      expect_identical(off, on, p.name);
    }
    for (const bool dod : {false, true}) {
      RunConfig cfg;
      cfg.data_on_device = dod;
      cfg.check.enabled = true;
      const BenchResult off = run_workload(spec, g, cfg);
      cfg.obs.enabled = true;
      const BenchResult on = run_workload(spec, g, cfg);
      EXPECT_TRUE(on.check_ok) << p.name << ": " << on.check_report;
      expect_identical(off, on, p.name);
    }
  }
}

// Different presets drive different transfer schedules, so their event
// streams should differ -- if every configuration hashed to the same value
// the hash would be vacuous.
TEST(Determinism, HashDistinguishesHeuristicConfigurations) {
  BenchResult on = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm);
  BenchResult off =
      run_once(rt::HeuristicConfig::no_heuristic_no_topo(), Blas3::kGemm);
  EXPECT_NE(on.event_hash, off.event_hash);
}

// The host self-profiler reads wall clock on hot paths but must never feed
// virtual time: a run with the profiler attached has to replay the exact
// same event stream as one without it.
TEST(Determinism, SelfProfilerAttachDoesNotPerturbTheEventStream) {
  BenchResult off = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm);
  prof::SelfProfiler sp;
  prof::SelfProfiler::activate(&sp);
  BenchResult on = run_once(rt::HeuristicConfig::xkblas(), Blas3::kGemm);
  prof::SelfProfiler::activate(nullptr);
  expect_identical(off, on, "selfprof-attach");
  // The profiler did observe the run it was attached to.
  const std::string table = sp.table_text();
  EXPECT_NE(std::string::npos, table.find("engine.run"));
  EXPECT_NE(std::string::npos, table.find("dm.fetch"));
}

}  // namespace
}  // namespace xkb::baselines
