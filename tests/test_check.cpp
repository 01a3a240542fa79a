// Tests of xkb::check, the opt-in validation layer.
//
// Two halves: clean runs (the checker must stay silent on correct executions
// of every heuristic configuration -- a noisy checker is useless), and fault
// injection (each mutant class from the issue -- corrupted validity bit,
// skipped dependence edge, dropped completion event -- must be detected; a
// checker that cannot fail its mutants proves nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/library_model.hpp"
#include "runtime/runtime.hpp"

namespace xkb::rt {
namespace {

struct CheckedFixture {
  explicit CheckedFixture(check::Faults faults = {},
                          HeuristicConfig heur = HeuristicConfig::xkblas())
      : plat(make_platform()),
        runtime(plat, std::make_unique<OwnerComputesScheduler>(),
                make_options(heur, faults)) {}

  static Platform make_platform() {
    PlatformOptions po;
    po.functional = false;
    return Platform(topo::Topology::dgx1(), PerfModel{}, po);
  }
  static RuntimeOptions make_options(HeuristicConfig heur,
                                     check::Faults faults) {
    RuntimeOptions ro;
    ro.heuristics = heur;
    ro.check.enabled = true;
    ro.check.faults = faults;
    return ro;
  }

  mem::DataHandle* tile(void* origin, std::size_t n = 256) {
    return runtime.registry().intern(origin, n, n, n, sizeof(double));
  }

  TaskDesc touch(mem::DataHandle* h, Access mode, int dev) {
    TaskDesc d;
    d.label = "t";
    d.accesses.push_back({h, mode});
    d.flops = 1e9;
    d.min_dim = 1024;
    d.forced_device = dev;
    return d;
  }

  bool has_kind(check::ViolationKind k) const {
    const auto& v = runtime.checker()->violations();
    return std::any_of(v.begin(), v.end(),
                       [k](const check::Violation& x) { return x.kind == k; });
  }

  Platform plat;
  Runtime runtime;
};

double bufA[4], bufB[4];

TEST(Check, CleanRunIsViolationFree) {
  CheckedFixture f;
  mem::DataHandle* a = f.tile(bufA);
  mem::DataHandle* b = f.tile(bufB);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 1));   // D2D or fresh H2D
  f.runtime.submit(f.touch(a, Access::kR, 2));
  f.runtime.submit(f.touch(a, Access::kRW, 3));  // WAR + invalidations
  f.runtime.submit(f.touch(b, Access::kRW, 0));
  f.runtime.coherent_async(a);                   // D2H flush + host task
  f.runtime.run();
  const check::Checker* c = f.runtime.checker();
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->ok()) << c->report();
  EXPECT_EQ(c->total_violations(), 0u);
  EXPECT_TRUE(c->report().empty());
  // The hash folded real events, so it moved off the FNV offset basis.
  EXPECT_NE(c->event_hash(), 14695981039346656037ull);
}

TEST(Check, CleanUnderEveryHeuristicPreset) {
  for (const HeuristicConfig& heur :
       {HeuristicConfig::xkblas(), HeuristicConfig::no_heuristic(),
        HeuristicConfig::no_heuristic_no_topo()}) {
    CheckedFixture f({}, heur);
    mem::DataHandle* a = f.tile(bufA);
    for (int i = 0; i < 8; ++i)
      f.runtime.submit(f.touch(a, i % 3 == 0 ? Access::kRW : Access::kR,
                               i % f.runtime.num_gpus()));
    f.runtime.run();
    EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
  }
}

TEST(Check, CleanCheckedGemmThroughBaselines) {
  baselines::BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 4096;
  cfg.tile = 1024;
  cfg.check.enabled = true;
  auto model = baselines::make_xkblas(HeuristicConfig::xkblas());
  baselines::BenchResult res = model->run(cfg);
  ASSERT_TRUE(res.supported);
  ASSERT_FALSE(res.failed);
  EXPECT_TRUE(res.check_ok) << res.check_report;
  EXPECT_EQ(res.check_violations, 0u);
  EXPECT_NE(res.event_hash, 0u);
}

// Mutant 1: lose the dependence edge between a writer and a subsequent
// reader of the same tile.  Their kernels become unordered in the
// happens-before relation and the race detector must say so.
TEST(Check, SkippedDependenceEdgeIsReportedAsRace) {
  check::Faults faults;
  faults.skip_edge_pred = 1;  // task ids are assigned from 1 in submit order
  faults.skip_edge_succ = 2;
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 0));
  f.runtime.run();
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kRace))
      << f.runtime.checker()->report();
}

TEST(Check, SkippedWriteWriteEdgeIsReportedAsRace) {
  check::Faults faults;
  faults.skip_edge_pred = 1;
  faults.skip_edge_succ = 2;
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.run();
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kRace))
      << f.runtime.checker()->report();
}

// Mutant 2: swallow a completion event.  The successor never becomes ready
// and the progress auditor must dump it as stuck.
TEST(Check, DroppedCompletionIsReportedAsStuck) {
  check::Faults faults;
  faults.drop_completion_task = 1;
  CheckedFixture f(faults);
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.submit(f.touch(a, Access::kR, 1));  // depends on task 1
  f.runtime.run();
  // The runtime never observed the swallowed completion (nor, therefore,
  // its successor's): neither task counts as completed.
  EXPECT_EQ(f.runtime.tasks_completed(), 0u);
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kProgress))
      << f.runtime.checker()->report();
}

// Mutant 3: corrupt a replica's validity bit directly (a replica claims to
// be valid on a device that never received the data).  The next read on
// that device observes a version that is not the latest write.
TEST(Check, CorruptedValidityBitIsReportedAsCoherence) {
  CheckedFixture f;
  mem::DataHandle* a = f.tile(bufA);
  f.runtime.submit(f.touch(a, Access::kRW, 0));
  f.runtime.run();
  ASSERT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();

  a->dev[1].state = mem::ReplicaState::kValid;  // lie: GPU 1 has no bytes
  f.runtime.submit(f.touch(a, Access::kR, 1));
  f.runtime.run();
  EXPECT_FALSE(f.runtime.checker()->ok());
  EXPECT_TRUE(f.has_kind(check::ViolationKind::kCoherence))
      << f.runtime.checker()->report();
}

// The invariants between facts, fed reports a correct runtime never makes.
struct DirectChecker {
  DirectChecker() : reg(8), h(reg.intern(bufB, 4, 4, 4, sizeof(double))) {}
  check::Checker make(bool optimistic_d2d) const {
    check::CheckConfig cfg;
    cfg.enabled = true;
    return check::Checker(cfg, 8, SourcePolicy::kTopologyAware,
                          optimistic_d2d);
  }
  static bool has(const check::Checker& c, check::ViolationKind k,
                  const std::string& text) {
    for (const check::Violation& v : c.violations())
      if (v.kind == k && v.message.find(text) != std::string::npos)
        return true;
    return false;
  }
  mem::Registry reg;
  mem::DataHandle* h;
};

TEST(Check, ReceptionThatNeitherArrivesNorAbortsIsReported) {
  DirectChecker d;
  check::Checker c = d.make(true);
  check::StatsView st;
  st.h2d = 1;  // one reception issued, no arrival, no abort
  c.finalize(st);
  EXPECT_TRUE(DirectChecker::has(c, check::ViolationKind::kStats,
                                 "transfer ledger does not balance"))
      << c.report();
}

TEST(Check, OptimisticWaitUnderAnAblationIsReported) {
  DirectChecker d;
  check::Checker c = d.make(/*optimistic_d2d=*/false);
  check::StatsView st;
  st.optimistic_waits = 1;
  c.finalize(st);
  EXPECT_TRUE(DirectChecker::has(c, check::ViolationKind::kStats,
                                 "under an ablation configuration"))
      << c.report();
}

TEST(Check, AbortPastTheRetryCapIsReported) {
  DirectChecker d;
  check::Checker c = d.make(true);
  c.on_transfer_abort(trace::OpKind::kHtoD, d.h, -1, 0, /*attempts=*/4,
                      /*cap=*/3);
  EXPECT_TRUE(DirectChecker::has(c, check::ViolationKind::kCoherence,
                                 "unbounded retry"))
      << c.report();
}

}  // namespace
}  // namespace xkb::rt
