// Tests of xkb::check, the opt-in validation layer.
//
// Two halves: clean runs (the checker must stay silent on correct executions
// of every heuristic configuration -- a noisy checker is useless), and fault
// injection (each mutant class from the issue -- corrupted validity bit,
// skipped dependence edge, dropped completion event -- must be detected; a
// checker that cannot fail its mutants proves nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
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
  // Both kernels share gpu0's FIFO, so the reader is stamped before the
  // writer finishes: the race surfaces on the write side.
  EXPECT_EQ(f.runtime.checker()->report(),
            "xkb::check found 1 violation(s):\n"
            "  [race] race: write of tile 1 by task 1 't' is not ordered "
            "after read by task 2 't'\n");
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
  check::Checker make(bool optimistic_d2d, bool coherence = true) const {
    check::CheckConfig cfg;
    cfg.enabled = true;
    cfg.coherence = coherence;
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

double tile_bufs[3][16];

/// Three more tiles in `d`'s registry, in ascending id order.
std::vector<mem::DataHandle*> three_tiles(DirectChecker& d) {
  std::vector<mem::DataHandle*> out;
  for (double* b : tile_bufs)
    out.push_back(d.reg.intern(b, 4, 4, 4, sizeof(double)));
  return out;
}

std::vector<std::string> messages(const check::Checker& c) {
  std::vector<std::string> out;
  for (const check::Violation& v : c.violations()) out.push_back(v.message);
  return out;
}

std::string pin_leak(const mem::DataHandle* h, int dev) {
  return "pin leak: tile " + std::to_string(h->id) + " on GPU " +
         std::to_string(dev) + " still has 1 pins after the run";
}

TEST(Check, FinalScanReportsTilesInIdOrder) {
  DirectChecker d;
  check::Checker c = d.make(true);
  const std::vector<mem::DataHandle*> t = three_tiles(d);
  for (auto it = t.rbegin(); it != t.rend(); ++it) {
    c.on_source_choice(*it, 2, trace::SourceKind::kHost, -1, false);
    (*it)->dev[2].pins = 1;
  }
  c.finalize(check::StatsView{});
  EXPECT_EQ(messages(c), (std::vector<std::string>{
                             pin_leak(t[0], 2), pin_leak(t[1], 2),
                             pin_leak(t[2], 2)}));
}

TEST(Check, UnresolvedRecoveriesPrecedeTheTileScan) {
  DirectChecker d;
  check::Checker c = d.make(true);
  const std::vector<mem::DataHandle*> t = three_tiles(d);
  c.on_source_choice(t[0], 0, trace::SourceKind::kHost, -1, false);
  t[0]->dev[0].pins = 1;
  c.on_device_failure(1);
  // The two higher tiles, highest first, had their only copy on GPU 1.
  t[2]->host.state = mem::ReplicaState::kInvalid;
  c.on_replica_lost(t[2], 1, /*was_dirty=*/true);
  t[1]->host.state = mem::ReplicaState::kInvalid;
  c.on_replica_lost(t[1], 1, /*was_dirty=*/false);
  c.finalize(check::StatsView{});
  auto unresolved = [](const mem::DataHandle* h, const char* how) {
    return "unresolved recovery: tile " + std::to_string(h->id) +
           " version 0 lost with " + how +
           " replica on failed GPU 1 and neither a surviving copy nor a"
           " replay restored it";
  };
  EXPECT_EQ(messages(c), (std::vector<std::string>{
                             unresolved(t[1], "clean"),
                             unresolved(t[2], "dirty"), pin_leak(t[0], 0)}));
}

// Race verdicts fed straight to the checker, one tile and one kernel per
// task.  Coherence is off: these reports bypass the DataManager, so the
// replica states they leave behind would trip the protocol checks.
struct RaceScript {
  void submit(std::uint64_t id, const char* label, Access mode,
              std::vector<std::uint64_t> preds = {}) {
    c.on_submit(id, label, {{d.h, mode}}, std::move(preds));
  }
  /// The task's kernel runs on `dev` over [t, t + 1], then it completes.
  void run(std::uint64_t id, int dev, double t) {
    c.on_kernel_issue(id, dev, t, t + 1);
    c.on_task_finish(id, dev, t + 1);
    c.on_task_complete(id, t + 1);
  }
  std::vector<std::string> races() const {
    std::vector<std::string> out;
    for (const check::Violation& v : c.violations()) {
      EXPECT_EQ(v.kind, check::ViolationKind::kRace) << v.message;
      out.push_back(v.message);
    }
    return out;
  }
  std::string write_after_read(std::uint64_t writer, const char* wlabel,
                               std::uint64_t reader,
                               const char* rlabel) const {
    return "race: write of tile " + std::to_string(d.h->id) + " by task " +
           std::to_string(writer) + " '" + wlabel +
           "' is not ordered after read by task " + std::to_string(reader) +
           " '" + rlabel + "'";
  }

  DirectChecker d;
  check::Checker c = d.make(/*optimistic_d2d=*/true, /*coherence=*/false);
};

TEST(Check, WriteNotOrderedAfterAReadNamesTheReader) {
  RaceScript s;
  s.submit(1, "reader", Access::kR);
  s.submit(2, "writer", Access::kW);  // no edge to the reader
  s.run(1, 0, 0.0);
  s.run(2, 1, 2.0);
  EXPECT_EQ(s.races(), std::vector<std::string>{
                           s.write_after_read(2, "writer", 1, "reader")});
}

TEST(Check, ReadNotOrderedAfterAWritePrintsBothClocks) {
  RaceScript s;
  s.submit(1, "writer", Access::kW);
  s.submit(2, "reader", Access::kR);  // no edge to the writer
  s.run(1, 0, 0.0);
  s.run(2, 3, 2.0);
  // Lane 0 is the host, lane 1 + g is gpu g's kernel FIFO.
  EXPECT_EQ(s.races(),
            std::vector<std::string>{
                "race: read of tile " + std::to_string(s.d.h->id) +
                " by task 2 'reader' is not ordered after write by task 1 "
                "'writer' (reader clock [0,0,0,0,1], writer clock [0,1])"});
}

TEST(Check, WriterOrderedAfterOneOfTwoReadersNamesTheOther) {
  RaceScript s;
  s.submit(1, "reader0", Access::kR);
  s.submit(2, "reader1", Access::kR);
  s.submit(3, "writer", Access::kW, {1});
  s.run(1, 0, 0.0);
  s.run(2, 1, 0.0);
  s.run(3, 2, 2.0);
  EXPECT_EQ(s.races(), std::vector<std::string>{
                           s.write_after_read(3, "writer", 2, "reader1")});
}

// The progress audit's exact text over ids with a gap: the stuck tasks in
// ascending id order, each with the incomplete predecessors it waits on (a
// never-submitted id is not one), then the wait-for cycle from the lowest
// stuck id.
TEST(Check, ProgressAuditNamesStuckTasksAndTheCycleInIdOrder) {
  RaceScript s;
  s.submit(1, "first", Access::kR, {5});
  s.submit(2, "second", Access::kR, {1});
  s.submit(5, "fifth", Access::kR, {4, 2});
  check::StatsView st;
  st.submitted = 3;
  s.c.finalize(st);
  EXPECT_EQ(messages(s.c),
            (std::vector<std::string>{
                "engine drained with 3 of 3 tasks incomplete (deadlock or "
                "dropped completion)\n"
                "  task 1 'first' waiting on [5]\n"
                "  task 2 'second' waiting on [1]\n"
                "  task 5 'fifth' waiting on [2]",
                "wait-for cycle detected: 1 -> 5 -> 2 -> 1"}));
}

TEST(Check, WriterOrderedAfterBothReadersIsClean) {
  RaceScript s;
  s.submit(1, "reader0", Access::kR);
  s.submit(2, "reader1", Access::kR);
  s.submit(3, "writer", Access::kW, {1, 2});
  s.run(1, 0, 0.0);
  s.run(2, 1, 0.0);
  s.run(3, 2, 2.0);
  EXPECT_TRUE(s.races().empty()) << s.c.report();
  EXPECT_TRUE(s.c.ok());
}

// The dense clock the sparse one must be indistinguishable from.
struct DenseClock {
  std::vector<std::uint64_t> c;
  std::uint64_t at(std::size_t l) const { return l < c.size() ? c[l] : 0; }
  void tick(std::size_t l) {
    if (l >= c.size()) c.resize(l + 1, 0);
    ++c[l];
  }
  void join(const DenseClock& o) {
    if (o.c.size() > c.size()) c.resize(o.c.size(), 0);
    for (std::size_t i = 0; i < o.c.size(); ++i) c[i] = std::max(c[i], o.c[i]);
  }
  bool leq(const DenseClock& o) const {
    for (std::size_t i = 0; i < c.size(); ++i)
      if (c[i] > o.at(i)) return false;
    return true;
  }
  std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < c.size(); ++i)
      s += (i ? "," : "") + std::to_string(c[i]);
    return s + "]";
  }
};

TEST(VectorClock, MatchesADenseReference) {
  std::mt19937_64 rng(20090615);
  constexpr std::size_t kLanes = 2049;  // 1 + 2 x 1024 devices
  constexpr std::size_t kClocks = 6;
  std::vector<check::VectorClock> sparse(kClocks);
  std::vector<DenseClock> dense(kClocks);
  // Recycled buffers come back through assign and absorb: a clock built in
  // one must never show an entry of the clock that held it before.
  check::VectorClock::Pool pool;
  // Mostly a handful of shared lanes so clocks overlap and order each
  // other; now and then any lane, up to the last one.
  auto lane = [&rng] {
    return rng() % 4 == 0 ? static_cast<std::size_t>(rng() % kLanes)
                          : static_cast<std::size_t>(rng() % 8 * 292);
  };
  std::size_t ordered = 0, unordered = 0, reused = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::size_t a = rng() % kClocks, b = rng() % kClocks;
    switch (rng() % 9) {
      case 0:
      case 1: {
        const std::size_t l = lane();
        sparse[a].tick(l);
        dense[a].tick(l);
        break;
      }
      case 2:
        sparse[a].join(sparse[b]);
        dense[a].join(dense[b]);
        break;
      case 3: {
        const bool leq = dense[a].leq(dense[b]);
        ASSERT_EQ(sparse[a].leq(sparse[b]), leq) << "step " << step;
        ++(leq ? ordered : unordered);
        break;
      }
      case 4: {
        const std::size_t l = lane();
        ASSERT_EQ(sparse[a].at(l), dense[a].at(l)) << "step " << step;
        break;
      }
      case 5:
        ASSERT_EQ(sparse[a].to_string(), dense[a].to_string())
            << "step " << step;
        if (rng() % 16 == 0) {
          sparse[a] = check::VectorClock{};
          dense[a] = DenseClock{};
        }
        break;
      case 6:
        sparse[a].recycle(pool);
        dense[a] = DenseClock{};
        ASSERT_EQ(sparse[a].to_string(), "[]") << "step " << step;
        break;
      case 7:
        if (a == b) break;
        if (pool.size() != 0) ++reused;
        sparse[a].assign(sparse[b], pool);
        dense[a] = dense[b];
        ASSERT_EQ(sparse[a].to_string(), dense[a].to_string())
            << "step " << step;
        break;
      case 8:
        if (a == b) break;
        sparse[a].absorb(sparse[b], pool);
        dense[a].join(dense[b]);
        dense[b] = DenseClock{};
        ASSERT_EQ(sparse[b].to_string(), "[]") << "step " << step;
        break;
    }
  }
  EXPECT_GT(ordered, 100u);
  EXPECT_GT(unordered, 100u);
  EXPECT_GT(reused, 100u);
}

}  // namespace
}  // namespace xkb::rt
