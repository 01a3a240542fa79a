// Tests of the xkb::fault layer: plan parsing, deterministic injection,
// degraded-topology re-routing, transient-transfer retry, waiter
// re-planning, device-failure recovery (remap / promote / replay), the
// watchdog, and the two recovery-equivalence properties the design
// promises:
//
//   1. a fault that heals before any transfer uses it leaves the observable
//      event stream -- and therefore the xkb::check hash -- bit-identical
//      to a fault-free run;
//   2. a permanently demoted link produces the same makespan as running on
//      a statically-degraded topology from the start.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/library_model.hpp"
#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "runtime/runtime.hpp"
#include "sim/watchdog.hpp"
#include "util/json.hpp"

namespace xkb::rt {
namespace {

// ---------------------------------------------------------------- plans --

TEST(FaultPlan, TextFormatRoundTrips) {
  const std::string text =
      "seed 77\n"
      "fail-prob 0.125\n"
      "brownout 0.001 0 1 0.25 0.002\n"
      "brownout 0.003 2 3 0.5\n"
      "link-down 0.004 0 4\n"
      "xfail 0.005 d2d 1 2\n"
      "xfail 0.006 h2d -1 3\n"
      "xfail 0.007 any -1 -1\n"
      "device-fail 0.01 5\n";
  const fault::FaultPlan p = fault::FaultPlan::parse(text);
  EXPECT_EQ(p.seed, 77u);
  EXPECT_DOUBLE_EQ(p.fail_prob, 0.125);
  ASSERT_EQ(p.events.size(), 7u);
  EXPECT_EQ(p.events[0].kind, fault::FaultKind::kBrownout);
  EXPECT_DOUBLE_EQ(p.events[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(p.events[0].duration, 0.002);
  EXPECT_EQ(p.events[3].kind, fault::FaultKind::kTransferFail);
  EXPECT_EQ(p.events[3].xfer, fault::TransferKind::kD2D);
  EXPECT_EQ(p.events[6].kind, fault::FaultKind::kDeviceFail);
  EXPECT_EQ(p.events[6].a, 5);
  // to_text -> parse is the identity on the parsed representation.
  const fault::FaultPlan q = fault::FaultPlan::parse(p.to_text());
  EXPECT_EQ(q.seed, p.seed);
  ASSERT_EQ(q.events.size(), p.events.size());
  for (std::size_t i = 0; i < p.events.size(); ++i) {
    EXPECT_EQ(q.events[i].kind, p.events[i].kind);
    EXPECT_DOUBLE_EQ(q.events[i].t, p.events[i].t);
    EXPECT_EQ(q.events[i].a, p.events[i].a);
    EXPECT_EQ(q.events[i].b, p.events[i].b);
  }
}

TEST(FaultPlan, MalformedInputNamesTheOffendingLine) {
  EXPECT_THROW(fault::FaultPlan::parse("brownout nope 0 1 0.5\n"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("frobnicate 1 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("xfail 0.1 warp 0 1\n"),
               std::invalid_argument);
  try {
    fault::FaultPlan::parse("seed 1\n\nlink-down 0.1 0\n");
    FAIL() << "short link-down accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// Endpoints may be .tpo device names instead of indices: the parser keeps
// the symbolic form (index -1 until arm time) and to_text round-trips it.
TEST(FaultPlan, NamedEndpointsParseAndRoundTrip) {
  const std::string text =
      "seed 5\n"
      "brownout 0.001 gpu0 gpu3 0.25\n"
      "link-down 0.002 gpu1 4\n"
      "xfail 0.005 d2d gpu1 gpu2\n"
      "device-fail 0.01 gpu5\n";
  const fault::FaultPlan p = fault::FaultPlan::parse(text);
  ASSERT_EQ(p.events.size(), 4u);
  EXPECT_EQ(p.events[0].a_name, "gpu0");
  EXPECT_EQ(p.events[0].b_name, "gpu3");
  EXPECT_EQ(p.events[0].a, -1);
  // Mixed name/index is fine; the index side stays numeric.
  EXPECT_EQ(p.events[1].a_name, "gpu1");
  EXPECT_TRUE(p.events[1].b_name.empty());
  EXPECT_EQ(p.events[1].b, 4);
  EXPECT_EQ(p.events[2].a_name, "gpu1");
  EXPECT_EQ(p.events[2].b_name, "gpu2");
  EXPECT_EQ(p.events[3].a_name, "gpu5");
  // to_text keeps the symbolic spelling, so parse(to_text(parse(x)))
  // is the identity on names too.
  const fault::FaultPlan q = fault::FaultPlan::parse(p.to_text());
  ASSERT_EQ(q.events.size(), p.events.size());
  for (std::size_t i = 0; i < p.events.size(); ++i) {
    EXPECT_EQ(q.events[i].a_name, p.events[i].a_name);
    EXPECT_EQ(q.events[i].b_name, p.events[i].b_name);
    EXPECT_EQ(q.events[i].a, p.events[i].a);
    EXPECT_EQ(q.events[i].b, p.events[i].b);
  }
  // A statically-same named pair is as malformed as "0 0".
  EXPECT_THROW(fault::FaultPlan::parse("link-down 0.1 gpu0 gpu0\n"),
               std::invalid_argument);
}

// ------------------------------------------------------------- fixtures --

baselines::BenchResult bench(Blas3 routine, bool dod,
                             const fault::FaultPlan& plan = {},
                             std::size_t n = 8192,
                             topo::Topology topo = topo::Topology::dgx1()) {
  baselines::BenchConfig cfg;
  cfg.routine = routine;
  cfg.n = n;
  cfg.tile = 2048;
  cfg.data_on_device = dod;
  cfg.topology = std::move(topo);
  cfg.check.enabled = true;
  cfg.fault_plan = plan;
  auto model = baselines::make_xkblas(HeuristicConfig::xkblas());
  return model->run(cfg);
}

// ----------------------------------------------------------- equivalence --

// Property 1: faults that heal before any transfer could use them are
// invisible.  The brownout sits on a link the workload has not touched yet
// (t before any work) and heals instantly; the xfail targets a d2h at time
// 0 when no flush is in flight and is never consumed (probabilistic stream
// off).  Observable stream must hash identically to the fault-free run.
TEST(FaultEquivalence, HealedBeforeUseIsBitIdenticalToFaultFree) {
  const baselines::BenchResult clean = bench(Blas3::kGemm, false);
  ASSERT_FALSE(clean.failed) << clean.error;
  ASSERT_TRUE(clean.check_ok) << clean.check_report;

  fault::FaultPlan plan;
  plan.seed = 9;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBrownout;
  e.t = 0.0;
  e.a = 0;
  e.b = 1;
  e.fraction = 0.01;
  e.duration = 1e-9;  // heals within the transfer latency floor
  plan.events.push_back(e);
  const baselines::BenchResult faulted = bench(Blas3::kGemm, false, plan);
  ASSERT_FALSE(faulted.failed) << faulted.error;
  EXPECT_TRUE(faulted.check_ok) << faulted.check_report;
  EXPECT_EQ(faulted.event_hash, clean.event_hash);
  EXPECT_DOUBLE_EQ(faulted.seconds, clean.seconds);
}

// Property 2: a link permanently demoted at t=0 behaves exactly like a
// topology that was built degraded: same makespan, same transfer counts.
TEST(FaultEquivalence, PermanentDemotionMatchesStaticallyDegradedTopology) {
  fault::FaultPlan plan;
  plan.seed = 3;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kLinkDown;
  e.t = 0.0;
  e.a = 0;
  e.b = 1;
  plan.events.push_back(e);
  e.a = 1;
  e.b = 0;
  plan.events.push_back(e);
  const baselines::BenchResult dynamic = bench(Blas3::kGemm, true, plan);
  ASSERT_FALSE(dynamic.failed) << dynamic.error;
  EXPECT_TRUE(dynamic.check_ok) << dynamic.check_report;

  topo::Topology degraded = topo::Topology::dgx1();
  degraded.demote_link(0, 1);
  degraded.demote_link(1, 0);
  const baselines::BenchResult statically =
      bench(Blas3::kGemm, true, {}, 8192, std::move(degraded));
  ASSERT_FALSE(statically.failed) << statically.error;
  EXPECT_DOUBLE_EQ(dynamic.seconds, statically.seconds);
  EXPECT_EQ(dynamic.transfers.d2d, statically.transfers.d2d);
  EXPECT_EQ(dynamic.transfers.h2d, statically.transfers.h2d);
}

// Named targets resolve against the armed machine's topology, so a plan
// written with .tpo device names is bit-identical to the same plan written
// with the indices those names resolve to.
TEST(FaultEquivalence, NamedTargetsHashIdenticalToIndexTargets) {
  const auto demotion_plan = [](const char* a, const char* b, const char* a2,
                                const char* b2) {
    std::ostringstream os;
    os << "seed 3\nlink-down 0 " << a << " " << b << "\nlink-down 0 " << a2
       << " " << b2 << "\n";
    return fault::FaultPlan::parse(os.str());
  };
  const baselines::BenchResult by_index =
      bench(Blas3::kGemm, true, demotion_plan("0", "1", "1", "0"));
  ASSERT_FALSE(by_index.failed) << by_index.error;
  const baselines::BenchResult by_name =
      bench(Blas3::kGemm, true, demotion_plan("gpu0", "gpu1", "gpu1", "gpu0"));
  ASSERT_FALSE(by_name.failed) << by_name.error;
  EXPECT_EQ(by_name.event_hash, by_index.event_hash);
  EXPECT_DOUBLE_EQ(by_name.seconds, by_index.seconds);
}

// A name the topology does not know fails at arm time (in the Runtime
// constructor) naming the offending device, not as a silent no-op.
TEST(FaultEffects, UnknownNamedDeviceIsDiagnosedAtArm) {
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("seed 1\nlink-down 0.001 gpu0 gpu99\n");
  PlatformOptions popt;
  popt.functional = false;
  Platform plat(topo::Topology::dgx1(), PerfModel{}, popt);
  fault::Injector inj(plan);
  plat.set_fault(&inj);
  try {
    Runtime runtime(plat, std::make_unique<OwnerComputesScheduler>(false),
                    RuntimeOptions{});
    FAIL() << "unknown device name accepted at arm";
  } catch (const fault::FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("gpu99"), std::string::npos)
        << e.what();
  }
}

// Fault mutations are graph-edge operations on the routed pair: demote
// steps down the link hierarchy, brownout scales bandwidth class-preserving,
// and restore_link heals both back to the nominal snapshot exactly.
TEST(TopologyFault, GraphEdgeDemoteBrownoutHealRoundTrip) {
  topo::Topology t = topo::Topology::dgx1();
  // Direct double-NVLink pair 0<->3.
  const auto cls0 = t.link_class(0, 3);
  const double bw0 = t.gpu_bandwidth_gbps(0, 3);
  const int rank0 = t.p2p_perf_rank(0, 3);
  ASSERT_EQ(cls0, topo::LinkClass::kNVLink2);

  t.scale_link_bandwidth(0, 3, 0.25);
  EXPECT_EQ(t.link_class(0, 3), cls0) << "brownout preserves class";
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 3), bw0 * 0.25);
  t.restore_link(0, 3);
  EXPECT_EQ(t.link_class(0, 3), cls0);
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 3), bw0);
  EXPECT_EQ(t.p2p_perf_rank(0, 3), rank0);

  EXPECT_EQ(t.demote_link(0, 3), topo::LinkClass::kNVLink1);
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 3), bw0 * 0.5);
  EXPECT_EQ(t.demote_link(0, 3), topo::LinkClass::kPCIeP2P)
      << "second demotion hits the PCIe floor";
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 3), t.pcie_fallback_gbps());
  EXPECT_EQ(t.demote_link(0, 3), topo::LinkClass::kPCIeP2P)
      << "PCIe is the floor; demotion saturates";
  t.restore_link(0, 3);
  EXPECT_EQ(t.link_class(0, 3), cls0);
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 3), bw0);
  EXPECT_EQ(t.p2p_perf_rank(0, 3), rank0);

  // Fabric pair 0<->6 (no direct NVLink on the DGX-1): mutation
  // materialises a sparse override entry, healing drops it again (the
  // nominal snapshot stays, so compare against the mutated size).
  const double fbw0 = t.gpu_bandwidth_gbps(0, 6);
  const std::size_t bytes0 = t.sparse_bytes();
  t.scale_link_bandwidth(0, 6, 0.5);
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 6), fbw0 * 0.5);
  const std::size_t bytes_mutated = t.sparse_bytes();
  EXPECT_GT(bytes_mutated, bytes0) << "fabric override materialised";
  t.restore_link(0, 6);
  EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(0, 6), fbw0);
  EXPECT_LT(t.sparse_bytes(), bytes_mutated) << "heal drops the override";
}

// A brownout that *is* used must slow the run down: same work, less
// bandwidth on a busy link, strictly more virtual time.
TEST(FaultEffects, UsedBrownoutSlowsTheRun) {
  const baselines::BenchResult clean = bench(Blas3::kGemm, false);
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBrownout;
  e.t = 0.0;
  e.fraction = 0.05;  // 5% of nominal for the whole run
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b)
      if (a != b) {
        e.a = a;
        e.b = b;
        plan.events.push_back(e);
      }
  const baselines::BenchResult slow = bench(Blas3::kGemm, false, plan);
  ASSERT_FALSE(slow.failed) << slow.error;
  EXPECT_TRUE(slow.check_ok) << slow.check_report;
  EXPECT_GT(slow.seconds, clean.seconds * 1.05);
  EXPECT_EQ(slow.tasks, clean.tasks);  // degraded, not dropped
}

// ------------------------------------------------------ transient faults --

TEST(FaultEffects, TransientTransferFailuresRetryAndComplete) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.fail_prob = 0.05;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kTransferFail;
  e.xfer = fault::TransferKind::kAny;
  for (double t : {0.0, 0.001, 0.002, 0.003}) {
    e.t = t;
    plan.events.push_back(e);
  }
  const baselines::BenchResult r = bench(Blas3::kGemm, false, plan);
  ASSERT_FALSE(r.failed) << r.error;
  EXPECT_TRUE(r.check_ok) << r.check_report;
  EXPECT_GT(r.transfers.transfer_aborts, 0u);
  EXPECT_EQ(r.transfers.transfer_retries, r.transfers.transfer_aborts);
}

// A certain-failure probability exhausts the retry budget and surfaces a
// diagnostic naming the cap, instead of looping forever.
TEST(FaultEffects, RetriesExhaustedIsDiagnosed) {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.fail_prob = 1.0;
  const baselines::BenchResult r = bench(Blas3::kGemm, false, plan);
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("retr"), std::string::npos) << r.error;
}

// A forced watchdog stall (dropped task completion + armed watchdog) must
// produce a flight-recorder dump: the last-N observable timeline, the stall
// reason, and a parseable ledger snapshot of the run state at death.
TEST(FaultEffects, WatchdogStallProducesAValidFlightDump) {
  baselines::BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 8192;
  cfg.tile = 2048;
  cfg.check.enabled = true;
  cfg.check.faults.drop_completion_task = 10;
  cfg.obs.enabled = true;
  cfg.fault_plan.seed = 42;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBrownout;
  e.t = 1.0;  // never reached; the plan only arms the watchdog
  e.a = 0;
  e.b = 1;
  e.fraction = 0.5;
  e.duration = 0.1;
  cfg.fault_plan.events.push_back(e);

  auto model = baselines::make_xkblas(HeuristicConfig::xkblas());
  const baselines::BenchResult r = model->run(cfg);
  ASSERT_TRUE(r.failed);
  EXPECT_NE(r.error.find("no observable progress"), std::string::npos)
      << r.error;
  ASSERT_FALSE(r.flight_json.empty());

  const util::JsonValue doc = util::json_parse(r.flight_json);
  EXPECT_EQ("xkb.obs.flight/1",
            doc.at("provenance").at("schema").as_string());
  EXPECT_FALSE(doc.at("timeline").as_array().empty());
  EXPECT_NE(doc.at("reason").as_string().find("watchdog-stall"),
            std::string::npos);
  // The embedded snapshot round-trips through the ledger parser.
  const obs::RunLedger snap = obs::ledger_from_json(doc.at("ledger"));
  EXPECT_EQ("GEMM", snap.meta.routine);
}

// -------------------------------------------------------- device failure --

// Low-level scenario: a task is bound to gpu1 while gpu1 dies; the task
// must remap to a live device and the run must complete with the checker
// clean.  The lost clean replica is reconstructed from the host copy.
struct FaultFixture {
  FaultFixture() : plat(make_platform()), runtime(make_runtime()) {}

  static Platform make_platform() {
    PlatformOptions po;
    po.functional = true;
    return Platform(topo::Topology::dgx1(), PerfModel{}, po);
  }
  Runtime make_runtime() {
    RuntimeOptions ro;
    ro.check.enabled = true;
    return Runtime(plat, std::make_unique<OwnerComputesScheduler>(), ro);
  }

  mem::DataHandle* tile(void* origin, std::size_t n = 8) {
    return runtime.registry().intern(origin, n, n, n, sizeof(double));
  }

  Platform plat;
  Runtime runtime;
};

double bufA[64], bufC[64];

TaskDesc work(mem::DataHandle* h, Access mode, int dev, const char* label) {
  TaskDesc d;
  d.label = label;
  d.accesses.push_back({h, mode});
  d.flops = 1e10;
  d.min_dim = 2048;
  d.forced_device = dev;
  return d;
}

TEST(DeviceFailure, QueuedTasksRemapAndRunCompletes) {
  FaultFixture f;
  mem::DataHandle* a = f.tile(bufA);
  // A chain on gpu1, with the failure injected (silently) before the chain
  // can finish.
  for (int i = 0; i < 4; ++i)
    f.runtime.submit(work(a, Access::kRW, 1, "chain"));
  f.plat.engine().schedule_silent_at(
      1e-6, [&f] { f.runtime.on_device_failure(1); });
  f.runtime.run();
  EXPECT_EQ(f.runtime.tasks_completed(), 4u);
  EXPECT_TRUE(f.plat.device_failed(1));
  EXPECT_GT(f.runtime.task_remaps() + f.runtime.task_replays(), 0u);
  ASSERT_NE(f.runtime.checker(), nullptr);
  EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
  // The surviving copy is authoritative somewhere alive.
  EXPECT_NE(a->dev[1].state, mem::ReplicaState::kValid);
}

TEST(DeviceFailure, LostDirtyReplicaIsRebuiltByReplay) {
  FaultFixture f;
  mem::DataHandle* a = f.tile(bufA);
  mem::DataHandle* c = f.tile(bufC);
  // Producer writes c on gpu1 (pure W: replayable); a consumer on gpu0
  // will need c *after* gpu1 died with the only (dirty) copy.
  f.runtime.submit(work(c, Access::kW, 1, "produce"));
  f.runtime.run();
  EXPECT_TRUE(c->dev[1].dirty);
  f.runtime.submit(work(a, Access::kW, 0, "warmup"));
  f.runtime.on_device_failure(1);
  TaskDesc consume = work(c, Access::kR, 0, "consume");
  f.runtime.submit(std::move(consume));
  f.runtime.run();
  EXPECT_GE(f.runtime.task_replays(), 1u);
  EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
  // The regenerated version is valid somewhere that is not gpu1.
  bool valid_elsewhere = c->host.state == mem::ReplicaState::kValid;
  for (int g = 0; g < 8; ++g)
    if (g != 1 && c->dev[g].state == mem::ReplicaState::kValid)
      valid_elsewhere = true;
  EXPECT_TRUE(valid_elsewhere);
}

TEST(DeviceFailure, UnreplayableDirtyLossIsPreciselyDiagnosed) {
  FaultFixture f;
  mem::DataHandle* c = f.tile(bufC);
  // kRW producer: the pre-image died with the replica, replay is unsound.
  f.runtime.submit(work(c, Access::kRW, 1, "accumulate"));
  f.runtime.run();
  EXPECT_TRUE(c->dev[1].dirty);
  try {
    f.runtime.on_device_failure(1);
    FAIL() << "kRW dirty loss was not diagnosed";
  } catch (const fault::UnrecoverableDataLoss& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("accumulate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in place"), std::string::npos) << msg;
  }
}

TEST(DeviceFailure, CleanReplicaPromotionKeepsSurvivorAuthoritative) {
  FaultFixture f;
  mem::DataHandle* a = f.tile(bufA);
  // Write on gpu1, then read on gpu2: gpu2 now holds a *clean* copy while
  // gpu1 holds the dirty one.  When gpu1 dies the survivor on gpu2 must be
  // promoted to authoritative (dirty), not dropped.
  f.runtime.submit(work(a, Access::kW, 1, "w"));
  f.runtime.submit(work(a, Access::kR, 2, "r"));
  f.runtime.run();
  ASSERT_EQ(a->dev[2].state, mem::ReplicaState::kValid);
  ASSERT_TRUE(a->dev[1].dirty);
  f.runtime.on_device_failure(1);
  EXPECT_EQ(a->dev[2].state, mem::ReplicaState::kValid);
  EXPECT_TRUE(a->dev[2].dirty);  // promoted
  EXPECT_EQ(f.runtime.task_replays(), 0u);  // no replay needed
  f.runtime.submit(work(a, Access::kR, 0, "after"));
  f.runtime.run();
  EXPECT_TRUE(f.runtime.checker()->ok()) << f.runtime.checker()->report();
}

// A writer killed mid-kernel is stamped twice: once on the dead device and
// once after the remap.  The second stamp must still join the clocks of the
// readers it is ordered after (and its submit-time snapshot), so both
// readers' records stay ordered before the write.  The kill instants sweep
// the writer's kernel on gpu1 as a fault-free probe run places it.
TEST(DeviceFailure, RemappedWriterStaysOrderedAfterItsReaders) {
  auto submit = [](FaultFixture& f) {
    mem::DataHandle* a = f.tile(bufA);
    f.runtime.submit(work(a, Access::kR, 2, "read2"));
    f.runtime.submit(work(a, Access::kR, 3, "read3"));
    f.runtime.submit(work(a, Access::kW, 1, "write"));
  };
  sim::Time start = -1, end = -1;
  {
    FaultFixture probe;
    submit(probe);
    probe.runtime.run();
    ASSERT_TRUE(probe.runtime.checker()->ok())
        << probe.runtime.checker()->report();
    for (const trace::Record& r : probe.plat.trace().records())
      if (r.kind == trace::OpKind::kKernel && r.device == 1) {
        start = r.start;
        end = r.end;
      }
  }
  ASSERT_LT(start, end) << "no writer kernel on gpu1";
  for (int i = 1; i < 16; ++i) {
    const sim::Time kill = start + (end - start) * i / 16.0;
    FaultFixture f;
    submit(f);
    f.plat.engine().schedule_silent_at(
        kill, [&f] { f.runtime.on_device_failure(1); });
    f.runtime.run();
    EXPECT_EQ(f.runtime.tasks_completed(), 3u) << "kill at " << kill;
    EXPECT_EQ(f.runtime.task_remaps(), 1u) << "kill at " << kill;
    EXPECT_TRUE(f.runtime.checker()->ok())
        << "kill at " << kill << "\n" << f.runtime.checker()->report();
  }
}

// End-to-end acceptance shape: an early device failure on a data-on-host
// GEMM (hundreds of chained optimistic receptions) re-plans every waiter
// whose source died and still completes with zero violations.
TEST(DeviceFailure, WaiterWhoseSourceDiesMidTransferReplansAndCompletes) {
  const baselines::BenchResult probe = bench(Blas3::kGemm, false);
  ASSERT_FALSE(probe.failed);
  bool hit = false;
  for (double frac : {0.02, 0.04, 0.06, 0.08, 0.10, 0.14, 0.18, 0.25}) {
    fault::FaultPlan plan;
    plan.seed = 42;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kDeviceFail;
    e.t = frac * probe.seconds;
    e.a = 1;
    plan.events.push_back(e);
    const baselines::BenchResult r = bench(Blas3::kGemm, false, plan);
    if (r.failed) continue;  // diagnosed loss: legal, try another instant
    EXPECT_TRUE(r.check_ok) << r.check_report;
    if (r.transfers.waiter_replans > 0) {
      hit = true;
      break;
    }
  }
  EXPECT_TRUE(hit) << "no instant caught a waiter mid-chain";
}

// ----------------------------------------------------------- slab walks --

// The Runtime keeps its task records in slab blocks of kTaskBlock.  Two
// scans walk every record in id order: the device-failure scan for
// in-flight work and the watchdog's stuck-task dump.  These runs submit
// more than three blocks of tasks, so both scans must cross blocks.
constexpr std::size_t kSpanTasks = 3 * Runtime::kTaskBlock + 40;
double slab_buf[64 * (kSpanTasks + 8)];

mem::DataHandle* slab_tile(Runtime& rt, std::size_t i, std::size_t n = 8) {
  return rt.registry().intern(slab_buf + 64 * i, n, n, n, sizeof(double));
}

TEST(SlabWalks, WatchdogDumpListsTheLowestUndoneTasksFirst) {
  Platform plat(topo::Topology::dgx1(), PerfModel{}, PlatformOptions{});
  fault::FaultPlan plan;  // one far-future event: it only arms the watchdog
  plan.seed = 42;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBrownout;
  e.t = 1.0;
  e.a = 0;
  e.b = 1;
  e.fraction = 0.5;
  e.duration = 0.1;
  plan.events.push_back(e);
  fault::Injector inj(plan);
  plat.set_fault(&inj);
  // The second block's 45th task never reports its completion, so every
  // later task, all reading its output, stays undone.
  const std::uint64_t dropped = Runtime::kTaskBlock + 45;
  RuntimeOptions ro;
  ro.check.enabled = true;
  ro.check.faults.drop_completion_task = dropped;
  Runtime rt(plat, std::make_unique<OwnerComputesScheduler>(), ro);
  mem::DataHandle* x = slab_tile(rt, kSpanTasks);
  for (std::uint64_t id = 1; id <= kSpanTasks; ++id) {
    TaskDesc d;
    d.label = id < dropped ? "own" : id == dropped ? "produce" : "read";
    d.accesses.push_back({id < dropped ? slab_tile(rt, id) : x,
                          id <= dropped ? Access::kW : Access::kR});
    d.flops = 1e9;
    d.min_dim = 8;
    rt.submit(std::move(d));
  }
  std::ostringstream want;
  // The dropped task itself counts as outstanding: its completion was lost.
  want << "no observable progress while " << kSpanTasks - dropped + 1
       << " tasks are outstanding; first stuck tasks:";
  for (std::uint64_t id = dropped + 1; id <= dropped + 8; ++id)
    want << "\n  task " << id
         << " 'read' dev -1 deps=1 operands_missing=0";
  want << "\n  ...";
  try {
    rt.run();
    FAIL() << "the stalled run finished";
  } catch (const fault::StuckProgress& stuck) {
    EXPECT_EQ(stuck.what(), want.str());
  }
}

/// Owner-computes placement that records the tasks it places while
/// `recording` is set.
struct RecordingScheduler : OwnerComputesScheduler {
  int place(const Task& t, Runtime& rt) override {
    if (recording) placed.push_back(t.id);
    return OwnerComputesScheduler::place(t, rt);
  }
  bool recording = false;
  std::vector<std::uint64_t> placed;
};

/// kSpanTasks tasks, each writing its own tile and reading one of 8 shared
/// tiles (so a lost tile's producer is replayable); every 64th output lives
/// on gpu1, the rest on the other devices.  A task's label is its id.
struct SlabSpan {
  static RuntimeOptions checked() {
    RuntimeOptions ro;
    ro.check.enabled = true;
    return ro;
  }
  SlabSpan()
      : plat(topo::Topology::dgx1(), PerfModel{}, PlatformOptions{}),
        rec(new RecordingScheduler),
        rt(plat, std::unique_ptr<Scheduler>(rec), checked()) {
    std::vector<mem::DataHandle*> shared;
    for (std::size_t i = 0; i < 8; ++i)
      shared.push_back(slab_tile(rt, kSpanTasks + i, 512));
    constexpr int kOthers[] = {0, 2, 3, 4, 5, 6, 7};
    for (std::size_t i = 0; i < kSpanTasks; ++i) {
      mem::DataHandle* out = slab_tile(rt, i, 512);
      out->home_device = i % 64 == 1 ? 1 : kOthers[i % 7];
      TaskDesc d;
      d.label = std::to_string(i + 1);
      d.accesses.push_back({out, Access::kW});
      d.accesses.push_back({shared[i % 8], Access::kR});
      d.flops = 2e9;
      d.min_dim = 512;
      rt.submit(std::move(d));
    }
  }
  Platform plat;
  RecordingScheduler* rec;  // owned by rt
  Runtime rt;
};

TEST(SlabWalks, MidRunDeviceFailureRemapsTheSameTasks) {
  // Kill gpu1 halfway through its first kernel from the third block on, so
  // the in-flight scan has work to find past the first two blocks.
  sim::Time kill = -1.0;
  {
    SlabSpan probe;
    probe.rt.run();
    for (const trace::Record& r : probe.plat.trace().records())
      if (r.kind == trace::OpKind::kKernel && r.device == 1 &&
          std::stoul(r.label) > 2 * Runtime::kTaskBlock) {
        kill = (r.start + r.end) / 2;
        break;
      }
  }
  ASSERT_GE(kill, 0.0) << "no kernel from the third block ran on gpu1";
  SlabSpan f;
  f.plat.engine().schedule_silent_at(kill, [&f] {
    f.rec->recording = true;
    f.rt.on_device_failure(1);
    f.rec->recording = false;
  });
  f.rt.run();
  EXPECT_EQ(f.rt.tasks_completed(), f.rt.tasks_submitted());
  EXPECT_TRUE(f.rt.checker()->ok()) << f.rt.checker()->report();
  // Recorded at a0e9a35, when the records were a vector of unique_ptr
  // walked in id order: ten producer replays first, then the fourteen
  // in-flight remaps, from the first, third and fourth blocks.
  const std::vector<std::uint64_t> want = {
      809, 810, 811, 812, 813, 814, 815, 816, 817, 818, 53,  54,
      55,  514, 578, 642, 706, 770, 799, 800, 801, 806, 807, 808};
  EXPECT_EQ(f.rec->placed, want);
  EXPECT_EQ(f.rt.task_remaps(), 14u);
}

// ---------------------------------------------------------------- misc --

TEST(Watchdog, FiresOnceWhenNoProgressHappens) {
  sim::Engine eng;
  int fired = 0;
  sim::Watchdog::Options wo;
  wo.interval = 1e-3;
  wo.stuck_ticks = 3;
  sim::Watchdog wd(
      eng, wo, [] { return std::uint64_t{7}; },
      [&fired](std::uint64_t pending) {
        fired++;
        EXPECT_EQ(pending, 7u);
      });
  wd.ensure_armed();
  eng.run();
  EXPECT_EQ(fired, 1);
  // No observable events: the watchdog is silent machinery.
  EXPECT_EQ(eng.observable_processed(), 0u);
}

// Regression: a long but legitimate idle gap -- work outstanding, and an
// observable event already scheduled far past the stuck horizon -- must
// not read as a stall.  The service layer's arrival gaps hit exactly
// this: the next submission may be many stuck-windows away, yet its
// pending event proves the simulation is waiting, not wedged.
TEST(Watchdog, StaysQuietAcrossLegitimateIdleGaps) {
  sim::Engine eng;
  int fired = 0;
  std::uint64_t outstanding = 1;
  sim::Watchdog::Options wo;
  wo.interval = 1e-3;
  wo.stuck_ticks = 3;
  sim::Watchdog wd(
      eng, wo, [&outstanding] { return outstanding; },
      [&fired](std::uint64_t) { fired++; });
  wd.ensure_armed();
  // 500 stuck-windows of silence before the "arrival" completes the work.
  eng.schedule_at(1.5, [&outstanding] { outstanding = 0; });
  eng.run();
  EXPECT_EQ(fired, 0);
}

// The complement: once nothing observable is pending, the same quiet
// stretch IS a stall -- no fresh grace period after the last real event.
TEST(Watchdog, FiresWhenQuietWithNothingObservablePending) {
  sim::Engine eng;
  int fired = 0;
  sim::Watchdog::Options wo;
  wo.interval = 1e-3;
  wo.stuck_ticks = 3;
  sim::Watchdog wd(
      eng, wo, [] { return std::uint64_t{1}; },
      [&fired](std::uint64_t) { fired++; });
  wd.ensure_armed();
  eng.schedule_at(1e-4, [] {});  // real progress, then silence
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.observable_pending(), 0u);
}

TEST(Watchdog, DisarmsWhenWorkDrains) {
  sim::Engine eng;
  int fired = 0;
  std::uint64_t outstanding = 3;
  sim::Watchdog::Options wo;
  wo.interval = 1e-3;
  wo.stuck_ticks = 3;
  sim::Watchdog wd(
      eng, wo, [&outstanding] { return outstanding; },
      [&fired](std::uint64_t) { fired++; });
  wd.ensure_armed();
  eng.schedule_at(1.5e-3, [&outstanding] { outstanding = 0; });
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Options, NonsensicalRuntimeOptionsAreRejected) {
  PlatformOptions po;
  Platform plat(topo::Topology::dgx1(), PerfModel{}, po);
  RuntimeOptions bad;
  bad.prepare_window = 0;
  EXPECT_THROW(
      Runtime(plat, std::make_unique<OwnerComputesScheduler>(), bad),
      std::invalid_argument);
  bad = {};
  bad.task_overhead = -1e-6;
  EXPECT_THROW(
      Runtime(plat, std::make_unique<OwnerComputesScheduler>(), bad),
      std::invalid_argument);
}

TEST(Options, NonsensicalBenchConfigIsRejected) {
  baselines::BenchConfig cfg;
  cfg.tile = 0;
  EXPECT_THROW(baselines::make_xkblas(HeuristicConfig::xkblas())->run(cfg),
               std::invalid_argument);
  cfg = {};
  cfg.n = 1024;
  cfg.tile = 2048;  // tile > n
  EXPECT_THROW(baselines::make_xkblas(HeuristicConfig::xkblas())->run(cfg),
               std::invalid_argument);
}

TEST(Injector, UnconsumedTargetedFaultsAreSurfaced) {
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kTransferFail;
  e.t = 1e9;  // long after the run ends: nobody consumes it
  e.xfer = fault::TransferKind::kD2H;
  plan.events.push_back(e);
  const baselines::BenchResult r = bench(Blas3::kGemm, false, plan);
  ASSERT_FALSE(r.failed) << r.error;
  EXPECT_NE(r.fault_json.find("\"unconsumed_xfail\":1"), std::string::npos)
      << r.fault_json;
}

}  // namespace
}  // namespace xkb::rt
