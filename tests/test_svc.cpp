// xkb::svc: the admission state machine's edge cases (zero-capacity
// queues, graphs over an attempt's address window, unservable deadlines,
// capped retry backoff, quotas, brownout hysteresis), graceful degradation under a device failure with every
// tenant resident, the .svt trace format, and per-policy bit-identical
// reruns of a seeded soak.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "runtime/runtime.hpp"
#include "svc/arrivals.hpp"
#include "svc/svc.hpp"
#include "topo/topology.hpp"
#include "workload/workload.hpp"

namespace xkb::svc {
namespace {

std::shared_ptr<const wl::WorkloadGraph> graph_of(const std::string& s) {
  return std::make_shared<const wl::WorkloadGraph>(
      wl::build(wl::WorkloadSpec::parse(s)));
}

// A kernel long enough to pin its run slot across every timeline the
// tests below build (hundreds of milliseconds of virtual time).
const char* kBlocker = "trivial:width=1,depth=1,flops=1e12";
// A kernel in the tens of microseconds: far below any test deadline.
const char* kQuick = "trivial:width=1,depth=1,flops=1e8";

rt::PlatformOptions plat_opts() {
  rt::PlatformOptions p;
  p.functional = false;
  return p;
}

struct Harness {
  rt::Platform plat;
  std::unique_ptr<fault::Injector> inj;
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<Service> service;

  explicit Harness(ServiceOptions opt = {},
                   const fault::FaultPlan& plan = {}, bool check = false)
      : plat(topo::Topology::dgx1(), rt::PerfModel{}, plat_opts()) {
    if (!plan.empty()) {
      inj = std::make_unique<fault::Injector>(plan);
      plat.set_fault(inj.get());
    }
    rt::RuntimeOptions ropt;
    ropt.check.enabled = check;
    runtime = std::make_unique<rt::Runtime>(
        plat, std::make_unique<rt::OwnerComputesScheduler>(), ropt);
    service = std::make_unique<Service>(*runtime, opt);
  }
};

// --- admission edge cases ------------------------------------------------

TEST(Admission, ZeroCapacityQueueAdmitsOnlyIntoAFreeSlot) {
  ServiceOptions opt;
  opt.max_running = 1;
  Harness h(opt);
  TenantSpec t;
  t.queue_cap = 0;
  const int id = h.service->add_tenant(t);

  const SubmitResult first =
      h.service->submit(id, JobSpec{"a", graph_of(kQuick), -1.0});
  EXPECT_TRUE(first.admitted);
  EXPECT_EQ(h.service->running(), 1u);

  // The slot is taken and the queue can hold nothing: shed.
  const SubmitResult second =
      h.service->submit(id, JobSpec{"b", graph_of(kQuick), -1.0});
  EXPECT_FALSE(second.admitted);
  EXPECT_FALSE(second.dead_letter);
  EXPECT_EQ(second.reason, Reject::kQueueFull);
  EXPECT_EQ(h.service->tenant_stats(id).rejected_queue_full, 1u);

  h.service->drain();
  EXPECT_EQ(h.service->stats().completed, 1u);
  EXPECT_EQ(h.service->in_system(), 0u);
}

TEST(Admission, QuotaBoundsATenantsJobsInSystem) {
  ServiceOptions opt;
  opt.max_running = 1;
  Harness h(opt);
  TenantSpec t;
  t.queue_cap = 16;
  t.max_in_system = 2;
  const int id = h.service->add_tenant(t);

  EXPECT_TRUE(h.service->submit(id, {"a", graph_of(kQuick), -1.0}).admitted);
  EXPECT_TRUE(h.service->submit(id, {"b", graph_of(kQuick), -1.0}).admitted);
  const SubmitResult r = h.service->submit(id, {"c", graph_of(kQuick), -1.0});
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.reason, Reject::kQuotaExceeded);
  EXPECT_EQ(h.service->tenant_stats(id).rejected_quota, 1u);
  h.service->drain();
  EXPECT_EQ(h.service->stats().completed, 2u);
}

TEST(Admission, GraphOverTheAddressWindowDeadLettersOnSubmit) {
  // 300 x 2 tiles: more than the 256 an attempt's address window holds.
  const auto big = graph_of("stencil_1d:width=300,depth=1");
  ASSERT_EQ(big->tiles.size(), 600u);
  Harness h;  // 4 run slots
  const int id = h.service->add_tenant({});

  ASSERT_TRUE(h.service->submit(id, {"first", graph_of(kQuick), -1.0})
                  .admitted);
  // A run slot is free.
  const SubmitResult free_slot = h.service->submit(id, {"big-free", big, -1.0});
  EXPECT_FALSE(free_slot.admitted);
  EXPECT_TRUE(free_slot.dead_letter);
  // Every run slot is taken, so the job would queue.
  for (const char* name : {"b1", "b2", "b3"})
    ASSERT_TRUE(
        h.service->submit(id, {name, graph_of(kBlocker), -1.0}).admitted);
  ASSERT_EQ(h.service->running(), 4u);
  const SubmitResult queued = h.service->submit(id, {"big-queued", big, -1.0});
  EXPECT_FALSE(queued.admitted);
  EXPECT_TRUE(queued.dead_letter);
  ASSERT_TRUE(h.service->submit(id, {"last", graph_of(kQuick), -1.0})
                  .admitted);
  EXPECT_EQ(h.service->queued(), 1u);

  h.service->drain();
  const ServiceStats& st = h.service->stats();
  EXPECT_EQ(st.submitted, 7u);
  EXPECT_EQ(st.admitted, 5u);
  EXPECT_EQ(st.completed, 5u);
  EXPECT_EQ(st.dead_letters, 2u);
  EXPECT_EQ(h.service->in_system(), 0u);
  ASSERT_EQ(h.service->records().size(), 7u);
  for (const JobRecord& rec : h.service->records()) {
    if (rec.name.rfind("big-", 0) != 0) {
      EXPECT_EQ(rec.state, JobState::kCompleted) << rec.name;
      continue;
    }
    EXPECT_EQ(rec.state, JobState::kDeadLetter) << rec.name;
    EXPECT_EQ(rec.attempts, 0) << rec.name;
    EXPECT_EQ(rec.started, -1.0) << rec.name;
    EXPECT_NE(rec.reason.find("600 tiles"), std::string::npos) << rec.reason;
    EXPECT_NE(rec.reason.find("256-tile address window"), std::string::npos)
        << rec.reason;
  }
}

TEST(Admission, UnknownTenantThrows) {
  Harness h;
  EXPECT_THROW(h.service->submit(3, {"x", graph_of(kQuick), -1.0}),
               std::exception);
}

// --- deadlines and the retry ladder --------------------------------------

TEST(Deadlines, BelowMinimumServiceDeadLettersImmediately) {
  Harness h;
  const int id = h.service->add_tenant({});
  // No queue wait or backoff schedule can make a 1ns budget feasible:
  // the graph's longest kernel alone exceeds it.
  const SubmitResult r =
      h.service->submit(id, JobSpec{"doomed", graph_of(kQuick), 1e-9});
  EXPECT_FALSE(r.admitted);
  EXPECT_TRUE(r.dead_letter);
  ASSERT_EQ(h.service->records().size(), 1u);
  const JobRecord& rec = h.service->records()[0];
  EXPECT_EQ(rec.state, JobState::kDeadLetter);
  EXPECT_EQ(rec.started, -1.0);  // never launched
  EXPECT_NE(rec.reason.find("minimum service time"), std::string::npos);
  EXPECT_EQ(h.service->stats().dead_letters, 1u);
  EXPECT_EQ(h.service->in_system(), 0u);
  h.service->drain();  // nothing outstanding; must return cleanly
}

TEST(Deadlines, QueueExpiryRetriesWithCappedBackoffThenDeadLetters) {
  ServiceOptions opt;
  opt.max_running = 1;
  opt.max_retries = 3;
  opt.backoff_base = 1e-3;
  opt.backoff_cap = 2e-3;
  Harness h(opt);
  const int id = h.service->add_tenant({});

  ASSERT_TRUE(h.service->submit(id, {"blocker", graph_of(kBlocker), -1.0})
                  .admitted);
  const double D = 5e-3;
  ASSERT_TRUE(
      h.service->submit(id, JobSpec{"victim", graph_of(kQuick), D}).admitted);
  h.service->drain();

  ASSERT_EQ(h.service->records().size(), 2u);
  // Records append in completion order: the victim dead-letters while the
  // blocker still runs.
  const JobRecord& victim = h.service->records()[0];
  EXPECT_EQ(victim.name, "victim");
  EXPECT_EQ(victim.state, JobState::kDeadLetter);
  EXPECT_EQ(victim.attempts, 4);  // 1 + max_retries
  EXPECT_EQ(h.service->stats().retries, 3u);
  EXPECT_EQ(h.service->stats().expired, 4u);
  // Each attempt expires after D in the queue; retry k waits
  // min(base * 2^(k-1), cap): 1ms, 2ms, then 4ms CAPPED to 2ms.
  double expect = 0.0;
  const double backoffs[] = {1e-3, 2e-3, 2e-3};
  for (int a = 0; a < 3; ++a) expect = expect + D + backoffs[a];
  expect += D;  // the final, fatal expiry
  EXPECT_NEAR(victim.finished, expect, 1e-12);
  EXPECT_EQ(h.service->records()[1].state, JobState::kCompleted);
  EXPECT_EQ(h.service->in_system(), 0u);
}

// --- brownout hysteresis -------------------------------------------------

TEST(Brownout, ShedsOnlyBelowFloorPriorityAndExitsOnDrain) {
  ServiceOptions opt;
  opt.max_running = 1;
  opt.global_queue_cap = 8;  // enter at >= 6 queued, exit at <= 4
  opt.brownout_high_water = 0.75;
  opt.brownout_low_water = 0.5;
  opt.brownout_priority_floor = 1;
  Harness h(opt);
  TenantSpec lo;
  lo.name = "lo";
  lo.priority = 0;
  lo.queue_cap = 32;
  TenantSpec hi;
  hi.name = "hi";
  hi.priority = 1;
  hi.queue_cap = 32;
  const int lo_id = h.service->add_tenant(lo);
  const int hi_id = h.service->add_tenant(hi);

  ASSERT_TRUE(h.service->submit(hi_id, {"blocker", graph_of(kBlocker), -1.0})
                  .admitted);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(h.service
                    ->submit(lo_id, {"lo" + std::to_string(i),
                                     graph_of(kQuick), -1.0})
                    .admitted);
  EXPECT_TRUE(h.service->brownout());
  EXPECT_EQ(h.service->stats().brownout_enters, 1u);

  // In brownout the floor gates admission by priority, not by tenant.
  const SubmitResult shed =
      h.service->submit(lo_id, {"shed", graph_of(kQuick), -1.0});
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, Reject::kBrownout);
  EXPECT_TRUE(
      h.service->submit(hi_id, {"vip", graph_of(kQuick), -1.0}).admitted);

  h.service->drain();
  EXPECT_FALSE(h.service->brownout());
  EXPECT_EQ(h.service->stats().brownout_exits, 1u);
  EXPECT_EQ(h.service->stats().rejected_brownout, 1u);
  // Everything admitted still completed (shed load is the only casualty).
  EXPECT_EQ(h.service->stats().completed, h.service->stats().admitted);
}

// --- graceful degradation ------------------------------------------------

TEST(Degradation, DeviceFailureWithAllTenantsResidentStillDrains) {
  fault::FaultPlan plan;
  fault::FaultEvent kill;
  kill.kind = fault::FaultKind::kDeviceFail;
  kill.t = 1e-3;  // after launches spread across devices, before they end
  kill.a = 1;
  plan.events.push_back(kill);

  ServiceOptions opt;
  opt.max_running = 6;
  Harness h(opt, plan);
  const char* mix = "stencil_1d:width=4,depth=3,flops=1e9,bytes=1048576";
  std::vector<int> tenants;
  for (int t = 0; t < 3; ++t) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(t);
    tenants.push_back(h.service->add_tenant(spec));
  }
  for (int round = 0; round < 4; ++round)
    for (int t : tenants)
      ASSERT_TRUE(h.service
                      ->submit(t, {"j" + std::to_string(round),
                                   graph_of(mix), -1.0})
                      .admitted);

  h.service->drain();

  // The service survived: every admitted job reached a terminal state.
  EXPECT_EQ(h.service->in_system(), 0u);
  EXPECT_EQ(h.service->queued(), 0u);
  EXPECT_EQ(h.service->running(), 0u);
  const ServiceStats& s = h.service->stats();
  EXPECT_GT(s.completed, 0u);
  EXPECT_EQ(s.completed + s.dead_letters, h.service->records().size());
  for (const JobRecord& r : h.service->records())
    EXPECT_TRUE(r.state == JobState::kCompleted ||
                r.state == JobState::kDeadLetter);
  // The concurrency budget shrank with the blacklisted device: 6 * 7/8.
  EXPECT_EQ(h.service->effective_max_running(), 5);
  EXPECT_EQ(h.inj->counters().device_fails, 1u);
}

// --- .svt traces ---------------------------------------------------------

TEST(Trace, CanonicalTextIsAFixedPoint) {
  ArrivalTrace tr;
  tr.name = "unit";
  tr.seed = 7;
  TenantSpec t;
  t.name = "a";
  t.priority = 1;
  t.deadline = 0.25;
  tr.tenants.push_back(t);
  Arrival a;
  a.t = 0.5;
  a.tenant = 0;
  a.job = "a-j1";
  a.spec = "trivial:width=1,depth=1";
  tr.arrivals.push_back(a);
  const std::string once = tr.to_text();
  EXPECT_EQ(ArrivalTrace::parse(once).to_text(), once);
}

TEST(Trace, ErrorsNameTheLine) {
  const char* base =
      "service-trace t\n"
      "tenant a 0 1 8 16 0\n";
  EXPECT_THROW(ArrivalTrace::parse(std::string(base) + "frob 1 2\n"),
               std::invalid_argument);
  try {
    ArrivalTrace::parse(std::string(base) +
                        "arrive 1.0 0 j trivial:width=1,depth=1\n"
                        "arrive 0.5 0 k trivial:width=1,depth=1\n");
    FAIL() << "went back in time";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
  // Tenant rows are a header: they cannot appear mid-stream.
  EXPECT_THROW(ArrivalTrace::parse(std::string(base) +
                                   "arrive 1 0 j trivial:width=1,depth=1\n"
                                   "tenant b 0 1 8 16 0\n"),
               std::invalid_argument);
  // Workload specs are vetted at parse time, not at replay time.
  EXPECT_THROW(ArrivalTrace::parse(std::string(base) + "arrive 1 0 j frob\n"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalTrace::parse(std::string(base) +
                                   "arrive 1 0 j trivial:width=1 0.1 junk\n"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalTrace::parse("seed 3\n"), std::invalid_argument);
}

// validate() parses each distinct spec once: a bad spec after a thousand
// arrivals of one good spec still throws what its own parse throws.
TEST(Trace, ValidateNamesABadSpecAfterRepeatsOfAGoodOne) {
  ArrivalTrace tr;
  tr.tenants.push_back(TenantSpec{});
  Arrival a;
  a.spec = "stencil_1d:width=4,depth=3";
  for (int i = 0; i < 1000; ++i) {
    a.t = i * 1e-3;
    tr.arrivals.push_back(a);
  }
  a.spec = "stencil_1d:width=4,depth=x";
  tr.arrivals.push_back(a);
  std::string expected;
  try {
    (void)wl::WorkloadSpec::parse(a.spec);
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  try {
    tr.validate();
    FAIL() << "the bad spec passed validation";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), expected);
  }
}

TEST(Trace, PoissonStreamsAreIndependentOfTenantCount) {
  std::vector<TenantSpec> two(2), three(3);
  const ArrivalTrace a = poisson_trace(11, two, 1000.0, 80);
  const ArrivalTrace b = poisson_trace(11, three, 1000.0, 80);
  std::vector<double> ta, tb;
  for (const Arrival& x : a.arrivals)
    if (x.tenant == 0) ta.push_back(x.t);
  for (const Arrival& x : b.arrivals)
    if (x.tenant == 0) tb.push_back(x.t);
  const std::size_t n = std::min(ta.size(), tb.size());
  ASSERT_GT(n, 0u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ta[i], tb[i]);
}

// --- determinism ---------------------------------------------------------

std::string soak_digest(const ArrivalTrace& trace, Arbitration policy) {
  ServiceOptions opt;
  opt.arbitration = policy;
  Harness h(opt, {}, /*check=*/true);
  for (const TenantSpec& t : trace.tenants) h.service->add_tenant(t);
  std::map<std::string, std::shared_ptr<const wl::WorkloadGraph>> graphs;
  sim::Engine& eng = h.plat.engine();
  for (const Arrival& a : trace.arrivals) {
    auto& g = graphs[a.spec];
    if (!g) g = graph_of(a.spec);
    JobSpec js{a.job, g, a.deadline};
    eng.schedule_at(a.t, [svc = h.service.get(), t = a.tenant,
                          js = std::move(js)] { svc->submit(t, js); });
  }
  const double span = h.service->drain();
  std::ostringstream os;
  os.precision(17);
  os << span << "/" << h.runtime->checker()->event_hash();
  for (const JobRecord& r : h.service->records())
    os << "|" << r.id << "," << r.name << "," << to_string(r.state) << ","
       << r.arrival << "," << r.started << "," << r.finished << ","
       << r.attempts;
  const ServiceStats& s = h.service->stats();
  os << "|" << s.submitted << "," << s.admitted << "," << s.completed << ","
     << s.rejected_queue_full << "," << s.rejected_brownout << ","
     << s.retries << "," << s.dead_letters;
  EXPECT_TRUE(h.runtime->checker()->ok()) << h.runtime->checker()->report();
  return os.str();
}

TEST(Determinism, SeededSoakIsBitIdenticalPerPolicy) {
  std::vector<TenantSpec> tenants(3);
  for (int i = 0; i < 3; ++i) {
    tenants[i].name = "t" + std::to_string(i);
    tenants[i].priority = i;
    tenants[i].share = 1.0 + i;
    tenants[i].deadline = i == 2 ? 20e-3 : 0.0;
  }
  const ArrivalTrace trace = poisson_trace(42, tenants, 3000.0, 120);
  EXPECT_EQ(soak_digest(trace, Arbitration::kFairShare),
            soak_digest(trace, Arbitration::kFairShare));
  EXPECT_EQ(soak_digest(trace, Arbitration::kStrictPriority),
            soak_digest(trace, Arbitration::kStrictPriority));
}

}  // namespace
}  // namespace xkb::svc
