// Tests of the data-flow runtime: dependency derivation, execution on the
// simulated platform, the DataManager's coherence protocol, and -- most
// importantly -- the behaviour of the paper's two heuristics, observed
// through transfer statistics on crafted scenarios.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace xkb::rt {
namespace {

struct Fixture {
  explicit Fixture(HeuristicConfig heur = HeuristicConfig::xkblas(),
                   bool functional = true,
                   topo::Topology topo = topo::Topology::dgx1(),
                   std::size_t capacity = 32ull << 30)
      : plat(make_platform(std::move(topo), functional, capacity)),
        runtime(plat, std::make_unique<OwnerComputesScheduler>(),
                make_options(heur)) {}

  static Platform make_platform(topo::Topology t, bool functional,
                                std::size_t cap) {
    PlatformOptions po;
    po.functional = functional;
    po.device_capacity = cap;
    return Platform(std::move(t), PerfModel{}, po);
  }
  static RuntimeOptions make_options(HeuristicConfig heur) {
    RuntimeOptions ro;
    ro.heuristics = heur;
    return ro;
  }

  mem::DataHandle* tile(void* origin, std::size_t n = 8) {
    return runtime.registry().intern(origin, n, n, n, sizeof(double));
  }

  Platform plat;
  Runtime runtime;
};

double bufA[64], bufB[64];
[[maybe_unused]] double bufC[64];

TaskDesc touch_task(mem::DataHandle* h, Access mode, int dev = -1,
                    std::vector<int>* log = nullptr, int id = 0) {
  TaskDesc d;
  d.label = "t" + std::to_string(id);
  d.accesses.push_back({h, mode});
  d.flops = 1e9;
  d.min_dim = 1024;
  d.forced_device = dev;
  if (log)
    d.fn = [log, id](const FunctionalCtx&) { log->push_back(id); };
  return d;
}

TEST(RuntimeDeps, ReadersWaitForWriter) {
  Fixture f;
  std::vector<int> log;
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kRW, 0, &log, 1));
  f.runtime.submit(touch_task(h, Access::kR, 1, &log, 2));
  f.runtime.submit(touch_task(h, Access::kR, 2, &log, 3));
  f.runtime.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 1);  // writer strictly first
}

TEST(RuntimeDeps, WriterWaitsForAllReaders) {
  Fixture f;
  std::vector<int> log;
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kR, 0, &log, 1));
  f.runtime.submit(touch_task(h, Access::kR, 1, &log, 2));
  f.runtime.submit(touch_task(h, Access::kRW, 2, &log, 3));
  f.runtime.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2], 3);  // WAR: writer last
}

TEST(RuntimeDeps, WawChainInOrder) {
  Fixture f;
  std::vector<int> log;
  mem::DataHandle* h = f.tile(bufA);
  for (int i = 1; i <= 4; ++i)
    f.runtime.submit(touch_task(h, Access::kRW, i % 2, &log, i));
  f.runtime.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(RuntimeDeps, IndependentHandlesRunConcurrently) {
  Fixture f;
  mem::DataHandle* a = f.tile(bufA);
  mem::DataHandle* b = f.tile(bufB);
  f.runtime.submit(touch_task(a, Access::kRW, 0));
  f.runtime.submit(touch_task(b, Access::kRW, 1));
  f.runtime.run();
  // Both kernels overlap in virtual time: makespan < 2 kernel times.
  const auto& recs = f.plat.trace().records();
  double kernel_total = 0, span = 0;
  for (const auto& r : recs)
    if (r.kind == trace::OpKind::kKernel) {
      kernel_total += r.end - r.start;
      span = std::max(span, r.end);
    }
  EXPECT_LT(span, kernel_total);
}

TEST(Coherence, WriteInvalidatesHostAndPeers) {
  Fixture f;
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kR, 0));   // replicate on GPU 0
  f.runtime.submit(touch_task(h, Access::kR, 1));   // ... and GPU 1
  f.runtime.submit(touch_task(h, Access::kRW, 2));  // then write on GPU 2
  f.runtime.run();
  EXPECT_EQ(h->host.state, mem::ReplicaState::kInvalid);
  EXPECT_EQ(h->dev[0].state, mem::ReplicaState::kInvalid);
  EXPECT_EQ(h->dev[1].state, mem::ReplicaState::kInvalid);
  EXPECT_EQ(h->dev[2].state, mem::ReplicaState::kValid);
  EXPECT_TRUE(h->dev[2].dirty);
  EXPECT_EQ(h->dirty_device(), 2);
}

TEST(Coherence, CoherentRestoresHost) {
  Fixture f;
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kRW, 3));
  f.runtime.coherent_async(h);
  f.runtime.run();
  EXPECT_EQ(h->host.state, mem::ReplicaState::kValid);
  EXPECT_FALSE(h->dev[3].dirty) << "device and host copies now coherent";
  EXPECT_EQ(f.runtime.data_manager().stats().d2h, 1u);
}

TEST(Coherence, CoherentOnCleanDataIsFree) {
  Fixture f;
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.coherent_async(h);
  f.runtime.run();
  EXPECT_EQ(f.runtime.data_manager().stats().d2h, 0u);
}

TEST(Coherence, FunctionalBytesTravel) {
  // Write a value on one GPU, read it on another, flush to host: the bytes
  // must actually move through the simulated memories.
  Fixture f;
  Matrix<double> m(8, 8, 0.0);
  mem::DataHandle* h = f.tile(m.data());
  TaskDesc w = touch_task(h, Access::kRW, 0);
  w.fn = [](const FunctionalCtx& ctx) {
    static_cast<double*>(ctx.ptr(0))[5] = 42.0;
  };
  f.runtime.submit(std::move(w));
  double seen = 0.0;
  TaskDesc r = touch_task(h, Access::kR, 7);
  r.fn = [&seen](const FunctionalCtx& ctx) {
    seen = static_cast<const double*>(ctx.ptr(0))[5];
  };
  f.runtime.submit(std::move(r));
  f.runtime.coherent_async(h);
  f.runtime.run();
  EXPECT_EQ(seen, 42.0) << "device-to-device copy carried the payload";
  EXPECT_EQ(m.data()[5], 42.0) << "flush wrote back to the host view";
}

// ---- the paper's heuristics, observed through transfer counters ----

TEST(Heuristics, OptimisticAvoidsDuplicateH2D) {
  // Eight tasks on eight GPUs all read the same host tile at once.  With the
  // optimistic heuristic one H2D feeds seven chained D2D forwards; without
  // it every GPU pulls its own copy over PCIe.
  Fixture opt{HeuristicConfig::xkblas(), false};
  mem::DataHandle* h = opt.tile(bufA);
  for (int g = 0; g < 8; ++g)
    opt.runtime.submit(touch_task(h, Access::kR, g));
  opt.runtime.run();
  EXPECT_EQ(opt.runtime.data_manager().stats().h2d, 1u);
  EXPECT_EQ(opt.runtime.data_manager().stats().d2d, 7u);
  EXPECT_GE(opt.runtime.data_manager().stats().optimistic_waits, 1u);

  Fixture off{HeuristicConfig::no_heuristic(), false};
  mem::DataHandle* h2 = off.tile(bufA);
  for (int g = 0; g < 8; ++g)
    off.runtime.submit(touch_task(h2, Access::kR, g));
  off.runtime.run();
  EXPECT_EQ(off.runtime.data_manager().stats().h2d, 8u)
      << "duplicate PCIe transfers without the optimistic heuristic";
  EXPECT_EQ(off.runtime.data_manager().stats().optimistic_waits, 0u);
}

TEST(Heuristics, TopologyAwarePicksBestLink) {
  // A tile is valid on GPU 1 (1 NVLink to GPU 0) and GPU 4 (2 NVLinks to
  // GPU 0); host also valid.  Topology-aware must forward from GPU 4.
  Fixture f{HeuristicConfig::no_heuristic(), false};  // topo on, optimistic off
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kR, 1));
  f.runtime.submit(touch_task(h, Access::kR, 4));
  f.runtime.run();
  f.runtime.submit(touch_task(h, Access::kR, 0));
  f.runtime.run();
  bool from4 = false;
  for (const auto& r : f.plat.trace().records())
    if (r.kind == trace::OpKind::kPtoP && r.device == 0)
      from4 = r.label.find("from 4") != std::string::npos;
  EXPECT_TRUE(from4) << "source must be the 2xNVLink peer";
}

TEST(Heuristics, NoTopoTakesFirstValidSource) {
  Fixture f{HeuristicConfig::no_heuristic_no_topo(), false};
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kR, 1));
  f.runtime.submit(touch_task(h, Access::kR, 4));
  f.runtime.run();
  f.runtime.submit(touch_task(h, Access::kR, 0));
  f.runtime.run();
  bool from1 = false;
  for (const auto& r : f.plat.trace().records())
    if (r.kind == trace::OpKind::kPtoP && r.device == 0)
      from1 = r.label.find("from 1") != std::string::npos;
  EXPECT_TRUE(from1) << "rank-blind policy takes the lowest-index source";
}

TEST(Heuristics, HostOnlyNeverUsesPeers) {
  Fixture f{{SourcePolicy::kHostOnly, false}, false};
  mem::DataHandle* h = f.tile(bufA);
  for (int g = 0; g < 4; ++g) {
    f.runtime.submit(touch_task(h, Access::kR, g));
    f.runtime.run();
  }
  EXPECT_EQ(f.runtime.data_manager().stats().d2d, 0u);
  EXPECT_EQ(f.runtime.data_manager().stats().h2d, 4u);
}

TEST(Heuristics, SwitchPeerOnlyWithinPcieSwitch) {
  Fixture f{{SourcePolicy::kSwitchPeer, false}, false};
  mem::DataHandle* h = f.tile(bufA);
  f.runtime.submit(touch_task(h, Access::kR, 0));
  f.runtime.run();
  // GPU 1 shares GPU 0's switch -> D2D; GPU 2 does not -> H2D.
  f.runtime.submit(touch_task(h, Access::kR, 1));
  f.runtime.run();
  EXPECT_EQ(f.runtime.data_manager().stats().d2d, 1u);
  f.runtime.submit(touch_task(h, Access::kR, 2));
  f.runtime.run();
  EXPECT_EQ(f.runtime.data_manager().stats().d2d, 1u);
  EXPECT_EQ(f.runtime.data_manager().stats().h2d, 2u);
}

TEST(Eviction, DirtyEvictionFlushesAndDataSurvives) {
  // Device capacity of one tile: writing two tiles on the same GPU evicts
  // the first (dirty -> flush to host); its data must survive.
  Fixture f{HeuristicConfig::xkblas(), true, topo::Topology::dgx1(),
            8 * 8 * sizeof(double)};
  Matrix<double> ma(8, 8, 0.0), mb(8, 8, 0.0);
  mem::DataHandle* a = f.tile(ma.data());
  mem::DataHandle* b = f.tile(mb.data());
  TaskDesc wa = touch_task(a, Access::kRW, 0);
  wa.fn = [](const FunctionalCtx& ctx) {
    static_cast<double*>(ctx.ptr(0))[0] = 1.0;
  };
  f.runtime.submit(std::move(wa));
  f.runtime.run();  // first tile written and unpinned
  TaskDesc wb = touch_task(b, Access::kRW, 0);
  wb.fn = [](const FunctionalCtx& ctx) {
    static_cast<double*>(ctx.ptr(0))[0] = 2.0;
  };
  f.runtime.submit(std::move(wb));
  f.runtime.coherent_async(a);
  f.runtime.coherent_async(b);
  f.runtime.run();
  EXPECT_EQ(ma.data()[0], 1.0);
  EXPECT_EQ(mb.data()[0], 2.0);
  EXPECT_GE(f.runtime.data_manager().stats().evict_flushes, 1u);
}

TEST(Stealing, IdleDevicesStealQueuedWork) {
  Fixture f{HeuristicConfig::xkblas(), false};
  // Many independent tasks all homed on GPU 0: stealing must spread them.
  std::vector<Matrix<double>> mats;
  mats.reserve(32);
  for (int i = 0; i < 32; ++i) mats.emplace_back(8, 8);
  for (int i = 0; i < 32; ++i) {
    mem::DataHandle* h = f.tile(mats[i].data());
    h->home_device = 0;
    f.runtime.submit(touch_task(h, Access::kRW));
  }
  f.runtime.run();
  EXPECT_GT(f.runtime.steals(), 0u);
  int devices_used = 0;
  for (int g = 0; g < 8; ++g)
    if (f.plat.kernel_busy(g) > 0) ++devices_used;
  EXPECT_GT(devices_used, 1);
}

TEST(Prefetch, DistributionPlacesReplicas) {
  Fixture f;
  mem::DataHandle* h = f.tile(bufA);
  TaskDesc d;
  d.label = "dist";
  d.accesses.push_back({h, Access::kR});
  d.forced_device = 5;
  f.runtime.submit(std::move(d));
  f.runtime.run();
  EXPECT_EQ(h->dev[5].state, mem::ReplicaState::kValid);
  EXPECT_EQ(h->host.state, mem::ReplicaState::kValid) << "read-only prefetch";
}

TEST(HostTasks, ConversionOccupiesHostWorker) {
  Fixture f;
  TaskDesc d;
  d.label = "conv";
  d.host_task = true;
  d.host_seconds = 0.25;
  f.runtime.submit(std::move(d));
  const double t = f.runtime.run();
  EXPECT_GE(t, 0.25);
}

TEST(Runtime, TaskOverheadExtendsKernels) {
  auto run_with_overhead = [](double ov) {
    PlatformOptions po;
    Platform plat(topo::Topology::dgx1(), PerfModel{}, po);
    RuntimeOptions ro;
    ro.task_overhead = ov;
    Runtime runtime(plat, std::make_unique<OwnerComputesScheduler>(), ro);
    mem::DataHandle* h =
        runtime.registry().intern(bufA, 8, 8, 8, sizeof(double));
    for (int i = 0; i < 10; ++i)
      runtime.submit(touch_task(h, Access::kRW, 0));
    return runtime.run();
  };
  EXPECT_GT(run_with_overhead(1e-3), run_with_overhead(0.0) + 9e-3);
}

TEST(Runtime, DropInputsForcesRefetch) {
  Fixture keep{{SourcePolicy::kHostOnly, false}, false};
  mem::DataHandle* h = keep.tile(bufA);
  for (int i = 0; i < 3; ++i) {
    keep.runtime.submit(touch_task(h, Access::kR, 0));
    keep.runtime.run();
  }
  EXPECT_EQ(keep.runtime.data_manager().stats().h2d, 1u) << "cached";

  PlatformOptions po;
  Platform plat(topo::Topology::dgx1(), PerfModel{}, po);
  RuntimeOptions ro;
  ro.heuristics = {SourcePolicy::kHostOnly, false};
  ro.drop_inputs_after_use = true;
  Runtime runtime(plat, std::make_unique<OwnerComputesScheduler>(), ro);
  mem::DataHandle* h2 = runtime.registry().intern(bufA, 8, 8, 8,
                                                  sizeof(double));
  for (int i = 0; i < 3; ++i) {
    runtime.submit(touch_task(h2, Access::kR, 0));
    runtime.run();
  }
  EXPECT_EQ(runtime.data_manager().stats().h2d, 3u) << "streamed";
}

}  // namespace
}  // namespace xkb::rt

// Appended: ablation-counter semantics -- optimistic_waits must only count
// waits *chosen* by the Section III-C heuristic, never waits forced by
// coherence, so the fig3/Table II ablation attribution is truthful.
namespace xkb::rt {
namespace {

TEST(Heuristics, AblationConfigsNeverCountOptimisticWaits) {
  // Fig. 3-style data-on-host reuse: every GPU reads every shared tile.
  // With the optimistic heuristic disabled, no wait may be attributed to it.
  for (HeuristicConfig cfg : {HeuristicConfig::no_heuristic(),
                              HeuristicConfig::no_heuristic_no_topo()}) {
    Fixture f{cfg, false};
    static double bufs[4][64];
    for (int i = 0; i < 4; ++i) {
      mem::DataHandle* h = f.tile(bufs[i]);
      for (int g = 0; g < 8; ++g)
        f.runtime.submit(touch_task(h, Access::kR, g, nullptr, i * 8 + g));
    }
    f.runtime.run();
    EXPECT_EQ(f.runtime.data_manager().stats().optimistic_waits, 0u)
        << "ablation run must not report optimistic waits";
  }
}

TEST(Heuristics, ForcedWaitCountedSeparatelyFromOptimistic) {
  // "The only copy is in flight": the wait is forced by coherence, not an
  // optimistic-heuristic decision, and fires even with the heuristic off.
  Fixture f{HeuristicConfig::no_heuristic(), false};
  mem::DataHandle* h = f.tile(bufA);

  // Start a real H2D to GPU 0, then invalidate the host while the copy is
  // airborne: GPU 1's fetch finds the in-flight reception as the only
  // (future) copy anywhere and must chain on it.
  bool first = false, done = false;
  f.runtime.data_manager().acquire(h, 0, Access::kR, [&] { first = true; });
  ASSERT_EQ(h->dev[0].state, mem::ReplicaState::kInFlight);
  h->host.state = mem::ReplicaState::kInvalid;

  f.runtime.data_manager().acquire(h, 1, Access::kR, [&] { done = true; });
  EXPECT_EQ(f.runtime.data_manager().stats().optimistic_waits, 0u);
  EXPECT_EQ(f.runtime.data_manager().stats().forced_waits, 1u);

  // When the reception lands on GPU 0, the chained forwarding copy to
  // GPU 1 is issued automatically.
  f.plat.engine().run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.runtime.data_manager().stats().d2d, 1u);
}

TEST(Heuristics, OptimisticWaitStillCountedWhenEnabled) {
  Fixture f{HeuristicConfig::xkblas(), false};
  mem::DataHandle* h = f.tile(bufA);
  for (int g = 0; g < 4; ++g)
    f.runtime.submit(touch_task(h, Access::kR, g));
  f.runtime.run();
  EXPECT_GE(f.runtime.data_manager().stats().optimistic_waits, 1u);
  EXPECT_EQ(f.runtime.data_manager().stats().forced_waits, 0u)
      << "host copy stays valid here, so no wait is ever forced";
}

TEST(Dmdas, InFlightReplicaChargedAsWaitNotFreshTransfer) {
  // A large tile is in flight to GPU 3, almost arrived.  The dmda cost model
  // must charge the remaining wait for GPU 3 -- not a full transfer as if
  // the replica were absent -- so GPU 3 wins the placement.
  Fixture f;
  mem::DataHandle* h = f.tile(bufA, 2048);  // ~32 MB: a fresh transfer costs ms
  h->dev[3].state = mem::ReplicaState::kInFlight;
  h->dev[3].eta = f.plat.engine().now() + 1e-7;

  DmdasScheduler sched;
  TaskDesc d;
  d.label = "reader";
  d.accesses.push_back({h, Access::kR});
  d.flops = 1e9;
  d.min_dim = 2048;
  Task t(std::move(d));
  EXPECT_EQ(sched.place(t, f.runtime), 3)
      << "waiting out the in-flight copy beats re-transferring the tile";
}

}  // namespace
}  // namespace xkb::rt

// Appended: deterministic regression for the stale-eviction-flush bug found
// by the randomized fuzzer (tests/test_fuzz_runtime.cpp).
namespace xkb::rt {
namespace {

TEST(EvictionFlushRace, StaleFlushMustNotPublishOldVersion) {
  // Timeline engineered so that a dirty eviction flush of version v1 is
  // still on the DtoH channel when a second writer produces v2 on another
  // device.  The flush completion must discard its stale payload; the
  // final coherent must deliver v2.
  const std::size_t big = 1024 * 2048;  // 16 MB tile -> ~1.3 ms flush
  static std::vector<double> h_data(big), f_data(big);

  PlatformOptions po;
  po.functional = true;
  po.device_capacity = big * sizeof(double);  // exactly one tile per GPU
  Platform plat(topo::Topology::dgx1(), PerfModel{}, po);
  RuntimeOptions ro;
  ro.prepare_window = 1;
  Runtime runtime(plat, std::make_unique<OwnerComputesScheduler>(), ro);

  mem::DataHandle* h =
      runtime.registry().intern(h_data.data(), 1024, 2048, 1024,
                                sizeof(double));
  mem::DataHandle* f =
      runtime.registry().intern(f_data.data(), 1024, 2048, 1024,
                                sizeof(double));

  // W1: quick write-only producer of v1 on GPU 0.
  TaskDesc w1;
  w1.label = "w1";
  w1.accesses.push_back({h, Access::kW});
  w1.flops = 1e8;
  w1.min_dim = 2048;
  w1.forced_device = 0;
  w1.fn = [](const FunctionalCtx& ctx) {
    static_cast<double*>(ctx.ptr(0))[0] = 1.0;
  };
  runtime.submit(std::move(w1));

  // Filler on GPU 0: evicts the dirty v1 (flush starts once W1 unpins).
  TaskDesc dist;
  dist.label = "fill";
  dist.accesses.push_back({f, Access::kR});
  dist.forced_device = 0;
  runtime.submit(std::move(dist));

  // W2: longer write-only producer of v2 on GPU 1 (WAW after W1); its
  // completion lands while the eviction flush is still in flight.
  TaskDesc w2;
  w2.label = "w2";
  w2.accesses.push_back({h, Access::kW});
  w2.flops = 2e9;
  w2.min_dim = 2048;
  w2.forced_device = 1;
  w2.fn = [](const FunctionalCtx& ctx) {
    static_cast<double*>(ctx.ptr(0))[0] = 2.0;
  };
  runtime.submit(std::move(w2));

  runtime.coherent_async(h);
  runtime.run();

  EXPECT_DOUBLE_EQ(h_data[0], 2.0)
      << "the stale eviction flush must not overwrite the newer version";
  EXPECT_GE(runtime.data_manager().stats().evict_flushes, 1u)
      << "the scenario must actually evict the dirty tile";
}

}  // namespace
}  // namespace xkb::rt

// Appended: dmdas's placement equals the per-device reference loop -- for
// every alive device, the estimated cost of each read operand it misses,
// summed in operand order, with a fresh transfer costed at the best of the
// host link and every valid peer -- both in the device it picks and in the
// ready-time estimate it books.
#include <algorithm>
#include <limits>

#include "tdl/presets.hpp"

namespace xkb::rt {
namespace {

class ReferenceDmdas {
 public:
  int place(const Task& t, Runtime& rt) {
    Platform& plat = rt.platform();
    const auto& topo = plat.topology();
    const int n = rt.num_gpus();
    if (eta_.size() != static_cast<std::size_t>(n)) eta_.assign(n, 0.0);
    const double now = plat.engine().now();
    const double ktime =
        plat.perf().kernel_time(t.desc.flops, t.desc.min_dim,
                                t.desc.eff_factor, t.desc.single_precision);
    int best = -1;
    double best_cost = std::numeric_limits<double>::max();
    for (int g = 0; g < n; ++g) {
      if (plat.device_failed(g)) continue;
      double xfer = 0.0;
      for (const TaskAccess& a : t.desc.accesses) {
        if (a.mode == Access::kW) continue;
        const mem::DataHandle* h = a.handle;
        if (h->dev[g].state == mem::ReplicaState::kValid) continue;
        if (h->dev[g].state == mem::ReplicaState::kInFlight) {
          xfer += std::max(0.0, h->dev[g].eta - now);
          continue;
        }
        double bw = topo.host_bandwidth_gbps(g);
        for (int s : h->valid_devices())
          bw = std::max(bw, topo.gpu_bandwidth_gbps(s, g));
        xfer += static_cast<double>(h->bytes()) / (bw * 1e9);
      }
      const double start = std::max(eta_[g], now);
      const double done = start + xfer + ktime;
      if (done < best_cost) {
        best_cost = done;
        best = g;
      }
    }
    eta_[best] = best_cost;
    return best;
  }
  const std::vector<double>& eta() const { return eta_; }

 private:
  std::vector<double> eta_;
};

void dmdas_matches_reference(topo::Topology topo, std::uint64_t seed) {
  PlatformOptions po;
  po.functional = false;
  Platform plat(std::move(topo), PerfModel{}, po);
  Runtime runtime(plat, std::make_unique<OwnerComputesScheduler>());
  const int n = plat.num_gpus();
  constexpr int kSteps = 400;
  // Host origins only key the registry: each operand of each step gets its
  // own never-touched handle, so an untouched device has no replica entry.
  static std::vector<double> origins(kSteps * 4);

  DmdasScheduler sched;
  ReferenceDmdas ref;
  Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    // Advance virtual time so in-flight ETAs land on both sides of now.
    plat.engine().schedule_after(rng.uniform(0.0, 2e-3), [] {});
    plat.engine().run();
    const double now = plat.engine().now();
    if (step == kSteps / 3 || step == 2 * kSteps / 3)
      plat.apply_device_failure(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n))));

    TaskDesc d;
    d.label = "probe";
    const int reads = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k <= reads; ++k) {
      const std::size_t dim = 256 * (1 + rng.next_below(8));
      mem::DataHandle* h = runtime.registry().intern(
          &origins[static_cast<std::size_t>(step * 4 + k)], dim, dim, dim,
          sizeof(double));
      // Valid, in flight, materialised-invalid or absent, failed devices
      // included (a purge may not have reached every handle yet).
      for (int g = 0; g < n; ++g) {
        switch (rng.next_below(6)) {
          case 0:
            h->dev[g].state = mem::ReplicaState::kValid;
            break;
          case 1:
            h->dev[g].state = mem::ReplicaState::kInFlight;
            h->dev[g].eta = now + rng.uniform(-1e-3, 3e-3);
            break;
          case 2:
            h->dev[g].state = mem::ReplicaState::kInvalid;
            break;
          default:
            break;  // absent
        }
      }
      const Access mode = k == reads ? Access::kW
                          : rng.next_below(2) == 0 ? Access::kR
                                                   : Access::kRW;
      d.accesses.push_back({h, mode});
    }
    // The written operand goes anywhere in the list.
    std::swap(d.accesses.back(),
              d.accesses[rng.next_below(d.accesses.size())]);
    d.flops = rng.uniform(1e8, 2e11);
    d.min_dim = 256 * (1 + rng.next_below(8));
    Task t(std::move(d));

    const int want = ref.place(t, runtime);
    ASSERT_EQ(sched.place(t, runtime), want) << "step " << step;
    ASSERT_EQ(sched.eta(), ref.eta()) << "step " << step;
  }
}

TEST(Dmdas, PlacementMatchesPerDeviceReferenceOnDgx1) {
  dmdas_matches_reference(topo::Topology::dgx1(), 24);
}

TEST(Dmdas, PlacementMatchesPerDeviceReferenceOnFatTree16) {
  dmdas_matches_reference(
      topo::Topology::from_machine(tdl::fat_tree_machine(tdl::FatTreeSpec{})),
      1024);
}

}  // namespace
}  // namespace xkb::rt
