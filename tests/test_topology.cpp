// Tests of the interconnect topology models, checked against the paper's
// Fig. 1 (link classes) and Fig. 2 (bandwidth matrix) for the DGX-1.
#include <gtest/gtest.h>

#include "topo/topology.hpp"

namespace xkb::topo {
namespace {

TEST(Dgx1, EightGpus) {
  const Topology t = Topology::dgx1();
  EXPECT_EQ(t.num_gpus(), 8);
  EXPECT_EQ(t.name(), "DGX-1");
}

TEST(Dgx1, DoubleNvlinkPairsOfFig1) {
  const Topology t = Topology::dgx1();
  const int nv2[][2] = {{0, 3}, {0, 4}, {1, 2}, {1, 5},
                        {2, 3}, {4, 7}, {5, 6}, {6, 7}};
  for (auto& p : nv2) {
    EXPECT_EQ(t.link_class(p[0], p[1]), LinkClass::kNVLink2)
        << p[0] << "-" << p[1];
    EXPECT_EQ(t.link_class(p[1], p[0]), LinkClass::kNVLink2);
    EXPECT_NEAR(t.gpu_bandwidth_gbps(p[0], p[1]), 96.4, 1e-9);
  }
}

TEST(Dgx1, SingleNvlinkPairsOfFig1) {
  const Topology t = Topology::dgx1();
  const int nv1[][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 6},
                        {3, 7}, {4, 5}, {4, 6}, {5, 7}};
  for (auto& p : nv1) {
    EXPECT_EQ(t.link_class(p[0], p[1]), LinkClass::kNVLink1);
    EXPECT_NEAR(t.gpu_bandwidth_gbps(p[0], p[1]), 48.4, 1e-9);
  }
}

TEST(Dgx1, EveryGpuHasSixNvlinkLanes) {
  // Hybrid cube-mesh invariant: each V100 exposes 6 NVLink lanes
  // (2 lanes per NVLink2 pair + 1 per NVLink1 pair).
  const Topology t = Topology::dgx1();
  for (int g = 0; g < 8; ++g) {
    int lanes = 0;
    for (int o = 0; o < 8; ++o) {
      if (o == g) continue;
      if (t.link_class(g, o) == LinkClass::kNVLink2) lanes += 2;
      if (t.link_class(g, o) == LinkClass::kNVLink1) lanes += 1;
    }
    EXPECT_EQ(lanes, 6) << "GPU " << g;
  }
}

TEST(Dgx1, RemainingPairsUsePcie) {
  const Topology t = Topology::dgx1();
  // Cross-socket non-linked pairs, e.g. 0-5, 0-6, 0-7 (Fig. 2 ~17 GB/s).
  EXPECT_EQ(t.link_class(0, 5), LinkClass::kPCIeP2P);
  EXPECT_EQ(t.link_class(0, 6), LinkClass::kPCIeP2P);
  EXPECT_EQ(t.link_class(0, 7), LinkClass::kPCIeP2P);
  EXPECT_NEAR(t.gpu_bandwidth_gbps(0, 7), 17.2, 1e-9);
}

TEST(Dgx1, BandwidthMatrixSymmetric) {
  const Topology t = Topology::dgx1();
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b)
      EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(a, b), t.gpu_bandwidth_gbps(b, a));
}

TEST(Dgx1, PerfRankOrdersLinkClasses) {
  const Topology t = Topology::dgx1();
  EXPECT_GT(t.p2p_perf_rank(0, 3), t.p2p_perf_rank(0, 1));  // NV2 > NV1
  EXPECT_GT(t.p2p_perf_rank(0, 1), t.p2p_perf_rank(0, 7));  // NV1 > PCIe
  EXPECT_GT(t.p2p_perf_rank(0, 7), 0);                      // PCIe > none
}

TEST(Dgx1, PeersByRankSorted) {
  const Topology t = Topology::dgx1();
  const auto peers = t.peers_by_rank(0);
  ASSERT_EQ(peers.size(), 7u);
  for (std::size_t i = 1; i < peers.size(); ++i)
    EXPECT_GE(t.p2p_perf_rank(peers[i - 1], 0), t.p2p_perf_rank(peers[i], 0));
  // The two double-NVLink peers of GPU 0 come first.
  EXPECT_TRUE((peers[0] == 3 && peers[1] == 4) ||
              (peers[0] == 4 && peers[1] == 3));
}

TEST(Dgx1, FourSharedHostLinks) {
  const Topology t = Topology::dgx1();
  EXPECT_EQ(t.num_host_links(), 4);
  // Pairs (0,1), (2,3), (4,5), (6,7) share a PCIe switch.
  EXPECT_EQ(t.host_link_of(0), t.host_link_of(1));
  EXPECT_EQ(t.host_link_of(2), t.host_link_of(3));
  EXPECT_NE(t.host_link_of(1), t.host_link_of(2));
  EXPECT_NEAR(t.host_bandwidth_gbps(0), 12.3, 1e-9);
}

TEST(PcieOnly, NoNvlinkAnywhere) {
  const Topology t = Topology::pcie_only(4);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      if (a != b) {
        EXPECT_EQ(t.link_class(a, b), LinkClass::kPCIeP2P);
      }
}

TEST(NvSwitch, UniformAllToAll) {
  const Topology t = Topology::nvswitch(8, 240.0);
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b)
      if (a != b) {
        EXPECT_EQ(t.link_class(a, b), LinkClass::kNVLink2);
        EXPECT_DOUBLE_EQ(t.gpu_bandwidth_gbps(a, b), 240.0);
      }
}

TEST(SummitLike, FastHostLinks) {
  const Topology t = Topology::summit_like();
  EXPECT_EQ(t.num_gpus(), 6);
  for (int g = 0; g < 6; ++g)
    EXPECT_NEAR(t.host_bandwidth_gbps(g), 50.0, 1e-9);
  // Dedicated host links: no sharing.
  EXPECT_NE(t.host_link_of(0), t.host_link_of(1));
  // In-socket NVLink, cross-socket staged.
  EXPECT_EQ(t.link_class(0, 1), LinkClass::kNVLink1);
  EXPECT_EQ(t.link_class(0, 3), LinkClass::kPCIeP2P);
}

}  // namespace
}  // namespace xkb::topo

// Appended: pair lookups stay current under fault mutations.  A topology
// that has already answered every query (and holds whatever it caches) is
// demoted, browned out, healed and loses devices step by step; after each
// step it must answer exactly like a freshly routed copy of the same
// machine with the same mutations replayed before any query.
#include <string>
#include <vector>

#include "tdl/presets.hpp"
#include "util/rng.hpp"

namespace xkb::topo {
namespace {

struct Mutation {
  enum Kind { kDemote, kScale, kRestore, kFail } kind = kDemote;
  int a = 0, b = 0;
  double fraction = 1.0;
};

void apply(Topology& t, const Mutation& m) {
  switch (m.kind) {
    case Mutation::kDemote: t.demote_link(m.a, m.b); break;
    case Mutation::kScale: t.scale_link_bandwidth(m.a, m.b, m.fraction); break;
    case Mutation::kRestore: t.restore_link(m.a, m.b); break;
    case Mutation::kFail: t.set_device_failed(m.a); break;
  }
}

void expect_same_lookups(const Topology& got, const Topology& want,
                         int step) {
  const int n = want.num_gpus();
  ASSERT_EQ(got.num_gpus(), n);
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(got.link_class(a, b), want.link_class(a, b))
          << "step " << step << " pair " << a << "-" << b;
      // Bit-identical, not merely close: dmdas sums these estimates.
      ASSERT_EQ(got.gpu_bandwidth_gbps(a, b), want.gpu_bandwidth_gbps(a, b))
          << "step " << step << " pair " << a << "-" << b;
      ASSERT_EQ(got.p2p_perf_rank(a, b), want.p2p_perf_rank(a, b))
          << "step " << step << " pair " << a << "-" << b;
      ASSERT_EQ(got.transfer_latency(a, b), want.transfer_latency(a, b))
          << "step " << step << " pair " << a << "-" << b;
    }
}

tdl::Machine machine_named(const std::string& name) {
  if (name == "fat_tree_4x16") {
    tdl::FatTreeSpec spec;
    spec.nodes = 4;
    spec.gpus_per_node = 16;
    return tdl::fat_tree_machine(spec);
  }
  return tdl::preset_machine(name);
}

class LookupsUnderMutation : public ::testing::TestWithParam<const char*> {};

TEST_P(LookupsUnderMutation, MatchAFreshlyRoutedReplay) {
  const tdl::Machine m = machine_named(GetParam());
  Topology live = Topology::from_machine(m);
  const int n = live.num_gpus();
  ASSERT_GE(n, 4);
  expect_same_lookups(live, Topology::from_machine(m), -1);  // warm it

  Rng rng(Rng::key(GetParam()));
  std::vector<Mutation> applied;
  int failed = 0;
  for (int step = 0; step < 24; ++step) {
    Mutation mu;
    const std::uint64_t roll = rng.next_below(10);
    mu.a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    mu.b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
    if (mu.b >= mu.a) ++mu.b;
    if (roll < 3) {
      mu.kind = Mutation::kDemote;
    } else if (roll < 6) {
      mu.kind = Mutation::kScale;
      mu.fraction = rng.uniform(0.05, 0.95);
    } else if (roll < 9 || failed >= 2) {
      mu.kind = Mutation::kRestore;
      // Mostly heal a pair that was mutated before, so heals do something.
      if (!applied.empty() && rng.next_below(4) != 0) {
        const Mutation& old = applied[rng.next_below(applied.size())];
        if (old.kind != Mutation::kFail) {
          mu.a = old.a;
          mu.b = old.b;
        }
      }
    } else {
      mu.kind = Mutation::kFail;
      ++failed;
    }
    apply(live, mu);
    applied.push_back(mu);

    Topology fresh = Topology::from_machine(m);
    for (const Mutation& d : applied) apply(fresh, d);
    expect_same_lookups(live, fresh, step);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, LookupsUnderMutation,
    ::testing::Values("dgx1", "summit", "pcie8", "nvswitch8", "fat_tree_4x16"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace xkb::topo
