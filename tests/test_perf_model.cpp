// Tests of the kernel cost model and platform resource accounting.
#include <gtest/gtest.h>

#include "runtime/perf_model.hpp"
#include "runtime/platform.hpp"

namespace xkb::rt {
namespace {

TEST(PerfModel, EfficiencySaturates) {
  const PerfModel pm;
  EXPECT_LT(pm.efficiency(128), pm.efficiency(1024));
  EXPECT_LT(pm.efficiency(1024), pm.efficiency(4096));
  EXPECT_GT(pm.efficiency(2048), 0.85);  // cuBLAS-like on 2048 tiles
  EXPECT_LT(pm.efficiency(2048), 1.0);
  EXPECT_DOUBLE_EQ(pm.efficiency(static_cast<std::size_t>(pm.eff_half_dim)),
                   0.5);
}

TEST(PerfModel, KernelTimeScalesWithFlops) {
  const PerfModel pm;
  const double t1 = pm.kernel_time(1e9, 2048, 1.0, false);
  const double t2 = pm.kernel_time(2e9, 2048, 1.0, false);
  EXPECT_NEAR(t2 - pm.kernel_latency, 2.0 * (t1 - pm.kernel_latency), 1e-12);
}

TEST(PerfModel, LaunchLatencyFloors) {
  const PerfModel pm;
  EXPECT_GE(pm.kernel_time(0.0, 64, 1.0, false), pm.kernel_latency);
  EXPECT_GE(pm.kernel_time(1.0, 64, 1.0, false), pm.kernel_latency);
}

TEST(PerfModel, SinglePrecisionFaster) {
  const PerfModel pm;
  const double dp = pm.kernel_time(1e12, 2048, 1.0, false);
  const double sp = pm.kernel_time(1e12, 2048, 1.0, true);
  EXPECT_NEAR(dp - pm.kernel_latency, 2.0 * (sp - pm.kernel_latency), 1e-9);
}

TEST(PerfModel, EffFactorPenalises) {
  const PerfModel pm;
  EXPECT_GT(pm.kernel_time(1e12, 2048, 0.5, false),
            pm.kernel_time(1e12, 2048, 1.0, false));
}

TEST(PerfModel, GemmTileTimeRealistic) {
  // A 2048^3 DGEMM tile on a V100 runs in roughly 2.4 ms (cuBLAS reality).
  const PerfModel pm;
  const double flops = 2.0 * 2048.0 * 2048.0 * 2048.0;
  const double t = pm.kernel_time(flops, 2048, 1.0, false);
  EXPECT_GT(t, 2.0e-3);
  EXPECT_LT(t, 3.0e-3);
}

TEST(Platform, KernelStreamsShareTheGpu) {
  // Two concurrent kernels must serialize on the device's compute.
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  auto a = plat.launch_kernel(0, 1.0, 1e12, "k1", {});
  auto b = plat.launch_kernel(0, 1.0, 1e12, "k2", {});
  EXPECT_DOUBLE_EQ(a.end, 1.0);
  EXPECT_GE(b.start, a.end);
  EXPECT_DOUBLE_EQ(plat.kernel_busy(0), 2.0);
}

TEST(Platform, HostLinkSharedByGpuPair) {
  // GPUs 0 and 1 share a PCIe switch: their H2D transfers serialize.
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  auto a = plat.copy_h2d(0, 1 << 30, {});
  auto b = plat.copy_h2d(1, 1 << 30, {});
  EXPECT_GE(b.start, a.end);
  // GPU 2 is on another switch: concurrent.
  auto c = plat.copy_h2d(2, 1 << 30, {});
  EXPECT_DOUBLE_EQ(c.start, 0.0);
}

TEST(Platform, H2dAndD2hAreFullDuplex) {
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  auto up = plat.copy_h2d(0, 1 << 30, {});
  auto down = plat.copy_d2h(0, 1 << 30, {});
  EXPECT_DOUBLE_EQ(up.start, 0.0);
  EXPECT_DOUBLE_EQ(down.start, 0.0);
}

TEST(Platform, NvlinkPairsAreIndependentChannels) {
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  auto a = plat.copy_p2p(0, 3, 1 << 30, {});
  auto b = plat.copy_p2p(1, 2, 1 << 30, {});
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(b.start, 0.0);
}

TEST(Platform, CrossSwitchPcieP2pStealsHostBandwidth) {
  // A PCIe peer copy between GPUs on different switches occupies the host
  // links; a subsequent H2D on the destination's switch is delayed.
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  ASSERT_EQ(plat.topology().link_class(0, 5), topo::LinkClass::kPCIeP2P);
  auto p = plat.copy_p2p(0, 5, 1 << 30, {});
  auto h = plat.copy_h2d(5, 1 << 30, {});
  EXPECT_GE(h.start, p.duration() * 0.99);
}

TEST(Platform, NvlinkP2pDoesNotTouchHostLinks) {
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  plat.copy_p2p(0, 3, 1 << 30, {});  // 2x NVLink pair
  auto h = plat.copy_h2d(3, 1 << 30, {});
  EXPECT_DOUBLE_EQ(h.start, 0.0);
}

TEST(Platform, TraceRecordsEveryOperation) {
  Platform plat(topo::Topology::dgx1(), PerfModel{}, {});
  plat.copy_h2d(0, 1024, {});
  plat.copy_p2p(0, 3, 1024, {});
  plat.copy_d2h(0, 1024, {});
  plat.launch_kernel(0, 1e-3, 1e9, "gemm", {});
  EXPECT_EQ(plat.trace().records().size(), 4u);
}

}  // namespace
}  // namespace xkb::rt
