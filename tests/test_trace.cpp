// Tests of the tracing substrate: record aggregation, breakdowns, byte
// accounting, Gantt rendering and per-GPU tables.
#include <gtest/gtest.h>

#include "trace/gantt.hpp"
#include "trace/trace.hpp"

namespace xkb::trace {
namespace {

Trace sample_trace() {
  Trace t;
  t.add({0, OpKind::kHtoD, 0.0, 1.0, 1000, 0.0, 0, "HtoD"});
  t.add({0, OpKind::kKernel, 1.0, 3.0, 0, 2e9, 0, "gemm"});
  t.add({1, OpKind::kPtoP, 0.5, 1.5, 500, 0.0, 0, "PtoP from 0"});
  t.add({1, OpKind::kKernel, 1.5, 2.5, 0, 1e9, 1, "gemm"});
  t.add({0, OpKind::kDtoH, 3.0, 3.5, 250, 0.0, 0, "DtoH"});
  return t;
}

TEST(Trace, BreakdownAllDevices) {
  const Trace t = sample_trace();
  const Breakdown b = t.breakdown();
  EXPECT_DOUBLE_EQ(b.htod, 1.0);
  EXPECT_DOUBLE_EQ(b.ptop, 1.0);
  EXPECT_DOUBLE_EQ(b.dtoh, 0.5);
  EXPECT_DOUBLE_EQ(b.kernel, 3.0);
  EXPECT_DOUBLE_EQ(b.total(), 5.5);
  EXPECT_DOUBLE_EQ(b.transfers(), 2.5);
}

TEST(Trace, BreakdownPerDevice) {
  const Trace t = sample_trace();
  EXPECT_DOUBLE_EQ(t.breakdown(0).kernel, 2.0);
  EXPECT_DOUBLE_EQ(t.breakdown(1).kernel, 1.0);
  EXPECT_DOUBLE_EQ(t.breakdown(1).htod, 0.0);

  // The one-pass table adds each device's durations in record order, so
  // its sums are bit-identical to breakdown(g)'s, inexact ones included.
  Trace u = sample_trace();
  const OpKind kinds[] = {OpKind::kHtoD, OpKind::kDtoH, OpKind::kPtoP,
                          OpKind::kKernel};
  for (int i = 1; i <= 60; ++i)
    u.add({i % 3, kinds[i % 4], 0.1 * i, 0.1 * i + 1.0 / (i + 2), 0, 0.0, 0,
           "op"});
  const std::vector<Breakdown> per = u.per_device_breakdown(4);
  ASSERT_EQ(per.size(), 4u);
  for (int g = 0; g < 4; ++g) {
    const Breakdown b = u.breakdown(g);
    EXPECT_EQ(per[g].htod, b.htod) << g;
    EXPECT_EQ(per[g].dtoh, b.dtoh) << g;
    EXPECT_EQ(per[g].ptop, b.ptop) << g;
    EXPECT_EQ(per[g].kernel, b.kernel) << g;
  }
  EXPECT_EQ(per[3].total(), 0.0);
}

TEST(Trace, SpanAndBytes) {
  const Trace t = sample_trace();
  EXPECT_DOUBLE_EQ(t.span(), 3.5);
  EXPECT_EQ(t.bytes(OpKind::kHtoD), 1000u);
  EXPECT_EQ(t.bytes(OpKind::kPtoP), 500u);
  EXPECT_EQ(t.bytes(OpKind::kDtoH), 250u);
}

TEST(Trace, ClearResets) {
  Trace t = sample_trace();
  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_DOUBLE_EQ(t.span(), 0.0);
  EXPECT_EQ(t.max_device(), -1);
}

TEST(Trace, OpKindNamesMatchNvprof) {
  EXPECT_STREQ(to_string(OpKind::kHtoD), "memcpy HtoD");
  EXPECT_STREQ(to_string(OpKind::kDtoH), "memcpy DtoH");
  EXPECT_STREQ(to_string(OpKind::kPtoP), "memcpy PtoP");
  EXPECT_STREQ(to_string(OpKind::kKernel), "GPU Kernel");
}

TEST(Gantt, RendersRowsPerDevice) {
  const Trace t = sample_trace();
  const std::string g = gantt_ascii(t, 2, 35);
  EXPECT_NE(g.find("GPU 0"), std::string::npos);
  EXPECT_NE(g.find("GPU 1"), std::string::npos);
  EXPECT_EQ(g.find("GPU 2"), std::string::npos);
}

TEST(Gantt, KernelGlyphWinsOverTransfers) {
  Trace t;
  t.add({0, OpKind::kHtoD, 0.0, 1.0, 100, 0.0, 0, "HtoD"});
  t.add({0, OpKind::kKernel, 0.0, 1.0, 0, 1e9, 0, "gemm"});
  const std::string g = gantt_ascii(t, 1, 10);
  // All buckets of GPU 0 are kernel-marked despite the overlapping copy.
  const auto row_start = g.find("GPU 0 |") + 7;
  EXPECT_EQ(g.substr(row_start, 10), std::string(10, 'K'));
}

TEST(Gantt, EmptyTraceHandled) {
  Trace t;
  EXPECT_EQ(gantt_ascii(t, 4, 50), "(empty trace)\n");
}

TEST(Gantt, IdleBucketsAreDots) {
  Trace t;
  t.add({0, OpKind::kKernel, 0.0, 1.0, 0, 1e9, 0, "k"});
  t.add({0, OpKind::kKernel, 9.0, 10.0, 0, 1e9, 0, "k"});
  const std::string g = gantt_ascii(t, 1, 10);
  EXPECT_NE(g.find('.'), std::string::npos);
}

TEST(Gantt, PerGpuTableContainsTotals) {
  const Trace t = sample_trace();
  const std::string table = per_gpu_table(t, 2);
  EXPECT_NE(table.find("Kernel(s)"), std::string::npos);
  EXPECT_NE(table.find("2.000"), std::string::npos);  // GPU0 kernel time
}

}  // namespace
}  // namespace xkb::trace

// Appended: export formats.
#include "trace/export.hpp"

namespace xkb::trace {
namespace {

TEST(Export, CsvHasHeaderAndRows) {
  Trace t;
  t.add({0, OpKind::kKernel, 0.0, 1.0, 0, 2e9, 0, "gemm"});
  t.add({3, OpKind::kPtoP, 0.5, 0.7, 4096, 0.0, 0, "PtoP from 1"});
  const std::string csv = to_csv(t);
  EXPECT_NE(csv.find("device,kind,start,end,bytes,flops,lane,peer,queued,"
                     "label"),
            std::string::npos);
  EXPECT_NE(csv.find("0,GPU Kernel,0,1,0,2000000000,0,-1,0,gemm"),
            std::string::npos);
  EXPECT_NE(csv.find("3,memcpy PtoP"), std::string::npos);
}

TEST(Export, ChromeJsonWellFormedEvents) {
  Trace t;
  t.add({1, OpKind::kHtoD, 0.0, 0.002, 1 << 20, 0.0, 0, "HtoD"});
  t.add({1, OpKind::kKernel, 0.002, 0.004, 0, 1e9, 0, "syrk"});
  const std::string js = to_chrome_json(t);
  EXPECT_EQ(js.front(), '[');
  EXPECT_NE(js.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(js.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"dur\": 2000"), std::string::npos);  // 2 ms -> 2000 us
  EXPECT_NE(js.find("syrk"), std::string::npos);
}

TEST(Export, JsonEscapesQuotes) {
  Trace t;
  t.add({0, OpKind::kKernel, 0.0, 1.0, 0, 0.0, 0, "a\"b"});
  EXPECT_NE(to_chrome_json(t).find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace xkb::trace
