// Unit tests for the util substrate: matrices/views, RNG, statistics,
// tables, flop counts.
#include <gtest/gtest.h>

#include "util/flops.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace xkb {
namespace {

TEST(Matrix, ColumnMajorIndexing) {
  Matrix<double> a(3, 2);
  a(0, 0) = 1.0;
  a(2, 1) = 5.0;
  EXPECT_EQ(a.data()[0], 1.0);
  EXPECT_EQ(a.data()[2 + 1 * 3], 5.0);
  EXPECT_EQ(a.ld(), 3u);
}

TEST(Matrix, ViewBlockSharesStorage) {
  Matrix<double> a(4, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 4; ++i) a(i, j) = double(i + 10 * j);
  MatrixView<double> blk = a.view().block(1, 2, 2, 2);
  EXPECT_EQ(blk.m, 2u);
  EXPECT_EQ(blk.ld, 4u);
  EXPECT_EQ(blk(0, 0), a(1, 2));
  blk(1, 1) = -7.0;
  EXPECT_EQ(a(2, 3), -7.0);
}

TEST(Matrix, NestedBlocksCompose) {
  Matrix<double> a(8, 8);
  a(5, 6) = 42.0;
  auto outer = a.view().block(4, 4, 4, 4);
  auto inner = outer.block(1, 2, 2, 2);
  EXPECT_EQ(inner(0, 0), 42.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix<double> a(2, 2), b(2, 2);
  a(1, 0) = 3.0;
  b(1, 0) = 5.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.5);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a), 0.0);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, FillRandomCoversMatrix) {
  Matrix<double> a(5, 5);
  Rng r(1);
  fill_random(a, r);
  int nonzero = 0;
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      if (a(i, j) != 0.0) ++nonzero;
  EXPECT_GT(nonzero, 20);
}

TEST(Rng, SubstreamIsDeterministicAndKeyed) {
  Rng master(42);
  Rng a = master.substream("random");
  Rng b = Rng(42).substream("random");
  Rng c = Rng(42).substream("dnn");
  EXPECT_EQ(a.next_u64(), b.next_u64());   // same master + key -> same stream
  EXPECT_NE(Rng(42).substream("random").next_u64(), c.next_u64());
  EXPECT_NE(Rng(42).substream("random").next_u64(), Rng(42).next_u64());
}

// Deriving (or drawing from) one sub-stream must not advance the master or
// perturb a sibling -- the property that lets the `random` and `dnn`
// generators share one experiment seed without their graphs depending on
// build order.
TEST(Rng, SubstreamsAreIndependentOfDerivationAndDrawOrder) {
  Rng m1(7);
  Rng r1 = m1.substream("random");
  Rng d1 = m1.substream("dnn");
  const std::uint64_t r_first = r1.next_u64();
  const std::uint64_t d_first = d1.next_u64();

  // Opposite derivation order, and a burned draw in between.
  Rng m2(7);
  Rng d2 = m2.substream("dnn");
  for (int i = 0; i < 100; ++i) d2.next_u64();
  Rng r2 = m2.substream("random");
  EXPECT_EQ(r2.next_u64(), r_first);
  EXPECT_EQ(Rng(7).substream("dnn").next_u64(), d_first);

  // substream() is const: the master still produces its own sequence.
  EXPECT_EQ(m1.next_u64(), Rng(7).next_u64());
}

TEST(Rng, SubstreamKeysAreFnv1aOfTheName) {
  EXPECT_EQ(Rng::key(""), 14695981039346656037ull);
  EXPECT_NE(Rng::key("random"), Rng::key("dnn"));
  // Same key, by name or by value, selects the same stream.
  EXPECT_EQ(Rng(9).substream("dnn").next_u64(),
            Rng(9).substream(Rng::key("dnn")).next_u64());
}

TEST(Rng, DiagDominantMakesSolvable) {
  Matrix<double> a(4, 4);
  Rng r(3);
  fill_random(a, r);
  make_diag_dominant(a);
  for (std::size_t i = 0; i < 4; ++i) {
    double off = 0;
    for (std::size_t j = 0; j < 4; ++j)
      if (i != j) off += std::abs(a(i, j));
    EXPECT_GT(std::abs(a(i, i)), off);
  }
}

TEST(Stats, MeanAndCi) {
  Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
  EXPECT_GT(s.ci95_half, 0.0);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Stats, SingleSampleNoCi) {
  Summary s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.ci95_half, 0.0);
}

TEST(Stats, EmptySample) {
  Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
}

TEST(Table, AlignedText) {
  Table t({"name", "value"});
  t.add_row({"gemm", Table::num(3.14159, 2)});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("gemm"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
}

TEST(Table, Markdown) {
  Table t({"a", "b"});
  t.add_row({"1", "x|y"});
  EXPECT_EQ(t.to_markdown(), "| a | b |\n|---|---|\n| 1 | x\\|y |\n");
}

TEST(Flops, RoutineCounts) {
  EXPECT_DOUBLE_EQ(routine_flops(Blas3::kGemm, 100), 2e6);
  EXPECT_DOUBLE_EQ(routine_flops(Blas3::kTrsm, 100), 1e6);
  EXPECT_DOUBLE_EQ(routine_flops(Blas3::kSyrk, 100), 100.0 * 100 * 101);
  EXPECT_DOUBLE_EQ(routine_flops(Blas3::kSyr2k, 100),
                   2.0 * 100 * 100 * 101);
}

TEST(Flops, Names) {
  EXPECT_STREQ(blas3_name(Blas3::kGemm), "GEMM");
  EXPECT_STREQ(blas3_name(Blas3::kHer2k), "HER2K");
}

std::vector<int> values(const util::LinkList<int>& l) {
  std::vector<int> out;
  for (const util::Link<int>* n = l.head; n; n = n->next)
    out.push_back(n->value);
  return out;
}

// erase_if keeps the survivors in order and the tail on the last of them,
// so appends after it land at the end.
TEST(LinkPool, EraseIfKeepsOrderAndTail) {
  util::LinkPool<int, 4> pool;
  util::LinkList<int> l;
  for (int v = 1; v <= 6; ++v) pool.append(l, v);
  pool.erase_if(l, [](int v) { return v % 2 == 0; });
  EXPECT_EQ(values(l), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(l.tail->next, nullptr);
  pool.append(l, 7);
  EXPECT_EQ(values(l), (std::vector<int>{1, 3, 5, 7}));
  pool.erase_if(l, [](int v) { return v == 1; });
  pool.append(l, 8);
  EXPECT_EQ(values(l), (std::vector<int>{3, 5, 7, 8}));
  pool.erase_if(l, [](int) { return true; });
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.tail, nullptr);
  pool.append(l, 9);
  EXPECT_EQ(values(l), (std::vector<int>{9}));
}

// A released array serves the next request of its size; arrays handed out
// at once never overlap, whether carved from one block or several.
TEST(ArrayPool, ReleasedArraysServeTheirSizeAgain) {
  util::ArrayPool<int, 8> pool;
  int* a = pool.acquire(1);
  int* b = pool.acquire(1);
  int* big = pool.acquire(4);  // 16 slots: larger than a block
  EXPECT_EQ(b, a + 2);
  for (int i = 0; i < 16; ++i) big[i] = i;
  a[0] = a[1] = b[0] = b[1] = -1;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(big[i], i);
  a[0] = a[1] = 0;
  pool.release(a, 1);
  EXPECT_EQ(pool.acquire(1), a);
  EXPECT_NE(pool.acquire(1), a);
}

}  // namespace
}  // namespace xkb
