// Property tests of the tiled task-graph algorithms: for every routine,
// running the multi-GPU simulation in functional mode and flushing the
// results home must reproduce the sequential host reference -- regardless of
// scheduler, heuristic configuration, tile size, or cache pressure.  Because
// each output tile's arithmetic sequence is fixed by the dependency chain,
// the result must be *bitwise* identical across scheduler/heuristic
// combinations (a strong check on the coherence protocol).
#include <gtest/gtest.h>

#include <complex>

#include "blas/tiled.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace xkb {
namespace {

using Z = std::complex<double>;
using rt::HeuristicConfig;

enum class Sched { kOwner, kDmdas, kRoundRobin };

struct RunCfg {
  Sched sched = Sched::kOwner;
  HeuristicConfig heur = HeuristicConfig::xkblas();
  std::size_t tile = 32;
  std::size_t capacity = 32ull << 30;
  int prepare_window = 6;
};

std::unique_ptr<rt::Scheduler> make_sched(Sched s) {
  switch (s) {
    case Sched::kOwner: return std::make_unique<rt::OwnerComputesScheduler>();
    case Sched::kDmdas: return std::make_unique<rt::DmdasScheduler>();
    case Sched::kRoundRobin:
      return std::make_unique<rt::RoundRobinScheduler>();
  }
  return nullptr;
}

template <typename T>
void coherent_matrix(rt::Runtime& runtime, MatrixView<const T> m,
                     std::size_t ts) {
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts)
      runtime.coherent_async(blas::detail::tile_handle(
          runtime, m, i, j, std::min(ts, m.m - i), std::min(ts, m.n - j)));
}

/// Run `emit(rt, opts)` on a functional simulated DGX-1 and flush `out`.
template <typename T, typename F>
void run_functional(const RunCfg& rc, MatrixView<const T> out, F&& emit) {
  rt::PlatformOptions po;
  po.functional = true;
  po.device_capacity = rc.capacity;
  rt::Platform plat(topo::Topology::dgx1(), rt::PerfModel{}, po);
  rt::RuntimeOptions ro;
  ro.heuristics = rc.heur;
  ro.prepare_window = rc.prepare_window;
  rt::Runtime runtime(plat, make_sched(rc.sched), ro);
  blas::EmitOptions eo;
  eo.tile = rc.tile;
  eo.home = blas::block_cyclic(blas::default_grid(plat.num_gpus()));
  emit(runtime, eo);
  coherent_matrix(runtime, out, rc.tile);
  runtime.run();
  EXPECT_EQ(runtime.tasks_completed(), runtime.tasks_submitted());
}

constexpr std::size_t kN = 96;
constexpr double kTol = 1e-9;

const RunCfg kConfigs[] = {
    {Sched::kOwner, HeuristicConfig::xkblas(), 32},
    {Sched::kOwner, HeuristicConfig::no_heuristic(), 32},
    {Sched::kOwner, HeuristicConfig::no_heuristic_no_topo(), 32},
    {Sched::kOwner, {rt::SourcePolicy::kHostOnly, false}, 32},
    {Sched::kOwner, {rt::SourcePolicy::kSwitchPeer, false}, 32},
    {Sched::kDmdas, HeuristicConfig::xkblas(), 32},
    {Sched::kRoundRobin, HeuristicConfig::xkblas(), 32},
    {Sched::kOwner, HeuristicConfig::xkblas(), 24},  // ragged edge tiles
    {Sched::kOwner, HeuristicConfig::xkblas(), 96},  // single tile
    {Sched::kOwner, HeuristicConfig::xkblas(), 128}, // tile > matrix
};

class TiledAllConfigs : public ::testing::TestWithParam<RunCfg> {};

TEST_P(TiledAllConfigs, GemmMatchesReference) {
  const RunCfg rc = GetParam();
  Rng rng(1234);
  Matrix<double> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::gemm<double>(Op::NoTrans, Op::NoTrans, 1.5, A.view(), B.view(), 0.5,
                     ref.view());
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_gemm<double>(r, Op::NoTrans, Op::NoTrans, 1.5, A.view(),
                             B.view(), 0.5, C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

TEST_P(TiledAllConfigs, Syr2kMatchesReference) {
  const RunCfg rc = GetParam();
  Rng rng(77);
  Matrix<double> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::syr2k<double>(Uplo::Lower, Op::NoTrans, 1.0, A.view(), B.view(), 1.0,
                      ref.view());
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_syr2k<double>(r, Uplo::Lower, Op::NoTrans, 1.0, A.view(),
                              B.view(), 1.0, C.view(), o);
  });
  for (std::size_t j = 0; j < kN; ++j)
    for (std::size_t i = j; i < kN; ++i)
      ASSERT_NEAR(C(i, j), ref(i, j), kTol) << i << "," << j;
}

TEST_P(TiledAllConfigs, TrsmMatchesReference) {
  const RunCfg rc = GetParam();
  Rng rng(55);
  Matrix<double> A(kN, kN), B(kN, kN);
  fill_random(A, rng);
  make_diag_dominant(A);
  fill_random(B, rng);
  Matrix<double> ref = B;
  host::trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 2.0,
                     A.view(), ref.view());
  run_functional<double>(rc, B.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_trsm<double>(r, Side::Left, Uplo::Lower, Op::NoTrans,
                             Diag::NonUnit, 2.0, A.view(), B.view(), o);
  });
  EXPECT_LT(max_abs_diff(B, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TiledAllConfigs,
                         ::testing::ValuesIn(kConfigs));

// ---- per-routine parameter sweeps under the default configuration ----

struct GemmOpCase {
  Op opa, opb;
};
class TiledGemmOps : public ::testing::TestWithParam<GemmOpCase> {};

TEST_P(TiledGemmOps, AllTransposeCombos) {
  const auto p = GetParam();
  Rng rng(9);
  const std::size_t m = 80, n = 64, k = 96;
  Matrix<double> A = [&] {
    Matrix<double> x(p.opa == Op::NoTrans ? m : k,
                     p.opa == Op::NoTrans ? k : m);
    fill_random(x, rng);
    return x;
  }();
  Matrix<double> B = [&] {
    Matrix<double> x(p.opb == Op::NoTrans ? k : n,
                     p.opb == Op::NoTrans ? n : k);
    fill_random(x, rng);
    return x;
  }();
  Matrix<double> C(m, n);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::gemm<double>(p.opa, p.opb, -0.5, A.view(), B.view(), 2.0, ref.view());
  RunCfg rc;
  rc.tile = 32;
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_gemm<double>(r, p.opa, p.opb, -0.5, A.view(), B.view(), 2.0,
                             C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, TiledGemmOps,
    ::testing::Values(GemmOpCase{Op::NoTrans, Op::NoTrans},
                      GemmOpCase{Op::Trans, Op::NoTrans},
                      GemmOpCase{Op::NoTrans, Op::Trans},
                      GemmOpCase{Op::Trans, Op::Trans}));

class TiledSymmCombos
    : public ::testing::TestWithParam<std::tuple<Side, Uplo>> {};

TEST_P(TiledSymmCombos, MatchesReference) {
  auto [side, uplo] = GetParam();
  Rng rng(13);
  Matrix<double> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::symm<double>(side, uplo, 1.2, A.view(), B.view(), 0.8, ref.view());
  RunCfg rc;
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_symm<double>(r, side, uplo, 1.2, A.view(), B.view(), 0.8,
                             C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TiledSymmCombos,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper)));

class TiledSyrkCombos
    : public ::testing::TestWithParam<std::tuple<Uplo, Op>> {};

TEST_P(TiledSyrkCombos, MatchesReference) {
  auto [uplo, op] = GetParam();
  Rng rng(14);
  Matrix<double> A(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::syrk<double>(uplo, op, 0.7, A.view(), 1.3, ref.view());
  RunCfg rc;
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_syrk<double>(r, uplo, op, 0.7, A.view(), 1.3, C.view(), o);
  });
  for (std::size_t j = 0; j < kN; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      const bool tri = uplo == Uplo::Lower ? i >= j : i <= j;
      if (tri) ASSERT_NEAR(C(i, j), ref(i, j), kTol);
      else ASSERT_EQ(C(i, j), ref(i, j)) << "outside triangle must not move";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TiledSyrkCombos,
    ::testing::Combine(::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Op::NoTrans, Op::Trans)));

struct TriCase {
  Side side;
  Uplo uplo;
  Op op;
  Diag diag;
};
class TiledTriCombos : public ::testing::TestWithParam<TriCase> {};

TEST_P(TiledTriCombos, TrmmMatchesReference) {
  const auto p = GetParam();
  Rng rng(15);
  Matrix<double> A(kN, kN), B(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  Matrix<double> ref = B;
  host::trmm<double>(p.side, p.uplo, p.op, p.diag, 0.9, A.view(), ref.view());
  RunCfg rc;
  run_functional<double>(rc, B.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_trmm<double>(r, p.side, p.uplo, p.op, p.diag, 0.9, A.view(),
                             B.view(), o);
  });
  EXPECT_LT(max_abs_diff(B, ref), kTol);
}

TEST_P(TiledTriCombos, TrsmMatchesReference) {
  const auto p = GetParam();
  Rng rng(16);
  Matrix<double> A(kN, kN), B(kN, kN);
  fill_random(A, rng);
  make_diag_dominant(A);
  fill_random(B, rng);
  Matrix<double> ref = B;
  host::trsm<double>(p.side, p.uplo, p.op, p.diag, 1.1, A.view(), ref.view());
  RunCfg rc;
  run_functional<double>(rc, B.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_trsm<double>(r, p.side, p.uplo, p.op, p.diag, 1.1, A.view(),
                             B.view(), o);
  });
  EXPECT_LT(max_abs_diff(B, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TiledTriCombos,
    ::testing::Values(
        TriCase{Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit},
        TriCase{Side::Left, Uplo::Lower, Op::Trans, Diag::NonUnit},
        TriCase{Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit},
        TriCase{Side::Left, Uplo::Upper, Op::Trans, Diag::NonUnit},
        TriCase{Side::Right, Uplo::Lower, Op::NoTrans, Diag::NonUnit},
        TriCase{Side::Right, Uplo::Lower, Op::Trans, Diag::NonUnit},
        TriCase{Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit},
        TriCase{Side::Right, Uplo::Upper, Op::Trans, Diag::NonUnit},
        TriCase{Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit},
        TriCase{Side::Right, Uplo::Upper, Op::Trans, Diag::Unit}));

// ---- Hermitian trio (complex) ----

TEST(TiledHermitian, HemmMatchesReference) {
  Rng rng(17);
  Matrix<Z> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<Z> ref = C;
  const Z alpha{1.0, -0.5}, beta{0.5, 0.25};
  host::hemm<Z>(Side::Left, Uplo::Lower, alpha, A.view(), B.view(), beta,
                ref.view());
  RunCfg rc;
  run_functional<Z>(rc, C.view(), [&](rt::Runtime& r,
                                      const blas::EmitOptions& o) {
    blas::tiled_hemm<Z>(r, Side::Left, Uplo::Lower, alpha, A.view(), B.view(),
                        beta, C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

TEST(TiledHermitian, HerkMatchesReference) {
  Rng rng(18);
  Matrix<Z> A(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(C, rng);
  for (std::size_t i = 0; i < kN; ++i) C(i, i) = Z{std::real(C(i, i))};
  Matrix<Z> ref = C;
  host::herk<Z>(Uplo::Lower, Op::NoTrans, 1.4, A.view(), 0.6, ref.view());
  RunCfg rc;
  run_functional<Z>(rc, C.view(), [&](rt::Runtime& r,
                                      const blas::EmitOptions& o) {
    blas::tiled_herk<Z>(r, Uplo::Lower, Op::NoTrans, 1.4, A.view(), 0.6,
                        C.view(), o);
  });
  for (std::size_t j = 0; j < kN; ++j)
    for (std::size_t i = j; i < kN; ++i)
      ASSERT_LT(std::abs(C(i, j) - ref(i, j)), kTol);
}

TEST(TiledHermitian, Her2kMatchesReference) {
  Rng rng(19);
  Matrix<Z> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  for (std::size_t i = 0; i < kN; ++i) C(i, i) = Z{std::real(C(i, i))};
  Matrix<Z> ref = C;
  const Z alpha{0.8, 0.3};
  host::her2k<Z>(Uplo::Lower, Op::NoTrans, alpha, A.view(), B.view(), 0.9,
                 ref.view());
  RunCfg rc;
  run_functional<Z>(rc, C.view(), [&](rt::Runtime& r,
                                      const blas::EmitOptions& o) {
    blas::tiled_her2k<Z>(r, Uplo::Lower, Op::NoTrans, alpha, A.view(),
                         B.view(), 0.9, C.view(), o);
  });
  for (std::size_t j = 0; j < kN; ++j)
    for (std::size_t i = j; i < kN; ++i)
      ASSERT_LT(std::abs(C(i, j) - ref(i, j)), kTol);
}

// ---- cross-configuration determinism & invariance ----

Matrix<double> run_gemm_bits(const RunCfg& rc) {
  Rng rng(2024);
  Matrix<double> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_gemm<double>(r, Op::NoTrans, Op::NoTrans, 1.0, A.view(),
                             B.view(), 1.0, C.view(), o);
  });
  return C;
}

TEST(TiledInvariance, BitwiseIdenticalAcrossSchedulersAndHeuristics) {
  // The per-tile arithmetic order is fixed by the dependency chains, so any
  // correct schedule and any data-movement policy must produce the exact
  // same bits -- a strong check on the coherence protocol.
  const Matrix<double> base = run_gemm_bits({Sched::kOwner,
                                             HeuristicConfig::xkblas(), 32});
  for (const RunCfg& rc :
       {RunCfg{Sched::kDmdas, HeuristicConfig::xkblas(), 32},
        RunCfg{Sched::kRoundRobin, HeuristicConfig::no_heuristic(), 32},
        RunCfg{Sched::kOwner, HeuristicConfig::no_heuristic_no_topo(), 32},
        RunCfg{Sched::kOwner, {rt::SourcePolicy::kHostOnly, false}, 32}}) {
    const Matrix<double> other = run_gemm_bits(rc);
    EXPECT_DOUBLE_EQ(max_abs_diff(base, other), 0.0);
  }
}

TEST(TiledInvariance, RepeatedRunsAreDeterministic) {
  const RunCfg rc{Sched::kOwner, HeuristicConfig::xkblas(), 24};
  const Matrix<double> a = run_gemm_bits(rc);
  const Matrix<double> b = run_gemm_bits(rc);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0);
}

TEST(TiledUnderPressure, EvictionStressStillCorrect) {
  // Device caches hold only a handful of tiles: constant eviction (incl.
  // dirty flushes) must not corrupt results.
  RunCfg rc;
  rc.tile = 24;
  rc.prepare_window = 2;
  rc.capacity = 12 * 24 * 24 * sizeof(double);  // 12 tiles per device
  Rng rng(31337);
  Matrix<double> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, A.view(), B.view(), 1.0,
                     ref.view());
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_gemm<double>(r, Op::NoTrans, Op::NoTrans, 1.0, A.view(),
                             B.view(), 1.0, C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

TEST(TiledComposition, TrsmThenGemmSharesTiles) {
  // The composition scenario of the paper's Fig. 8: X = A^-1 B, then
  // C += X^T X, submitted back-to-back without synchronisation.
  Rng rng(4242);
  Matrix<double> A(kN, kN), B(kN, kN), C(kN, kN);
  fill_random(A, rng);
  make_diag_dominant(A);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> refB = B, refC = C;
  host::trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0,
                     A.view(), refB.view());
  host::gemm<double>(Op::Trans, Op::NoTrans, 1.0, refB.view(), refB.view(),
                     1.0, refC.view());

  RunCfg rc;
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_trsm<double>(r, Side::Left, Uplo::Lower, Op::NoTrans,
                             Diag::NonUnit, 1.0, A.view(), B.view(), o);
    blas::tiled_gemm<double>(r, Op::Trans, Op::NoTrans, 1.0, B.view(),
                             B.view(), 1.0, C.view(), o);
    coherent_matrix<double>(r, B.view(), o.tile);
  });
  EXPECT_LT(max_abs_diff(B, refB), 1e-8);
  EXPECT_LT(max_abs_diff(C, refC), 1e-6);
}

}  // namespace
}  // namespace xkb

// Appended: rectangular shapes, edge tiles and degenerate dimensions.
namespace xkb {
namespace {

struct RectCase {
  std::size_t m, n, k, tile;
};

class TiledRect : public ::testing::TestWithParam<RectCase> {};

TEST_P(TiledRect, GemmRectangular) {
  const auto p = GetParam();
  Rng rng(500 + p.m + p.n + p.k);
  Matrix<double> A(p.m, p.k), B(p.k, p.n), C(p.m, p.n);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, A.view(), B.view(), 1.0,
                     ref.view());
  RunCfg rc;
  rc.tile = p.tile;
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_gemm<double>(r, Op::NoTrans, Op::NoTrans, 1.0, A.view(),
                             B.view(), 1.0, C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledRect,
    ::testing::Values(RectCase{100, 60, 84, 32},   // nothing divides evenly
                      RectCase{32, 160, 32, 32},   // wide C
                      RectCase{160, 32, 32, 32},   // tall C
                      RectCase{96, 96, 17, 32},    // skinny inner dim
                      RectCase{17, 23, 96, 32},    // tiny C, long k
                      RectCase{1, 1, 1, 32},       // scalars
                      RectCase{33, 33, 33, 32}));  // single ragged edge

TEST(TiledEdge, TrsmRaggedTiles) {
  const std::size_t n = 100, nrhs = 36;  // 100 = 3*32 + 4
  Rng rng(600);
  Matrix<double> A(n, n), B(n, nrhs);
  fill_random(A, rng);
  make_diag_dominant(A);
  fill_random(B, rng);
  Matrix<double> ref = B;
  host::trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0,
                     A.view(), ref.view());
  RunCfg rc;
  rc.tile = 32;
  run_functional<double>(rc, B.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_trsm<double>(r, Side::Left, Uplo::Lower, Op::NoTrans,
                             Diag::NonUnit, 1.0, A.view(), B.view(), o);
  });
  EXPECT_LT(max_abs_diff(B, ref), 1e-8);
}

TEST(TiledEdge, SyrkRaggedTriangle) {
  const std::size_t n = 90, k = 70;  // both ragged at tile 32
  Rng rng(601);
  Matrix<double> A(n, k), C(n, n);
  fill_random(A, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::syrk<double>(Uplo::Lower, Op::NoTrans, 1.0, A.view(), 1.0,
                     ref.view());
  RunCfg rc;
  rc.tile = 32;
  run_functional<double>(rc, C.view(), [&](rt::Runtime& r,
                                           const blas::EmitOptions& o) {
    blas::tiled_syrk<double>(r, Uplo::Lower, Op::NoTrans, 1.0, A.view(), 1.0,
                             C.view(), o);
  });
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) ASSERT_NEAR(C(i, j), ref(i, j), kTol);
}

TEST(TiledEdge, SubMatrixViewsWithLargeLd) {
  // Operate on an interior block of a larger allocation (ld >> m).
  const std::size_t big = 200, n = 96;
  Rng rng(602);
  Matrix<double> A(big, big), B(big, big), C(big, big);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<double> ref = C;
  host::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0,
                     A.view().block(8, 16, n, n), B.view().block(0, 0, n, n),
                     1.0, ref.view().block(100, 100, n, n));
  RunCfg rc;
  rc.tile = 32;
  MatrixView<double> Cblk = C.view().block(100, 100, n, n);
  run_functional<double>(rc, Cblk, [&](rt::Runtime& r,
                                       const blas::EmitOptions& o) {
    blas::tiled_gemm<double>(r, Op::NoTrans, Op::NoTrans, 1.0,
                             A.view().block(8, 16, n, n),
                             B.view().block(0, 0, n, n), 1.0, Cblk, o);
  });
  EXPECT_LT(max_abs_diff(C, ref), kTol);
}

TEST(TiledEdge, ComplexFloatGemm) {
  using ZF = std::complex<float>;
  const std::size_t n = 64;
  Rng rng(603);
  Matrix<ZF> A(n, n), B(n, n), C(n, n);
  fill_random(A, rng);
  fill_random(B, rng);
  fill_random(C, rng);
  Matrix<ZF> ref = C;
  host::gemm<ZF>(Op::NoTrans, Op::ConjTrans, ZF{1.0f, 0.5f}, A.view(),
                 B.view(), ZF{1.0f}, ref.view());
  RunCfg rc;
  rc.tile = 32;
  run_functional<ZF>(rc, C.view(), [&](rt::Runtime& r,
                                       const blas::EmitOptions& o) {
    blas::tiled_gemm<ZF>(r, Op::NoTrans, Op::ConjTrans, ZF{1.0f, 0.5f},
                         A.view(), B.view(), ZF{1.0f}, C.view(), o);
  });
  EXPECT_LT(max_abs_diff(C, ref), 1e-3f);
}

}  // namespace
}  // namespace xkb
