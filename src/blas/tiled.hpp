// Tiled task-graph generators for the nine BLAS level-3 routines.
//
// These mirror the asynchronous tiled algorithms XKBlas takes from
// Chameleon/PLASMA (paper Section III), with the XKBlas twists:
//   * tiles are LAPACK-layout sub-matrix views (same ld, shifted origin),
//     never copied into a tile layout on the host;
//   * no implicit copy-back instructions -- host coherency is a separate,
//     explicit operation (lazy coherency);
//   * every generator only *submits tasks* to a Runtime; composition of
//     successive calls falls out of the shared handle registry.
//
// Each tile task carries both a cost model (flops, limiting dimension,
// kernel-specific efficiency) and an optional functional payload that runs
// the corresponding reference kernel on the simulated device buffers.
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>

#include "blas/blas_types.hpp"
#include "blas/host_blas.hpp"
#include "runtime/runtime.hpp"
#include "util/matrix.hpp"

namespace xkb::blas {

/// Emission controls shared by all generators.
struct EmitOptions {
  std::size_t tile = 2048;
  /// Attach functional payloads (tests); benches skip them to save memory.
  bool attach_functional = true;
  /// Force the device of every task writing output tile (i,j); return -1 to
  /// let the scheduler decide.  Used by static baselines (cuBLAS-XT, Slate).
  std::function<int(std::size_t i, std::size_t j)> force_place;
  /// Home-device hint for output tile (i,j) (owner-computes default
  /// mapping); only applied when the tile has no home yet.
  std::function<int(std::size_t i, std::size_t j)> home;
  /// After every task that writes a tile, flush the tile to the host and
  /// drop its device replicas (dataflow-ordered).  Models host-centric
  /// libraries like Slate whose output blocks round-trip every panel step.
  bool flush_outputs_each_task = false;
};

/// (P, Q) process grid used for default block-cyclic mappings; the paper
/// uses a (4,2) grid on 8 GPUs.
inline std::pair<int, int> default_grid(int ngpus) {
  int p = 1;
  for (int d = 1; d * d <= ngpus; ++d)
    if (ngpus % d == 0) p = d;
  return {ngpus / p, p};  // P >= Q, e.g. (4,2) for 8
}

/// The 2D block-cyclic map of a (P, Q) grid: tile (i, j) lives on device
/// (i mod P) * Q + (j mod Q).  Usable as EmitOptions::home/force_place.
inline std::function<int(std::size_t, std::size_t)> block_cyclic(
    std::pair<int, int> grid) {
  return [P = grid.first, Q = grid.second](std::size_t i, std::size_t j) {
    return static_cast<int>(i % static_cast<std::size_t>(P)) * Q +
           static_cast<int>(j % static_cast<std::size_t>(Q));
  };
}

namespace detail {

template <typename T>
inline constexpr double flop_scale = 1.0;
template <typename S>
inline constexpr double flop_scale<std::complex<S>> = 4.0;

template <typename T>
inline constexpr bool is_single = sizeof(real_t<T>) == 4;

inline std::size_t nt(std::size_t extent, std::size_t ts) {
  return (extent + ts - 1) / ts;
}

inline Op flip(Op op) { return op == Op::NoTrans ? Op::Trans : Op::NoTrans; }
inline Op flip_conj(Op op) {
  return op == Op::NoTrans ? Op::ConjTrans : Op::NoTrans;
}

/// Intern the handle of the stored tile of `m` whose top-left element is
/// (i0, j0) with dimensions (bm, bn).
template <typename T>
mem::DataHandle* tile_handle(rt::Runtime& rt, MatrixView<const T> m,
                             std::size_t i0, std::size_t j0, std::size_t bm,
                             std::size_t bn) {
  const T* origin = m.data + i0 + j0 * m.ld;
  return rt.registry().intern(const_cast<T*>(origin), bm, bn, m.ld,
                              sizeof(T));
}

/// Build a dense device-buffer view for access `i` of a functional context.
template <typename T>
MatrixView<const T> in_view(const rt::FunctionalCtx& ctx, std::size_t i) {
  const mem::DataHandle* h = ctx.handle(i);
  return {static_cast<const T*>(ctx.ptr(i)), h->m, h->n, h->m};
}
template <typename T>
MatrixView<T> out_view(const rt::FunctionalCtx& ctx, std::size_t i) {
  const mem::DataHandle* h = ctx.handle(i);
  return {static_cast<T*>(ctx.ptr(i)), h->m, h->n, h->m};
}

/// GEMM tile task: C = alpha op(A) op(B) + beta C (the workhorse of every
/// routine's off-diagonal updates).
template <typename T>
rt::TaskDesc gemm_task(Op opa, Op opb, T alpha, mem::DataHandle* hA,
                       mem::DataHandle* hB, T beta, mem::DataHandle* hC,
                       bool functional) {
  rt::TaskDesc d;
  d.label = "gemm";
  const bool write_only = (beta == T{});
  d.accesses = {{hA, rt::Access::kR},
                {hB, rt::Access::kR},
                {hC, write_only ? rt::Access::kW : rt::Access::kRW}};
  const std::size_t k = (opa == Op::NoTrans) ? hA->n : hA->m;
  d.flops = 2.0 * static_cast<double>(hC->m) * static_cast<double>(hC->n) *
            static_cast<double>(k) * flop_scale<T>;
  d.min_dim = std::min({hC->m, hC->n, k});
  d.single_precision = is_single<T>;
  if (functional)
    d.fn = [opa, opb, alpha, beta](const rt::FunctionalCtx& ctx) {
      host::gemm(opa, opb, alpha, in_view<T>(ctx, 0), in_view<T>(ctx, 1),
                 beta, out_view<T>(ctx, 2));
    };
  return d;
}

template <typename T>
void set_home_and_place(rt::TaskDesc& d, mem::DataHandle* hOut,
                        std::size_t i, std::size_t j, const EmitOptions& o) {
  if (o.home && hOut->home_device < 0)
    hOut->home_device = o.home(i, j);
  if (o.force_place) d.forced_device = o.force_place(i, j);
}

/// Submit a task; when the emitter is configured for host round trips,
/// chase it with a dataflow-ordered flush of every written tile.
inline void submit_task(rt::Runtime& rt, rt::TaskDesc d,
                        const EmitOptions& o) {
  std::vector<mem::DataHandle*> written;
  if (o.flush_outputs_each_task)
    for (const rt::TaskAccess& a : d.accesses)
      if (a.mode != rt::Access::kR) written.push_back(a.handle);
  rt.submit(std::move(d));
  for (mem::DataHandle* h : written) {
    rt::TaskDesc f;
    f.label = "flush";
    f.accesses.push_back({h, rt::Access::kR});
    f.host_task = true;
    f.on_complete = [&rt, h] {
      for (auto& [g, r] : h->dev) {
        if (r.resident && r.pins == 0 && !r.dirty &&
            r.state == mem::ReplicaState::kValid) {
          rt.platform().cache(g).release(h);
          if (!h->dev_buf.empty()) {
            h->dev_buf[g].clear();
            h->dev_buf[g].shrink_to_fit();
          }
        }
      }
    };
    rt.submit(std::move(f));
  }
}

}  // namespace detail

/// C = alpha op(A) op(B) + beta C.
template <typename T>
void tiled_gemm(rt::Runtime& rt, Op opa, Op opb, T alpha,
                MatrixView<const T> A, MatrixView<const T> B, T beta,
                MatrixView<T> C, const EmitOptions& o) {
  using namespace detail;
  const std::size_t ts = o.tile;
  const std::size_t K = (opa == Op::NoTrans) ? A.n : A.m;
  const std::size_t Mt = nt(C.m, ts), Nt = nt(C.n, ts), Kt = nt(K, ts);
  for (std::size_t i = 0; i < Mt; ++i)
    for (std::size_t j = 0; j < Nt; ++j) {
      const std::size_t bm = std::min(ts, C.m - i * ts);
      const std::size_t bn = std::min(ts, C.n - j * ts);
      MatrixView<const T> Cc(C.data, C.m, C.n, C.ld);
      mem::DataHandle* hC = tile_handle(rt, Cc, i * ts, j * ts, bm, bn);
      for (std::size_t l = 0; l < Kt; ++l) {
        const std::size_t bk = std::min(ts, K - l * ts);
        mem::DataHandle* hA =
            (opa == Op::NoTrans)
                ? tile_handle(rt, A, i * ts, l * ts, bm, bk)
                : tile_handle(rt, A, l * ts, i * ts, bk, bm);
        mem::DataHandle* hB =
            (opb == Op::NoTrans)
                ? tile_handle(rt, B, l * ts, j * ts, bk, bn)
                : tile_handle(rt, B, j * ts, l * ts, bn, bk);
        rt::TaskDesc d = gemm_task(opa, opb, alpha, hA, hB,
                                   l == 0 ? beta : T{1}, hC,
                                   o.attach_functional);
        set_home_and_place<T>(d, hC, i, j, o);
        detail::submit_task(rt, std::move(d), o);
      }
    }
}

/// C = alpha op(A) op(A)^T + beta C on the `uplo` triangle (SYRK), or the
/// Hermitian variant when `hermitian` (HERK: op(A)^H, real alpha/beta).
template <typename T>
void tiled_syrk(rt::Runtime& rt, Uplo uplo, Op op, T alpha,
                MatrixView<const T> A, T beta, MatrixView<T> C,
                const EmitOptions& o, bool hermitian = false) {
  using namespace detail;
  const std::size_t ts = o.tile;
  const std::size_t K = (op == Op::NoTrans) ? A.n : A.m;
  const std::size_t Nt = nt(C.n, ts), Kt = nt(K, ts);
  for (std::size_t j = 0; j < Nt; ++j) {
    for (std::size_t i = 0; i < Nt; ++i) {
      if (uplo == Uplo::Lower ? i < j : i > j) continue;
      const std::size_t bm = std::min(ts, C.n - i * ts);
      const std::size_t bn = std::min(ts, C.n - j * ts);
      MatrixView<const T> Cc(C.data, C.m, C.n, C.ld);
      mem::DataHandle* hC = tile_handle(rt, Cc, i * ts, j * ts, bm, bn);
      for (std::size_t l = 0; l < Kt; ++l) {
        const std::size_t bk = std::min(ts, K - l * ts);
        auto arow = [&](std::size_t r) {
          return (op == Op::NoTrans)
                     ? tile_handle(rt, A, r * ts, l * ts,
                                   std::min(ts, C.n - r * ts), bk)
                     : tile_handle(rt, A, l * ts, r * ts, bk,
                                   std::min(ts, C.n - r * ts));
        };
        const T b = (l == 0) ? beta : T{1};
        rt::TaskDesc d;
        if (i == j) {
          mem::DataHandle* hA = arow(i);
          d.label = hermitian ? "herk" : "syrk";
          d.accesses = {{hA, rt::Access::kR},
                        {hC, (l == 0 && beta == T{}) ? rt::Access::kW
                                                     : rt::Access::kRW}};
          d.flops = static_cast<double>(bn) * (bn + 1.0) * bk * flop_scale<T>;
          d.min_dim = std::min(bn, bk);
          d.eff_factor = 0.95;
          d.single_precision = is_single<T>;
          if (o.attach_functional) {
            if (hermitian) {
              if constexpr (!std::is_floating_point_v<T>) {
                const real_t<T> ra = std::real(alpha), rb = std::real(b);
                d.fn = [uplo, op, ra, rb](const rt::FunctionalCtx& ctx) {
                  host::herk(uplo, op, ra, in_view<T>(ctx, 0), rb,
                             out_view<T>(ctx, 1));
                };
              }
            } else {
              d.fn = [uplo, op, alpha, b](const rt::FunctionalCtx& ctx) {
                host::syrk(uplo, op, alpha, in_view<T>(ctx, 0), b,
                           out_view<T>(ctx, 1));
              };
            }
          }
        } else {
          // Off-diagonal tile: a plain GEMM between two row panels of A.
          mem::DataHandle* hAi = arow(i);
          mem::DataHandle* hAj = arow(j);
          const Op opb = hermitian ? flip_conj(op) : flip(op);
          d = gemm_task(op, opb, alpha, hAi, hAj, b, hC,
                        o.attach_functional);
          d.label = hermitian ? "herk" : "syrk";
        }
        set_home_and_place<T>(d, hC, i, j, o);
        detail::submit_task(rt, std::move(d), o);
      }
    }
  }
}

/// C = alpha op(A) op(B)^T + alpha op(B) op(A)^T + beta C on the triangle
/// (SYR2K) or the Hermitian rank-2k variant when `hermitian` (HER2K).
template <typename T>
void tiled_syr2k(rt::Runtime& rt, Uplo uplo, Op op, T alpha,
                 MatrixView<const T> A, MatrixView<const T> B, T beta,
                 MatrixView<T> C, const EmitOptions& o,
                 bool hermitian = false) {
  using namespace detail;
  const std::size_t ts = o.tile;
  const std::size_t K = (op == Op::NoTrans) ? A.n : A.m;
  const std::size_t Nt = nt(C.n, ts), Kt = nt(K, ts);
  for (std::size_t j = 0; j < Nt; ++j) {
    for (std::size_t i = 0; i < Nt; ++i) {
      if (uplo == Uplo::Lower ? i < j : i > j) continue;
      const std::size_t bm = std::min(ts, C.n - i * ts);
      const std::size_t bn = std::min(ts, C.n - j * ts);
      MatrixView<const T> Cc(C.data, C.m, C.n, C.ld);
      mem::DataHandle* hC = tile_handle(rt, Cc, i * ts, j * ts, bm, bn);
      for (std::size_t l = 0; l < Kt; ++l) {
        const std::size_t bk = std::min(ts, K - l * ts);
        auto panel = [&](MatrixView<const T> M, std::size_t r) {
          return (op == Op::NoTrans)
                     ? tile_handle(rt, M, r * ts, l * ts,
                                   std::min(ts, C.n - r * ts), bk)
                     : tile_handle(rt, M, l * ts, r * ts, bk,
                                   std::min(ts, C.n - r * ts));
        };
        const T b = (l == 0) ? beta : T{1};
        rt::TaskDesc d;
        d.label = hermitian ? "her2k" : "syr2k";
        d.single_precision = is_single<T>;
        if (i == j) {
          mem::DataHandle* hAi = panel(A, i);
          mem::DataHandle* hBi = panel(B, i);
          d.accesses = {{hAi, rt::Access::kR},
                        {hBi, rt::Access::kR},
                        {hC, (l == 0 && beta == T{}) ? rt::Access::kW
                                                     : rt::Access::kRW}};
          d.flops =
              2.0 * static_cast<double>(bn) * (bn + 1.0) * bk * flop_scale<T>;
          d.min_dim = std::min(bn, bk);
          d.eff_factor = 0.95;
          if (o.attach_functional) {
            if (hermitian) {
              if constexpr (!std::is_floating_point_v<T>) {
                const real_t<T> rb = std::real(b);
                d.fn = [uplo, op, alpha, rb](const rt::FunctionalCtx& ctx) {
                  host::her2k(uplo, op, alpha, in_view<T>(ctx, 0),
                              in_view<T>(ctx, 1), rb, out_view<T>(ctx, 2));
                };
              }
            } else {
              d.fn = [uplo, op, alpha, b](const rt::FunctionalCtx& ctx) {
                host::syr2k(uplo, op, alpha, in_view<T>(ctx, 0),
                            in_view<T>(ctx, 1), b, out_view<T>(ctx, 2));
              };
            }
          }
        } else {
          // Fused off-diagonal update:
          //   C_ij += alpha A_i B_j^T' + alpha' B_i A_j^T'.
          mem::DataHandle* hAi = panel(A, i);
          mem::DataHandle* hBj = panel(B, j);
          mem::DataHandle* hBi = panel(B, i);
          mem::DataHandle* hAj = panel(A, j);
          d.accesses = {{hAi, rt::Access::kR},
                        {hBj, rt::Access::kR},
                        {hBi, rt::Access::kR},
                        {hAj, rt::Access::kR},
                        {hC, (l == 0 && beta == T{}) ? rt::Access::kW
                                                     : rt::Access::kRW}};
          d.flops = 4.0 * static_cast<double>(bm) * bn * bk * flop_scale<T>;
          d.min_dim = std::min({bm, bn, bk});
          const Op opb = hermitian ? flip_conj(op) : flip(op);
          if (o.attach_functional) {
            const T a2 = hermitian ? conj_if(alpha) : alpha;
            d.fn = [op, opb, alpha, a2, b](const rt::FunctionalCtx& ctx) {
              host::gemm(op, opb, alpha, in_view<T>(ctx, 0),
                         in_view<T>(ctx, 1), b, out_view<T>(ctx, 4));
              host::gemm(op, opb, a2, in_view<T>(ctx, 2), in_view<T>(ctx, 3),
                         T{1}, out_view<T>(ctx, 4));
            };
          }
        }
        set_home_and_place<T>(d, hC, i, j, o);
        detail::submit_task(rt, std::move(d), o);
      }
    }
  }
}

/// C = alpha A_sym B + beta C (Side::Left) or alpha B A_sym + beta C
/// (Side::Right); Hermitian variant when `hermitian` (HEMM).
template <typename T>
void tiled_symm(rt::Runtime& rt, Side side, Uplo uplo, T alpha,
                MatrixView<const T> A, MatrixView<const T> B, T beta,
                MatrixView<T> C, const EmitOptions& o,
                bool hermitian = false) {
  using namespace detail;
  const std::size_t ts = o.tile;
  const std::size_t Mt = nt(C.m, ts), Nt = nt(C.n, ts);
  const std::size_t Lt = (side == Side::Left) ? Mt : Nt;
  const std::size_t Lext = (side == Side::Left) ? C.m : C.n;
  for (std::size_t i = 0; i < Mt; ++i)
    for (std::size_t j = 0; j < Nt; ++j) {
      const std::size_t bm = std::min(ts, C.m - i * ts);
      const std::size_t bn = std::min(ts, C.n - j * ts);
      MatrixView<const T> Cc(C.data, C.m, C.n, C.ld);
      mem::DataHandle* hC = tile_handle(rt, Cc, i * ts, j * ts, bm, bn);
      for (std::size_t l = 0; l < Lt; ++l) {
        const std::size_t bl = std::min(ts, Lext - l * ts);
        const T b = (l == 0) ? beta : T{1};
        const std::size_t diag_idx = (side == Side::Left) ? i : j;
        rt::TaskDesc d;
        d.single_precision = is_single<T>;
        if (l == diag_idx) {
          // Diagonal block of the symmetric operand: SYMM/HEMM tile kernel.
          mem::DataHandle* hAd =
              tile_handle(rt, A, l * ts, l * ts, bl, bl);
          mem::DataHandle* hB =
              (side == Side::Left)
                  ? tile_handle(rt, B, l * ts, j * ts, bl, bn)
                  : tile_handle(rt, B, i * ts, l * ts, bm, bl);
          d.label = hermitian ? "hemm" : "symm";
          d.accesses = {{hAd, rt::Access::kR},
                        {hB, rt::Access::kR},
                        {hC, (l == 0 && beta == T{}) ? rt::Access::kW
                                                     : rt::Access::kRW}};
          d.flops = 2.0 * static_cast<double>(bm) * bn * bl * flop_scale<T>;
          d.min_dim = std::min({bm, bn, bl});
          d.eff_factor = 0.95;
          if (o.attach_functional) {
            if (hermitian) {
              if constexpr (!std::is_floating_point_v<T>) {
                d.fn = [side, uplo, alpha, b](const rt::FunctionalCtx& ctx) {
                  host::hemm(side, uplo, alpha, in_view<T>(ctx, 0),
                             in_view<T>(ctx, 1), b, out_view<T>(ctx, 2));
                };
              }
            } else {
              d.fn = [side, uplo, alpha, b](const rt::FunctionalCtx& ctx) {
                host::symm(side, uplo, alpha, in_view<T>(ctx, 0),
                           in_view<T>(ctx, 1), b, out_view<T>(ctx, 2));
              };
            }
          }
        } else {
          // Off-diagonal block: the stored tile of A, possibly transposed.
          const std::size_t r = (side == Side::Left) ? i : l;
          const std::size_t c = (side == Side::Left) ? l : j;
          const bool stored = (uplo == Uplo::Lower) ? (r >= c) : (r <= c);
          const Op opsym =
              stored ? Op::NoTrans
                     : (hermitian ? Op::ConjTrans : Op::Trans);
          const std::size_t sr = stored ? r : c;
          const std::size_t sc = stored ? c : r;
          const std::size_t srm = std::min(ts, Lext - sr * ts);
          const std::size_t scn = std::min(ts, Lext - sc * ts);
          mem::DataHandle* hAs =
              tile_handle(rt, A, sr * ts, sc * ts, srm, scn);
          if (side == Side::Left) {
            mem::DataHandle* hB = tile_handle(rt, B, l * ts, j * ts, bl, bn);
            d = gemm_task(opsym, Op::NoTrans, alpha, hAs, hB, b, hC,
                          o.attach_functional);
          } else {
            mem::DataHandle* hB = tile_handle(rt, B, i * ts, l * ts, bm, bl);
            d = gemm_task(Op::NoTrans, opsym, alpha, hB, hAs, b, hC,
                          o.attach_functional);
          }
          d.label = hermitian ? "hemm" : "symm";
        }
        set_home_and_place<T>(d, hC, i, j, o);
        detail::submit_task(rt, std::move(d), o);
      }
    }
}

/// B = alpha op(A) B (Side::Left) or alpha B op(A) (Side::Right), with A
/// triangular; in place on B.
template <typename T>
void tiled_trmm(rt::Runtime& rt, Side side, Uplo uplo, Op op, Diag diag,
                T alpha, MatrixView<const T> A, MatrixView<T> B,
                const EmitOptions& o) {
  using namespace detail;
  const std::size_t ts = o.tile;
  const std::size_t Mt = nt(B.m, ts), Nt = nt(B.n, ts);
  const std::size_t Kt = (side == Side::Left) ? Mt : Nt;
  const std::size_t Kext = (side == Side::Left) ? B.m : B.n;
  const bool eff_lower = (uplo == Uplo::Lower) == (op == Op::NoTrans);
  MatrixView<const T> Bc(B.data, B.m, B.n, B.ld);

  // Left, effective lower: row block k reads original row blocks l < k, so
  // process k descending (their TRMM runs later).  Mirrored for the other
  // combinations.
  const bool descending = (side == Side::Left) ? eff_lower : !eff_lower;

  for (std::size_t step = 0; step < Kt; ++step) {
    const std::size_t k = descending ? Kt - 1 - step : step;
    const std::size_t bk = std::min(ts, Kext - k * ts);
    mem::DataHandle* hAkk = tile_handle(rt, A, k * ts, k * ts, bk, bk);
    const std::size_t other = (side == Side::Left) ? Nt : Mt;
    for (std::size_t j = 0; j < other; ++j) {
      const std::size_t bj = std::min(
          ts, ((side == Side::Left) ? B.n : B.m) - j * ts);
      const std::size_t bi = (side == Side::Left) ? bk : bj;
      const std::size_t bn2 = (side == Side::Left) ? bj : bk;
      const std::size_t ti = (side == Side::Left) ? k : j;
      const std::size_t tj = (side == Side::Left) ? j : k;
      mem::DataHandle* hBk =
          tile_handle(rt, Bc, ti * ts, tj * ts, bi, bn2);

      // Diagonal TRMM tile.
      rt::TaskDesc d;
      d.label = "trmm";
      d.accesses = {{hAkk, rt::Access::kR}, {hBk, rt::Access::kRW}};
      d.flops = static_cast<double>(bi) * bn2 * bk * flop_scale<T>;
      d.min_dim = std::min(bi, bn2);
      d.eff_factor = 0.8;
      d.single_precision = is_single<T>;
      if (o.attach_functional)
        d.fn = [side, uplo, op, diag, alpha](const rt::FunctionalCtx& ctx) {
          host::trmm(side, uplo, op, diag, alpha, in_view<T>(ctx, 0),
                     out_view<T>(ctx, 1));
        };
      set_home_and_place<T>(d, hBk, ti, tj, o);
      detail::submit_task(rt, std::move(d), o);

      // Off-diagonal accumulations from the original B blocks.
      for (std::size_t l = 0; l < Kt; ++l) {
        // Left needs op(A)[k,l] != 0, Right needs op(A)[l,k] != 0.
        const bool contributes = (side == Side::Left)
                                     ? (eff_lower ? l < k : l > k)
                                     : (eff_lower ? l > k : l < k);
        if (!contributes) continue;
        const std::size_t bl = std::min(ts, Kext - l * ts);
        // Stored tile of op(A)[k,l] (Left) / op(A)[l,k] (Right).
        const std::size_t rr = (side == Side::Left) ? k : l;
        const std::size_t cc = (side == Side::Left) ? l : k;
        const std::size_t sr = (op == Op::NoTrans) ? rr : cc;
        const std::size_t sc = (op == Op::NoTrans) ? cc : rr;
        mem::DataHandle* hAkl =
            tile_handle(rt, A, sr * ts, sc * ts,
                        std::min(ts, Kext - sr * ts),
                        std::min(ts, Kext - sc * ts));
        rt::TaskDesc g;
        if (side == Side::Left) {
          mem::DataHandle* hBl = tile_handle(rt, Bc, l * ts, j * ts, bl, bj);
          g = gemm_task(op, Op::NoTrans, alpha, hAkl, hBl, T{1}, hBk,
                        o.attach_functional);
        } else {
          mem::DataHandle* hBl = tile_handle(rt, Bc, j * ts, l * ts, bj, bl);
          g = gemm_task(Op::NoTrans, op, alpha, hBl, hAkl, T{1}, hBk,
                        o.attach_functional);
        }
        g.label = "trmm";
        set_home_and_place<T>(g, hBk, ti, tj, o);
        detail::submit_task(rt, std::move(g), o);
      }
    }
  }
}

/// Solve op(A) X = alpha B (Side::Left) or X op(A) = alpha B (Side::Right);
/// X overwrites B.  A triangular.
template <typename T>
void tiled_trsm(rt::Runtime& rt, Side side, Uplo uplo, Op op, Diag diag,
                T alpha, MatrixView<const T> A, MatrixView<T> B,
                const EmitOptions& o) {
  using namespace detail;
  const std::size_t ts = o.tile;
  const std::size_t Mt = nt(B.m, ts), Nt = nt(B.n, ts);
  const std::size_t Kt = (side == Side::Left) ? Mt : Nt;
  const std::size_t Kext = (side == Side::Left) ? B.m : B.n;
  const bool eff_lower = (uplo == Uplo::Lower) == (op == Op::NoTrans);
  MatrixView<const T> Bc(B.data, B.m, B.n, B.ld);

  // Forward substitution (ascending) when the effective factor is lower for
  // Side::Left; Side::Right mirrors the order.
  const bool ascending = (side == Side::Left) ? eff_lower : !eff_lower;

  for (std::size_t step = 0; step < Kt; ++step) {
    const std::size_t k = ascending ? step : Kt - 1 - step;
    const bool first = (step == 0);
    const std::size_t bk = std::min(ts, Kext - k * ts);
    mem::DataHandle* hAkk = tile_handle(rt, A, k * ts, k * ts, bk, bk);
    const std::size_t other = (side == Side::Left) ? Nt : Mt;
    const T alpha_k = first ? alpha : T{1};

    for (std::size_t j = 0; j < other; ++j) {
      const std::size_t bj = std::min(
          ts, ((side == Side::Left) ? B.n : B.m) - j * ts);
      const std::size_t ti = (side == Side::Left) ? k : j;
      const std::size_t tj = (side == Side::Left) ? j : k;
      const std::size_t bi = (side == Side::Left) ? bk : bj;
      const std::size_t bn2 = (side == Side::Left) ? bj : bk;
      mem::DataHandle* hBk = tile_handle(rt, Bc, ti * ts, tj * ts, bi, bn2);

      rt::TaskDesc d;
      d.label = "trsm";
      d.accesses = {{hAkk, rt::Access::kR}, {hBk, rt::Access::kRW}};
      d.flops = static_cast<double>(bi) * bn2 * bk * flop_scale<T>;
      d.min_dim = std::min(bi, bn2);
      d.eff_factor = 0.5;  // triangular solves run well below GEMM speed
      d.single_precision = is_single<T>;
      if (o.attach_functional)
        d.fn = [side, uplo, op, diag, alpha_k](const rt::FunctionalCtx& ctx) {
          host::trsm(side, uplo, op, diag, alpha_k, in_view<T>(ctx, 0),
                     out_view<T>(ctx, 1));
        };
      set_home_and_place<T>(d, hBk, ti, tj, o);
      detail::submit_task(rt, std::move(d), o);

      // Update the not-yet-solved blocks with the fresh X_k.
      for (std::size_t m = 0; m < Kt; ++m) {
        const bool remaining = ascending ? m > k : m < k;
        if (!remaining) continue;
        const std::size_t bmm = std::min(ts, Kext - m * ts);
        const std::size_t sr = (op == Op::NoTrans)
                                   ? ((side == Side::Left) ? m : k)
                                   : ((side == Side::Left) ? k : m);
        const std::size_t sc = (op == Op::NoTrans)
                                   ? ((side == Side::Left) ? k : m)
                                   : ((side == Side::Left) ? m : k);
        mem::DataHandle* hAmk =
            tile_handle(rt, A, sr * ts, sc * ts,
                        std::min(ts, Kext - sr * ts),
                        std::min(ts, Kext - sc * ts));
        const T beta_step = first ? alpha : T{1};
        rt::TaskDesc g;
        if (side == Side::Left) {
          mem::DataHandle* hBm = tile_handle(rt, Bc, m * ts, j * ts, bmm, bj);
          g = gemm_task(op, Op::NoTrans, T{-1}, hAmk, hBk, beta_step, hBm,
                        o.attach_functional);
          set_home_and_place<T>(g, hBm, m, j, o);
        } else {
          mem::DataHandle* hBm = tile_handle(rt, Bc, j * ts, m * ts, bj, bmm);
          g = gemm_task(Op::NoTrans, op, T{-1}, hBk, hAmk, beta_step, hBm,
                        o.attach_functional);
          set_home_and_place<T>(g, hBm, j, m, o);
        }
        g.label = "trsm";
        detail::submit_task(rt, std::move(g), o);
      }
    }
  }
}

/// HEMM / HERK / HER2K: the Hermitian trio (complex element types).
template <typename T>
void tiled_hemm(rt::Runtime& rt, Side side, Uplo uplo, T alpha,
                MatrixView<const T> A, MatrixView<const T> B, T beta,
                MatrixView<T> C, const EmitOptions& o) {
  static_assert(!std::is_floating_point_v<T>, "HEMM requires a complex type");
  tiled_symm(rt, side, uplo, alpha, A, B, beta, C, o, /*hermitian=*/true);
}

template <typename T>
void tiled_herk(rt::Runtime& rt, Uplo uplo, Op op, real_t<T> alpha,
                MatrixView<const T> A, real_t<T> beta, MatrixView<T> C,
                const EmitOptions& o) {
  static_assert(!std::is_floating_point_v<T>, "HERK requires a complex type");
  tiled_syrk(rt, uplo, op, T{alpha}, A, T{beta}, C, o, /*hermitian=*/true);
}

template <typename T>
void tiled_her2k(rt::Runtime& rt, Uplo uplo, Op op, T alpha,
                 MatrixView<const T> A, MatrixView<const T> B,
                 real_t<T> beta, MatrixView<T> C, const EmitOptions& o) {
  static_assert(!std::is_floating_point_v<T>, "HER2K requires a complex type");
  tiled_syr2k(rt, uplo, op, alpha, A, B, T{beta}, C, o, /*hermitian=*/true);
}

}  // namespace xkb::blas
