// The XKBlas-like public API: an asynchronous, LAPACK-layout BLAS level-3
// library for (simulated) multi-GPU nodes.
//
// This is the paper's primary artifact.  Key properties reproduced here:
//   * every routine is asynchronous (`*_async`): it only submits tasks;
//   * only the LAPACK matrix layout is supported -- tiles are sub-matrix
//     views, never host-side copies into a tile layout;
//   * lazy host coherency: results come back to the CPU only through
//     `memory_coherent_async`, enabling composition of successive BLAS
//     calls without round trips (paper Section IV-F);
//   * `distribute_2d_block_cyclic_async` pre-places tiles for the
//     data-on-device scenario of Section IV-C;
//   * the two topology heuristics are configuration switches
//     (rt::HeuristicConfig) consulted by the data manager.
//
// Usage:
//   xkblas::Context ctx;                        // a simulated DGX-1
//   ctx.gemm_async(Op::NoTrans, Op::NoTrans, 1.0, A, B, 0.0, C);
//   ctx.memory_coherent_async(C);
//   double t = ctx.sync();                      // virtual seconds
#pragma once

#include <cstddef>
#include <memory>

#include "blas/tiled.hpp"
#include "blas/tiled_factor.hpp"
#include "runtime/runtime.hpp"
#include "trace/trace.hpp"

namespace xkblas {

using xkb::Diag;
using xkb::Matrix;
using xkb::MatrixView;
using xkb::Op;
using xkb::Side;
using xkb::Uplo;

enum class SchedulerKind { kOwnerComputes, kDmdas, kRoundRobin };

struct Options {
  xkb::topo::Topology topology = xkb::topo::Topology::dgx1();
  xkb::rt::PerfModel perf;
  xkb::rt::PlatformOptions platform;
  xkb::rt::RuntimeOptions runtime;
  SchedulerKind scheduler = SchedulerKind::kOwnerComputes;
  std::size_t tile = 2048;
};

class Context {
 public:
  explicit Context(Options opt = {});
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ---- asynchronous BLAS level-3 (LAPACK layout views) ----
  template <typename T>
  void gemm_async(Op opa, Op opb, T alpha, MatrixView<const T> a,
                  MatrixView<const T> b, T beta, MatrixView<T> c) {
    xkb::blas::tiled_gemm(rt(), opa, opb, alpha, a, b, beta, c, emit_);
  }
  template <typename T>
  void symm_async(Side side, Uplo uplo, T alpha, MatrixView<const T> a,
                  MatrixView<const T> b, T beta, MatrixView<T> c) {
    xkb::blas::tiled_symm(rt(), side, uplo, alpha, a, b, beta, c, emit_);
  }
  template <typename T>
  void syrk_async(Uplo uplo, Op op, T alpha, MatrixView<const T> a, T beta,
                  MatrixView<T> c) {
    xkb::blas::tiled_syrk(rt(), uplo, op, alpha, a, beta, c, emit_);
  }
  template <typename T>
  void syr2k_async(Uplo uplo, Op op, T alpha, MatrixView<const T> a,
                   MatrixView<const T> b, T beta, MatrixView<T> c) {
    xkb::blas::tiled_syr2k(rt(), uplo, op, alpha, a, b, beta, c, emit_);
  }
  template <typename T>
  void trmm_async(Side side, Uplo uplo, Op op, Diag diag, T alpha,
                  MatrixView<const T> a, MatrixView<T> b) {
    xkb::blas::tiled_trmm(rt(), side, uplo, op, diag, alpha, a, b, emit_);
  }
  template <typename T>
  void trsm_async(Side side, Uplo uplo, Op op, Diag diag, T alpha,
                  MatrixView<const T> a, MatrixView<T> b) {
    xkb::blas::tiled_trsm(rt(), side, uplo, op, diag, alpha, a, b, emit_);
  }
  template <typename T>
  void hemm_async(Side side, Uplo uplo, T alpha, MatrixView<const T> a,
                  MatrixView<const T> b, T beta, MatrixView<T> c) {
    xkb::blas::tiled_hemm(rt(), side, uplo, alpha, a, b, beta, c, emit_);
  }
  template <typename T>
  void herk_async(Uplo uplo, Op op, xkb::real_t<T> alpha,
                  MatrixView<const T> a, xkb::real_t<T> beta,
                  MatrixView<T> c) {
    xkb::blas::tiled_herk(rt(), uplo, op, alpha, a, beta, c, emit_);
  }
  template <typename T>
  void her2k_async(Uplo uplo, Op op, T alpha, MatrixView<const T> a,
                   MatrixView<const T> b, xkb::real_t<T> beta,
                   MatrixView<T> c) {
    xkb::blas::tiled_her2k(rt(), uplo, op, alpha, a, b, beta, c, emit_);
  }

  // ---- one-sided factorizations (composition of BLAS-3 graphs) ----

  /// Tiled Cholesky of the uplo triangle of A, in place (A = L L^T).
  template <typename T>
  void potrf_async(Uplo uplo, MatrixView<T> a) {
    xkb::blas::tiled_potrf(rt(), uplo, a, emit_);
  }
  /// Tiled LU without pivoting, in place (A = L U, L unit-lower).
  template <typename T>
  void getrf_nopiv_async(MatrixView<T> a) {
    xkb::blas::tiled_getrf_nopiv(rt(), a, emit_);
  }

  /// Solve A X = B given a Cholesky factor from potrf_async (in place on B).
  template <typename T>
  void potrs_async(Uplo uplo, MatrixView<const T> a, MatrixView<T> b) {
    if (uplo == Uplo::Lower) {
      trsm_async<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                    T{1}, a, b);
      trsm_async<T>(Side::Left, Uplo::Lower, Op::Trans, Diag::NonUnit, T{1},
                    a, b);
    } else {
      trsm_async<T>(Side::Left, Uplo::Upper, Op::Trans, Diag::NonUnit, T{1},
                    a, b);
      trsm_async<T>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                    T{1}, a, b);
    }
  }

  /// Cholesky solve: factor A (destroyed) and solve A X = B, all composed
  /// in one task graph without intermediate synchronisation.
  template <typename T>
  void posv_async(Uplo uplo, MatrixView<T> a, MatrixView<T> b) {
    potrf_async<T>(uplo, a);
    potrs_async<T>(uplo, a, b);
  }

  /// Solve A X = B given an LU factor from getrf_nopiv_async (in place).
  template <typename T>
  void getrs_nopiv_async(MatrixView<const T> a, MatrixView<T> b) {
    trsm_async<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T{1}, a,
                  b);
    trsm_async<T>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T{1},
                  a, b);
  }

  /// LU solve without pivoting: factor A (destroyed) and solve A X = B.
  template <typename T>
  void gesv_nopiv_async(MatrixView<T> a, MatrixView<T> b) {
    getrf_nopiv_async<T>(a);
    getrs_nopiv_async<T>(a, b);
  }

  // ---- data management ----

  /// Request that the host copy of every tile of `m` become valid once the
  /// tasks producing them complete (xkblas_memory_coherent_async).
  template <typename T>
  void memory_coherent_async(MatrixView<const T> m) {
    for_each_tile(m, [&](xkb::mem::DataHandle* h) { rt().coherent_async(h); });
  }

  /// Declare that the CPU overwrote (part of) `m` on the host: device
  /// replicas of its tiles are invalidated once pending accesses complete,
  /// and subsequent tasks re-fetch the fresh host data.  This is how mixed
  /// CPU/GPU pipelines (e.g. a blocked Cholesky whose diagonal blocks
  /// factorize on the CPU) stay coherent without global barriers.
  template <typename T>
  void host_overwrite_async(MatrixView<const T> m) {
    for_each_tile(m, [&](xkb::mem::DataHandle* h) {
      xkb::rt::TaskDesc d;
      d.label = "host_write";
      d.accesses.push_back({h, xkb::rt::Access::kW});
      d.host_task = true;
      rt().submit(std::move(d));
    });
  }

  /// Distribute the tiles of `m` over the GPUs in a 2D block-cyclic pattern
  /// (xkblas_distribute_2Dblock_cyclic_async); also sets tile homes so the
  /// owner-computes scheduler follows the distribution.
  template <typename T>
  void distribute_2d_block_cyclic_async(MatrixView<const T> m, int P = -1,
                                        int Q = -1);

  /// Run the simulation until all submitted work completes; returns the
  /// current virtual time (seconds since Context creation).
  double sync();

  // ---- introspection ----
  xkb::rt::Runtime& rt() { return *rt_; }
  xkb::rt::Platform& platform() { return *plat_; }
  xkb::trace::Trace& trace() { return plat_->trace(); }
  const Options& options() const { return opt_; }
  double now() const;

 private:
  template <typename T, typename F>
  void for_each_tile(MatrixView<const T> m, F&& f);

  Options opt_;
  xkb::blas::EmitOptions emit_;
  std::unique_ptr<xkb::rt::Platform> plat_;
  std::unique_ptr<xkb::rt::Runtime> rt_;
};

// ---- template member definitions ----

template <typename T, typename F>
void Context::for_each_tile(MatrixView<const T> m, F&& f) {
  const std::size_t ts = opt_.tile;
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts) {
      const std::size_t bm = std::min(ts, m.m - i);
      const std::size_t bn = std::min(ts, m.n - j);
      f(xkb::blas::detail::tile_handle(rt(), m, i, j, bm, bn));
    }
}

template <typename T>
void Context::distribute_2d_block_cyclic_async(MatrixView<const T> m, int P,
                                               int Q) {
  if (P <= 0 || Q <= 0) {
    auto [p, q] = xkb::blas::default_grid(plat_->num_gpus());
    P = p;
    Q = q;
  }
  const std::size_t ts = opt_.tile;
  const auto owner = xkb::blas::block_cyclic({P, Q});
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts) {
      const std::size_t bm = std::min(ts, m.m - i);
      const std::size_t bn = std::min(ts, m.n - j);
      xkb::mem::DataHandle* h =
          xkb::blas::detail::tile_handle(rt(), m, i, j, bm, bn);
      const int dev = owner(i / ts, j / ts);
      h->home_device = dev;
      xkb::rt::TaskDesc d;
      d.label = "dist";
      d.accesses.push_back({h, xkb::rt::Access::kR});
      d.forced_device = dev;
      rt().submit(std::move(d));
    }
}

}  // namespace xkblas
