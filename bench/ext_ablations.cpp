// Extension: ablations of the runtime design choices DESIGN.md calls out:
//   * prefetch window depth (how far XKaapi fetches ahead),
//   * work stealing on/off (the source of the SYR2K imbalance),
//   * device cache capacity (eviction pressure),
//   * kernel launch overhead sensitivity (XKBlas's lightweight runtime).
#include <cstdio>

#include "bench_common.hpp"

using namespace xkb;
using namespace xkb::baselines;

int main() {
  std::printf("== Extension: runtime design ablations (FP64, DGX-1) ==\n\n");

  BenchConfig gemm;
  gemm.routine = Blas3::kGemm;
  gemm.n = 24576;
  gemm.tile = 2048;

  {
    Table t({"prepare window", "GEMM TFlop/s"});
    for (int w : {1, 2, 4, 8, 16, 32}) {
      ModelSpec s = spec_for_library("xkblas");
      s.prepare_window = w;
      t.add_row({std::to_string(w),
                 Table::num(LibraryModel(s).run(gemm).tflops, 2)});
    }
    std::printf("Prefetch window depth (N=24576):\n%s\n", t.to_text().c_str());
  }

  {
    Table t({"config", "SYR2K TFlop/s", "steals", "kernel imbalance"});
    BenchConfig cfg;
    cfg.routine = Blas3::kSyr2k;
    cfg.n = 49152;
    cfg.tile = 2048;
    for (bool stealing : {true, false}) {
      ModelSpec s = spec_for_library("xkblas");
      s.stealing = stealing;
      const BenchResult r = LibraryModel(s).run(cfg);
      double kmin = 1e30, kmax = 0.0;
      for (const auto& b : r.per_gpu) {
        kmin = std::min(kmin, b.kernel);
        kmax = std::max(kmax, b.kernel);
      }
      t.add_row({stealing ? "work stealing" : "no stealing",
                 Table::num(r.tflops, 2), std::to_string(r.steals),
                 Table::num(kmax / (kmin > 0 ? kmin : 1), 2)});
    }
    std::printf("Work stealing (SYR2K N=49152):\n%s\n", t.to_text().c_str());
  }

  {
    Table t({"capacity/GPU", "GEMM TFlop/s", "evict flushes"});
    for (double gb : {32.0, 6.0, 4.0, 2.0}) {
      BenchConfig cfg = gemm;
      cfg.n = 32768;  // 3 x 8 GB of operands, ~7 GB live set per GPU
      cfg.device_capacity = static_cast<std::size_t>(gb * (1ull << 30));
      const BenchResult r =
          LibraryModel(spec_for_library("xkblas")).run(cfg);
      t.add_row({Table::num(gb, 0) + " GB",
                 r.failed ? "FAIL" : Table::num(r.tflops, 2),
                 std::to_string(r.transfers.evict_flushes)});
    }
    std::printf("Cache pressure (GEMM N=32768):\n%s\n", t.to_text().c_str());
  }

  {
    // XKaapi's read-only-first eviction vs plain LRU under pressure: LRU
    // evicts dirty tiles by recency and pays D2H flushes on the congested
    // PCIe links.
    Table t({"eviction policy", "GEMM TFlop/s", "evict flushes"});
    for (mem::EvictionPolicy pol :
         {mem::EvictionPolicy::kReadOnlyFirst, mem::EvictionPolicy::kLru}) {
      BenchConfig cfg = gemm;
      cfg.n = 32768;
      cfg.device_capacity = 2ull << 30;
      ModelSpec s = spec_for_library("xkblas");
      s.eviction = pol;
      const BenchResult r = LibraryModel(s).run(cfg);
      t.add_row({pol == mem::EvictionPolicy::kReadOnlyFirst
                     ? "read-only first (XKaapi)"
                     : "plain LRU",
                 r.failed ? "FAIL" : Table::num(r.tflops, 2),
                 std::to_string(r.transfers.evict_flushes)});
    }
    std::printf("Eviction policy at 2 GB/GPU (GEMM N=32768):\n%s\n",
                t.to_text().c_str());
  }

  {
    Table t({"per-task overhead", "GEMM N=8192 TFlop/s"});
    BenchConfig cfg = gemm;
    cfg.n = 8192;
    cfg.tile = 512;  // 4096 small tasks: overhead-sensitive regime
    for (double ov : {0.0, 3e-6, 20e-6, 100e-6}) {
      ModelSpec s = spec_for_library("xkblas");
      s.task_overhead = ov;
      t.add_row({Table::num(ov * 1e6, 0) + " us",
                 Table::num(LibraryModel(s).run(cfg).tflops, 2)});
    }
    std::printf("Runtime overhead sensitivity (small matrices):\n%s\n",
                t.to_text().c_str());
  }
  return 0;
}
