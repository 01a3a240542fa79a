// Google-benchmark microbenchmarks of the simulation substrate itself:
// event-engine throughput, channel submissions, cache operations, handle
// interning, task-graph submission, and the host reference kernels.  These
// bound how large a virtual experiment the simulator can run in real time.
#include <benchmark/benchmark.h>

#include "baselines/common.hpp"
#include "blas/host_blas.hpp"
#include "blas/tiled.hpp"
#include "mem/cache.hpp"
#include "mem/registry.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "util/rng.hpp"

namespace {

using namespace xkb;

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    int sink = 0;
    for (int i = 0; i < n; ++i)
      e.schedule_at(static_cast<double>(i % 97), [&sink] { ++sink; });
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384);

void BM_ChannelTransfers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::Channel c(e, "link", 12.3e9, 10e-6);
    for (int i = 0; i < 1000; ++i) c.transfer(1 << 20, [] {});
    e.run();
    benchmark::DoNotOptimize(c.bytes_moved());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelTransfers);

void BM_CacheReserveRelease(benchmark::State& state) {
  mem::Registry reg(8);
  std::vector<double> backing(1 << 16);
  std::vector<mem::DataHandle*> handles;
  for (int i = 0; i < 64; ++i)
    handles.push_back(
        reg.intern(backing.data() + i * 512, 16, 16, 512, sizeof(double)));
  mem::DeviceCache cache(0, 48 * 16 * 16 * sizeof(double));
  std::size_t i = 0;
  for (auto _ : state) {
    mem::DataHandle* h = handles[i++ % handles.size()];
    cache.reserve(h, static_cast<double>(i));
    h->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(h, static_cast<double>(i));
    benchmark::DoNotOptimize(cache.used());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheReserveRelease);

void BM_RegistryIntern(benchmark::State& state) {
  std::vector<double> backing(1 << 20);
  for (auto _ : state) {
    mem::Registry reg(8);
    for (int i = 0; i < 1024; ++i)
      reg.intern(backing.data() + i * 64, 8, 8, 512, sizeof(double));
    benchmark::DoNotOptimize(reg.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RegistryIntern);

void BM_TaskGraphSubmitExecute(benchmark::State& state) {
  const int chains = 32, depth = 16;
  std::vector<double> backing(chains);
  for (auto _ : state) {
    rt::Platform plat(topo::Topology::dgx1(), rt::PerfModel{}, {});
    rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                        {});
    for (int c = 0; c < chains; ++c) {
      mem::DataHandle* h = runtime.registry().intern(&backing[c], 1, 1, 1,
                                                     sizeof(double));
      for (int k = 0; k < depth; ++k) {
        rt::TaskDesc d;
        d.label = "t";
        d.accesses.push_back({h, rt::Access::kRW});
        d.flops = 1e9;
        d.min_dim = 1024;
        runtime.submit(std::move(d));
      }
    }
    runtime.run();
    benchmark::DoNotOptimize(runtime.tasks_completed());
  }
  state.SetItemsProcessed(state.iterations() * chains * depth);
}
BENCHMARK(BM_TaskGraphSubmitExecute);

void BM_HostGemmKernel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix<double> a(n, n), b(n, n), c(n, n);
  fill_random(a, rng);
  fill_random(b, rng);
  for (auto _ : state) {
    host::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 1.0,
                       c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_HostGemmKernel)->Arg(32)->Arg(64);

void BM_HostTrsmKernel(benchmark::State& state) {
  const std::size_t n = 64;
  Rng rng(8);
  Matrix<double> a(n, n), b(n, n);
  fill_random(a, rng);
  make_diag_dominant(a);
  fill_random(b, rng);
  for (auto _ : state) {
    host::trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                       1.0, a.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_HostTrsmKernel);

void BM_FullGemmSimulation(benchmark::State& state) {
  // Real-time cost of one paper-scale virtual experiment.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rt::Platform plat(topo::Topology::dgx1(), rt::PerfModel{}, {});
    rt::RuntimeOptions ro;
    ro.heuristics = rt::HeuristicConfig::xkblas();
    rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                        ro);
    baselines::SymbolicMatrix<double> A(n, n, 0), B(n, n, 1), C(n, n, 2);
    blas::EmitOptions eo;
    eo.tile = 2048;
    eo.attach_functional = false;
    blas::tiled_gemm<double>(runtime, Op::NoTrans, Op::NoTrans, 1.0,
                             A.cview(), B.cview(), 1.0, C.view(), eo);
    runtime.run();
    benchmark::DoNotOptimize(runtime.tasks_completed());
  }
}
BENCHMARK(BM_FullGemmSimulation)->Arg(16384)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
