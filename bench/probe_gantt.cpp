// Calibration probe: per-GPU occupancy and an ASCII Gantt chart of one
// XKBlas GEMM run -- the tool used to find load-imbalance bubbles while
// calibrating the scheduler (see DESIGN.md).
//
//   probe_gantt [N] [tile] [prepare_window]
#include <cstdio>
#include "baselines/common.hpp"
#include "trace/gantt.hpp"
using namespace xkb;
using namespace xkb::baselines;

int main(int argc, char** argv) {
  std::size_t n = argc > 1 ? atoi(argv[1]) : 32768;
  std::size_t ts = argc > 2 ? atoi(argv[2]) : 2048;
  int window = argc > 3 ? atoi(argv[3]) : 16;
  ModelSpec s = spec_for_library("xkblas");
  s.prepare_window = window;

  rt::PerfModel perf;
  rt::PlatformOptions popt;
  rt::Platform plat(topo::Topology::dgx1(), perf, popt);
  rt::RuntimeOptions ropt;
  ropt.heuristics = s.heur;
  ropt.prepare_window = s.prepare_window;
  ropt.task_overhead = s.task_overhead;
  rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(), ropt);
  RoutinePlan plan =
      plan_routine(runtime, Blas3::kGemm, n, emit_options(s, ts, 8));
  plan.emit();
  plan.coherent();
  double t = runtime.run();
  printf("makespan %.3f  tflops %.2f  steals %zu\n", t, plan.flops/t/1e12, runtime.steals());
  for (int g = 0; g < 8; ++g)
    printf("GPU%d kernel busy %.3f occupancy %.1f%%\n", g, plat.kernel_busy(g), 100*plat.kernel_busy(g)/t);
  printf("%s\n", trace::gantt_ascii(plat.trace(), 8, 110).c_str());
  return 0;
}
