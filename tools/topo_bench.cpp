// topo_bench: scale-out evidence for the tdl routed topology and for the
// cost of xkb::check at scale.
//
// Sweeps fat-tree machines at 8 / 64 / 256 / 1024 devices and runs the same
// stencil workload on each twice, unchecked and then checked, and emits
// BENCH_topo.json (schema xkb.bench.topo/2, obs::Provenance, --append
// trajectory like perf_bench): per-point simulated events/sec and peak RSS
// (VmHWM where /proc/self/status exists) of both runs, their ratio
// check_ratio = checked / unchecked events/sec, and the topology's
// sparse-representation accounting against the dense n*n counterfactual.
// VmHWM is a process high-water mark, so the unchecked run goes first:
// the checked run's peak is then its own or an earlier checked run's.
//
// Each run also reports allocs_per_task -- global operator new calls from
// bridge.emit() to the end of runtime.run(), divided by the task count
// (this file replaces operator new to count them) -- and its host drain_s
// (runtime.run()) and teardown_s (destroying the session).
//
// Hard gates (CI + ctest):
//   exit 4  a checked run fails (xkb::check violation or failed run), or
//           the checked and unchecked runs of a size process different
//           numbers of simulated events (the checker must only observe)
//   exit 5  memory scale-out violated: sparse_bytes must beat the dense
//           n*n counterfactual at 64 devices and by 8x at 256+, and
//           per-device sparse bytes must stay within 4x of the smallest
//           size's -- per-device memory is O(active links), not
//           O(devices^2).
//   exit 6  full mode only: the checked run at 1024 devices peaks at
//           100 MB of RSS or more
//   exit 7  allocations per task over budget at some size (kAllocGates):
//           unchecked above half of what the runtime made before its task
//           lifecycle moved into slabs and pools, or checked above the
//           count reached once the checker's records and clocks were
//           pooled too
//
//   topo_bench [--smoke] [--out F] [--append]
//
// --smoke stops the sweep at 64 devices for a seconds-long ctest entry;
// the CI topology job runs the full 1024-device soak.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/library_model.hpp"
#include "obs/provenance.hpp"
#include "tdl/presets.hpp"
#include "topo/topology.hpp"
#include "trajectory.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"

using namespace xkb;

namespace {

/// operator new calls while `g_counting` is set (one thread: the sweep).
std::uint64_t g_allocs = 0;
bool g_counting = false;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting) ++g_allocs;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every allocating form funnels into counted_alloc; the nothrow forms call
// these by the standard's definition.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

/// Peak resident set in KB from /proc/self/status (0 where unavailable).
std::size_t peak_rss_kb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      std::istringstream is(line.substr(6));
      std::size_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

/// Checked runs at 1024 devices must peak below this (exit 6).
constexpr std::size_t kCheckedRssGateKb = 100 * 1024;

/// Allocation budgets per sweep size (exit 7).  `unchecked_before` is
/// what this counter measured at a0e9a35, when every task, successor list,
/// version list and replica node was its own heap record: the unchecked
/// run may make at most half of it.  The checked run may make at most
/// `checked_budget`, the count once the checker's records and clocks came
/// from its own tables and pools too, rounded up to the next half.
struct AllocGate {
  int devices;
  double unchecked_before;
  double checked_budget;
};
constexpr AllocGate kAllocGates[] = {{8, 21.49, 9.5},
                                     {64, 20.46, 8.5},
                                     {256, 20.36, 8.5},
                                     {1024, 20.17, 8.0}};

const AllocGate* alloc_gate(int devices) {
  for (const AllocGate& g : kAllocGates)
    if (g.devices == devices) return &g;
  return nullptr;
}

struct Point {
  int devices = 0;
  std::string machine;
  std::size_t tasks = 0;
  std::uint64_t sim_events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::size_t rss_kb = 0;
  std::size_t sparse_bytes = 0;
  std::size_t dense_bytes = 0;
  std::size_t fabric_rows = 0;
  double allocs_per_task = 0.0;
  double drain_s = 0.0;
  double teardown_s = 0.0;
  bool check_ok = true;
  std::string check_report;
};

Point run_scale(int nodes, int gpus_per_node, bool checked) {
  tdl::FatTreeSpec spec;
  spec.nodes = nodes;
  spec.gpus_per_node = gpus_per_node;
  baselines::RunConfig cfg;
  cfg.topology = topo::Topology::from_machine(tdl::fat_tree_machine(spec));
  cfg.check.enabled = checked;

  Point p;
  p.devices = cfg.topology.num_gpus();
  p.machine = cfg.topology.name();

  // A stencil wide enough that every device owns tiles and every halo
  // exchange crosses a route; depth keeps the task count proportional to
  // the device count, so events/sec is comparable across sizes.
  std::ostringstream ws;
  ws << "stencil_1d:width=" << 2 * p.devices << ",depth=8";
  const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(ws.str()));

  auto session = std::make_unique<baselines::Session>(
      baselines::ModelSpec{}, cfg, obs::LedgerMeta{});
  rt::Runtime& runtime = session->runtime();
  wl::BridgeOptions bopt;
  bopt.home = [n = runtime.num_gpus()](std::size_t i, std::size_t) {
    return static_cast<int>(i % static_cast<std::size_t>(n));
  };
  auto bridge = std::make_unique<wl::Bridge>(runtime, g, std::move(bopt));

  g_allocs = 0;
  g_counting = true;
  const auto t0 = std::chrono::steady_clock::now();
  bridge->emit();
  bridge->coherent();
  const auto t_drain = std::chrono::steady_clock::now();
  runtime.run();
  const auto t1 = std::chrono::steady_clock::now();
  g_counting = false;
  p.rss_kb = peak_rss_kb();  // the run's peak, before capture allocates

  baselines::BenchResult res;
  session->capture(res);
  p.tasks = g.tasks.size();
  p.allocs_per_task =
      static_cast<double>(g_allocs) / static_cast<double>(p.tasks);
  p.drain_s = std::chrono::duration<double>(t1 - t_drain).count();
  p.sim_events = res.events_processed;
  p.wall_s = std::chrono::duration<double>(t1 - t0).count();
  p.events_per_sec =
      p.wall_s > 0 ? static_cast<double>(p.sim_events) / p.wall_s : 0.0;
  p.sparse_bytes = session->platform().topology().sparse_bytes();
  p.dense_bytes = topo::Topology::dense_bytes(p.devices);
  p.fabric_rows = session->platform().topology().fabric_rows_cached();
  p.check_ok = res.check_ok;
  p.check_report = res.check_report;
  bridge.reset();
  const auto t2 = std::chrono::steady_clock::now();
  session.reset();
  p.teardown_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t2)
                     .count();
  return p;
}

/// One sweep size: the unchecked run first, then the checked one.
struct SizePoint {
  Point unchecked, checked;
  double check_ratio() const {
    return unchecked.events_per_sec > 0
               ? checked.events_per_sec / unchecked.events_per_sec
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, append = false;
  std::string out = "BENCH_topo.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--append") append = true;
    else if (arg == "--out" && i + 1 < argc) out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: topo_bench [--smoke] [--out F] [--append]\n");
      return 2;
    }
  }

  struct Scale {
    int nodes, gpus_per_node;
  };
  std::vector<Scale> scales = {{1, 8}, {4, 16}};
  if (!smoke) {
    scales.push_back({16, 16});
    scales.push_back({64, 16});
  }

  std::vector<SizePoint> sizes;
  for (const Scale& s : scales) {
    SizePoint& sp = sizes.emplace_back();
    sp.unchecked = run_scale(s.nodes, s.gpus_per_node, /*checked=*/false);
    sp.checked = run_scale(s.nodes, s.gpus_per_node, /*checked=*/true);
    const Point& p = sp.checked;
    const Point& u = sp.unchecked;
    std::printf(
        "%-16s %5d dev  %8zu tasks  %10llu events  %7.3f s  %10.0f ev/s  "
        "rss %zu KB  unchecked %10.0f ev/s rss %zu KB  ratio %.2f  "
        "sparse %zu B (dense %zu B)  allocs/task %.2f (unchecked %.2f)  "
        "teardown/drain %.3f (unchecked %.3f)  check %s\n",
        p.machine.c_str(), p.devices, p.tasks,
        static_cast<unsigned long long>(p.sim_events), p.wall_s,
        p.events_per_sec, p.rss_kb, u.events_per_sec, u.rss_kb,
        sp.check_ratio(), p.sparse_bytes, p.dense_bytes, p.allocs_per_task,
        u.allocs_per_task, p.teardown_s / p.drain_s,
        u.teardown_s / u.drain_s, p.check_ok ? "ok" : "FAIL");
    if (!p.check_ok) {
      std::fprintf(stderr, "topo_bench: CHECK FAILED at %d devices:\n%s\n",
                   p.devices, p.check_report.c_str());
      return 4;
    }
    if (p.sim_events != sp.unchecked.sim_events) {
      std::fprintf(stderr,
                   "topo_bench: CHECK FAILED at %d devices: the checked run "
                   "processed %llu events, the unchecked one %llu\n",
                   p.devices, static_cast<unsigned long long>(p.sim_events),
                   static_cast<unsigned long long>(sp.unchecked.sim_events));
      return 4;
    }
  }

  // Memory gates: the sparse routed view must beat the dense n*n tables
  // decisively at scale, and per-device footprint must stay bounded (the
  // fat tree's active links per device are constant across sizes).
  const double per_dev_first =
      static_cast<double>(sizes.front().checked.sparse_bytes) /
      sizes.front().checked.devices;
  bool mem_ok = true;
  for (const SizePoint& sp : sizes) {
    const Point& p = sp.checked;
    // Sparse O(links) vs dense O(n^2): any win at 64 devices, a decisive
    // 8x at 256+ where the quadratic term dominates.
    const std::size_t factor = p.devices >= 256 ? 8 : 1;
    if (p.devices >= 64 && p.sparse_bytes * factor >= p.dense_bytes) {
      std::fprintf(stderr,
                   "topo_bench: MEMORY GATE FAILED: sparse %zu B vs dense "
                   "%zu B at %d devices\n",
                   p.sparse_bytes, p.dense_bytes, p.devices);
      mem_ok = false;
    }
    const double per_dev = static_cast<double>(p.sparse_bytes) / p.devices;
    if (per_dev > 4.0 * per_dev_first) {
      std::fprintf(stderr,
                   "topo_bench: MEMORY GATE FAILED: %.0f B/device at %d "
                   "devices vs %.0f B/device at %d -- not O(active links)\n",
                   per_dev, p.devices, per_dev_first,
                   sizes.front().checked.devices);
      mem_ok = false;
    }
  }
  if (!mem_ok) return 5;
  // The checker's own footprint: sparse shadow and clocks keep a checked
  // 1024-device run within a bounded budget (the dense checker took 2.5 GB).
  const Point& top = sizes.back().checked;
  if (!smoke && top.devices >= 1024 && top.rss_kb >= kCheckedRssGateKb) {
    std::fprintf(stderr,
                 "topo_bench: CHECKED RSS GATE FAILED: %zu KB peak at %d "
                 "devices (limit %zu KB)\n",
                 top.rss_kb, top.devices, kCheckedRssGateKb);
    return 6;
  }
  // Allocations per task: the runtime's task lifecycle draws its records
  // from slabs and pools, so the unchecked count must stay at half of what
  // per-task heap records cost, and the checked one at its budget.
  bool allocs_ok = true;
  for (const SizePoint& sp : sizes) {
    const AllocGate* g = alloc_gate(sp.checked.devices);
    if (!g) continue;
    if (sp.unchecked.allocs_per_task > 0.5 * g->unchecked_before) {
      std::fprintf(stderr,
                   "topo_bench: ALLOCATION GATE FAILED: %.2f allocations "
                   "per task unchecked at %d devices (limit %.2f, half of "
                   "%.2f)\n",
                   sp.unchecked.allocs_per_task, g->devices,
                   0.5 * g->unchecked_before, g->unchecked_before);
      allocs_ok = false;
    }
    if (sp.checked.allocs_per_task > g->checked_budget) {
      std::fprintf(stderr,
                   "topo_bench: ALLOCATION GATE FAILED: %.2f allocations "
                   "per task checked at %d devices (limit %.2f)\n",
                   sp.checked.allocs_per_task, g->devices, g->checked_budget);
      allocs_ok = false;
    }
  }
  if (!allocs_ok) return 7;

  const obs::Provenance prov =
      obs::Provenance::current("xkb.bench.topo", 2);
  const trajectory::Trajectory traj =
      append ? trajectory::load(out) : trajectory::Trajectory{};
  char cur[448];
  std::snprintf(cur, sizeof cur,
                "{\"git\": \"%s\", \"date\": \"%s\", \"mode\": \"%s\", "
                "\"devices\": %d, \"events_per_sec\": %.0f, "
                "\"sparse_bytes\": %zu, \"peak_rss_kb\": %zu, "
                "\"check_ratio\": %.3f, \"allocs_per_task\": %.2f, "
                "\"unchecked_allocs_per_task\": %.2f}",
                prov.git.c_str(), prov.date.c_str(),
                smoke ? "smoke" : "full", top.devices, top.events_per_sec,
                top.sparse_bytes, top.rss_kb, sizes.back().check_ratio(),
                top.allocs_per_task, sizes.back().unchecked.allocs_per_task);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "topo_bench: cannot write '%s'\n", out.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"schema\": \"xkb.bench.topo/2\",\n");
  std::fprintf(f, "  \"provenance\": %s,\n", prov.to_json().c_str());
  trajectory::emit(f, traj, cur);
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = sizes[i].checked;
    const Point& u = sizes[i].unchecked;
    std::fprintf(
        f,
        "    {\"devices\": %d, \"machine\": \"%s\", \"tasks\": %zu, "
        "\"sim_events\": %llu, \"wall_s\": %.6f, \"events_per_sec\": %.0f, "
        "\"peak_rss_kb\": %zu, \"unchecked_events_per_sec\": %.0f, "
        "\"unchecked_peak_rss_kb\": %zu, \"check_ratio\": %.3f, "
        "\"sparse_bytes\": %zu, \"dense_bytes\": %zu, "
        "\"bytes_per_device\": %.1f, \"fabric_rows\": %zu, "
        "\"allocs_per_task\": %.2f, \"unchecked_allocs_per_task\": %.2f, "
        "\"drain_s\": %.6f, \"teardown_s\": %.6f, "
        "\"unchecked_drain_s\": %.6f, \"unchecked_teardown_s\": %.6f, "
        "\"check_ok\": true}%s\n",
        p.devices, p.machine.c_str(), p.tasks,
        static_cast<unsigned long long>(p.sim_events), p.wall_s,
        p.events_per_sec, p.rss_kb, u.events_per_sec, u.rss_kb,
        sizes[i].check_ratio(), p.sparse_bytes, p.dense_bytes,
        static_cast<double>(p.sparse_bytes) / p.devices, p.fabric_rows,
        p.allocs_per_task, u.allocs_per_task, p.drain_s, p.teardown_s,
        u.drain_s, u.teardown_s, i + 1 < sizes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gates\": {\"check\": \"ok\", \"sparse_vs_dense\": "
                  "\"ok\", \"per_device_bounded\": \"ok\", "
                  "\"allocs_per_task\": \"ok\"%s}\n}\n",
               smoke ? "" : ", \"checked_rss\": \"ok\"");
  std::fclose(f);
  std::printf("topo_bench: wrote %s\n", out.c_str());
  return 0;
}
