// paper_report: every table EXPERIMENTS.md quotes -- Table I, Figs. 1-9,
// Table II, the Section IV-D drop-in ratios, the extensions and the "paper
// vs measured" rows its prose argues from -- rendered as markdown blocks
// from one memo of runs, so each distinct run happens once.
//
//   paper_report                  print every block between its markers
//   paper_report EXPERIMENTS.md   compare each block in the file with a
//                                 fresh one; exit 1 naming the first block
//                                 that differs, or a missing or unknown
//                                 marker
//   XKB_UPDATE_GOLDEN=1 paper_report EXPERIMENTS.md
//                                 rewrite the file's blocks in place
//
// A block is the text between the lines `<!-- paper_report:<id> -->` and
// `<!-- /paper_report:<id> -->`.  Runs are deterministic, so a block moves
// only when a simulated number does, and the file must then move with it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "blas/tiled_factor.hpp"
#include "tdl/presets.hpp"
#include "trace/gantt.hpp"
#include "util/table.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

/// Matrix dimensions swept by the paper's figures (up to ~57k).
const std::vector<std::size_t> kSizes = {4096,  8192,  16384, 24576,
                                         32768, 40960, 49152, 57344};

ModelSpec lib(const std::string& cli,
              rt::HeuristicConfig heur = rt::HeuristicConfig::xkblas()) {
  return spec_for_library(cli, heur);
}
ModelSpec no_heur() {
  return lib("xkblas", rt::HeuristicConfig::no_heuristic());
}
ModelSpec no_topo() {
  return lib("xkblas", rt::HeuristicConfig::no_heuristic_no_topo());
}

/// Everything in a ModelSpec that shapes a run -- not its display name.
/// A field added to ModelSpec belongs here too.
std::string spec_key(const ModelSpec& s) {
  std::ostringstream k;
  k << std::hexfloat << s.dmdas << s.stealing << int(s.heur.source)
    << s.heur.optimistic_d2d << s.static_block_cyclic << s.drop_inputs
    << s.flush_outputs_each_task << s.lapack_conversion << ' '
    << s.task_overhead << ' ' << s.prepare_window << ' ' << s.call_overhead
    << ' ' << s.peak_scale << ' ' << s.max_n << ' ' << int(s.eviction);
  for (Blas3 r : s.routines) k << ',' << int(r);
  return k.str();
}

BenchConfig point(Blas3 routine, std::size_t n, std::size_t tile = 2048,
                  bool data_on_device = false) {
  BenchConfig cfg;
  cfg.routine = routine;
  cfg.n = n;
  cfg.tile = tile;
  cfg.data_on_device = data_on_device;
  return cfg;
}

/// Every run the report makes, memoized under a key naming everything that
/// determines it.  Runs are deterministic, so a hit is the result a fresh
/// run would give.
class Runs {
 public:
  const BenchResult& memo(const std::string& key,
                          const std::function<BenchResult()>& run) {
    auto it = memo_.find(key);
    if (it == memo_.end()) it = memo_.emplace(key, run()).first;
    return it->second;
  }

  /// One LibraryModel run.
  const BenchResult& run(const ModelSpec& spec, const BenchConfig& cfg) {
    std::ostringstream k;
    k << "lib " << spec_key(spec) << ' ' << int(cfg.routine) << ' ' << cfg.n
      << ' ' << cfg.tile << ' ' << cfg.data_on_device << ' '
      << cfg.topology.name() << ' ' << cfg.device_capacity;
    return memo(k.str(), [&] {
      BenchResult r = LibraryModel(spec).run(cfg);
      if (r.tasks > 0) ++simulated_;  // not refused up front
      return r;
    });
  }

  /// Like the paper: the best rate over the candidate tile sizes.  Every
  /// paper size admits at least one of them.
  const BenchResult& best(const ModelSpec& spec, Blas3 routine, std::size_t n,
                          bool data_on_device = false) {
    const BenchResult* best = nullptr;
    bool have = false;
    for (std::size_t ts : {1024u, 2048u, 4096u}) {
      if (ts * 2 > n) continue;  // need some parallelism
      const double nt = static_cast<double>(n) / ts;
      if (nt * nt * nt > 40000) continue;  // bound simulation cost
      const BenchResult& r = run(spec, point(routine, n, ts, data_on_device));
      if (!r.supported || r.failed) {
        if (!have) best = &r;
      } else if (!have || r.tflops > best->tflops) {
        best = &r;
        have = true;
      }
    }
    return *best;
  }
  double rate(const ModelSpec& spec, Blas3 routine, std::size_t n,
              bool data_on_device = false) {
    return best(spec, routine, n, data_on_device).tflops;
  }

  /// Fig. 8's TRSM + GEMM composition at block size 2048.
  double composition(const ModelSpec& spec, std::size_t n, bool sync) {
    return memo("composition " + spec_key(spec) + ' ' + std::to_string(n) +
                    ' ' + std::to_string(sync),
                [&] { return run_composition(spec, n, 2048, sync); })
        .tflops;
  }

  std::size_t simulated() const { return simulated_; }

 private:
  std::map<std::string, BenchResult> memo_;
  std::size_t simulated_ = 0;
};

std::string tf(const BenchResult& r) {
  if (!r.supported) return "-";
  if (r.failed) return "FAIL";
  return Table::num(r.tflops, 2);
}

/// A ratio as a signed percentage change: 1.402 -> "+40.2%".
std::string gain(double ratio) {
  const double g = 100.0 * (ratio - 1.0);
  return (g >= 0 ? "+" : "") + Table::num(g, 1) + "%";
}

std::string times(double ratio) { return Table::num(ratio, 2) + "x"; }

double kernel_imbalance(const BenchResult& r) {
  double kmin = 1e30, kmax = 0.0;
  for (const trace::Breakdown& b : r.per_gpu) {
    kmin = std::min(kmin, b.kernel);
    kmax = std::max(kmax, b.kernel);
  }
  return kmax / (kmin > 0 ? kmin : 1.0);
}

std::string share(double part, double total) {
  return Table::num(100 * part / total, 1);
}

/// A label line, then the table (markdown needs the blank line between).
std::string titled(const std::string& label, const Table& t) {
  return label + "\n\n" + t.to_markdown();
}

/// Parts of one block, a blank line between each two.
std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : "\n") + p;
  return out;
}

/// Brings `m`'s tiles (its lower triangle only when `lower`) home.
template <typename T>
void bring_home(rt::Runtime& runtime, MatrixView<const T> m, std::size_t tile,
                bool lower) {
  for (std::size_t i = 0; i < m.m; i += tile)
    for (std::size_t j = 0; j < (lower ? i + 1 : m.n); j += tile)
      runtime.coherent_async(blas::detail::tile_handle(
          runtime, m, i, j, std::min(tile, m.m - i), std::min(tile, m.n - j)));
}

// ------------------------------------------------------------- sections --

std::string table1(Runs&) {
  const topo::Topology t = topo::Topology::dgx1();
  const double peak = rt::PerfModel{}.peak_flops_dp / 1e12;
  Table tab({"Property", "Value"});
  tab.add_row({"Name", "Gemini (simulated)"});
  tab.add_row({"CPU", "2x Xeon E5-2698 v4 2.2GHz (modeled: host worker + "
               "4 PCIe Gen3 x16 switches)"});
  tab.add_row({"GPU", std::to_string(t.num_gpus()) +
               "x NVIDIA Tesla V100-SXM2, 32GB (simulated)"});
  tab.add_row({"GPU FP64 peak", Table::num(peak, 1) + " TFlop/s per GPU, " +
               Table::num(t.num_gpus() * peak, 1) + " TFlop/s aggregate"});
  tab.add_row({"GPU-GPU interconnect", "NVLink-2 hybrid cube-mesh "
               "(96.4 / 48.4 GB/s) + PCIe (17.2 GB/s)"});
  tab.add_row({"CPU-GPU interconnect",
               Table::num(t.host_bandwidth_gbps(0), 1) +
               " GB/s effective per PCIe switch, 2 GPUs per switch"});
  tab.add_row({"DMA latency", Table::num(t.transfer_latency() * 1e6, 1) +
               " us per transfer"});
  return tab.to_markdown();
}

std::string fig1(Runs&) {
  const topo::Topology t = topo::Topology::dgx1();
  std::vector<std::string> header{"GPU"};
  for (int g = 0; g < t.num_gpus(); ++g) header.push_back(std::to_string(g));
  Table classes(header), peers({"GPU", "NVLink peers", "PCIe switch"});
  for (int a = 0; a < t.num_gpus(); ++a) {
    std::vector<std::string> row{std::to_string(a)};
    std::string nv;
    for (int b = 0; b < t.num_gpus(); ++b) {
      const topo::LinkClass c = t.link_class(a, b);
      row.push_back(topo::to_string(c));
      if (c == topo::LinkClass::kNVLink2 || c == topo::LinkClass::kNVLink1)
        nv += (nv.empty() ? "" : ", ") + std::to_string(b) + "(" +
              topo::to_string(c) + ")";
    }
    classes.add_row(row);
    peers.add_row({std::to_string(a), nv, std::to_string(t.host_link_of(a))});
  }
  return join({titled("Link classes (NV2 = 2x NVLink, NV1 = 1x NVLink):",
                      classes),
               peers.to_markdown()});
}

/// Times a 1 GiB transfer on every directed pair, one at a time, on the
/// run skeleton's platform: the channel plumbing measured end to end.
std::string fig2(Runs&) {
  const std::size_t bytes = 1ull << 30;
  const RunConfig cfg;
  const int n = cfg.topology.num_gpus();
  std::vector<std::string> header{"D\\D"};
  for (int g = 0; g < n; ++g) header.push_back(std::to_string(g));
  Table pairs(header), host({"PCIe switch", "Host -> GPU GB/s"});
  run_plan(lib("xkblas"), cfg, {}, [&](rt::Runtime& runtime) {
    RoutinePlan plan;
    plan.emit = [&] {
      rt::Platform& plat = runtime.platform();
      const auto gbps = [&](sim::Interval iv) {
        plat.engine().run();
        return Table::num(static_cast<double>(bytes) / iv.duration() / 1e9, 2);
      };
      for (int src = 0; src < n; ++src) {
        std::vector<std::string> row{std::to_string(src)};
        for (int dst = 0; dst < n; ++dst)
          row.push_back(
              src == dst
                  ? Table::num(plat.topology().gpu_bandwidth_gbps(src, src), 2)
                  : gbps(plat.copy_p2p(src, dst, bytes, {})));
        pairs.add_row(row);
      }
      for (int g = 0; g < n; g += 2) {
        const std::string bw = gbps(plat.copy_h2d(g, bytes, {}));
        host.add_row({std::to_string(plat.topology().host_link_of(g)), bw});
      }
    };
    plan.coherent = [] {};
    return plan;
  });
  return join({titled("GPU -> GPU (GB/s, row = source):", pairs),
               titled("Host <-> GPU (per PCIe switch, shared by two GPUs):",
                      host)});
}

/// A column of a sweep: a model, with its operands on host or on device.
struct Series {
  std::string name;
  ModelSpec spec;
  bool data_on_device = false;
};

/// One table per routine: each series' best rate at each paper size.
std::string sweep(Runs& runs, const std::vector<Blas3>& routines,
                  const std::vector<Series>& series) {
  std::vector<std::string> parts;
  for (Blas3 routine : routines) {
    std::vector<std::string> header{"N"};
    for (const Series& s : series) header.push_back(s.name);
    Table t(header);
    for (std::size_t n : kSizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (const Series& s : series)
        row.push_back(tf(runs.best(s.spec, routine, n, s.data_on_device)));
      t.add_row(row);
    }
    parts.push_back(titled(std::string(blas3_name(routine)) + " (TFlop/s)", t));
  }
  return join(parts);
}

const std::vector<Blas3> kFig3Routines = {Blas3::kGemm, Blas3::kSyr2k,
                                          Blas3::kTrsm};

std::string fig3(Runs& runs) {
  return sweep(runs, kFig3Routines,
               {{"cuBLAS-XT", lib("cublas-xt")},
                {"XKBlas", lib("xkblas")},
                {"XKBlas no heur", no_heur()},
                {"XKBlas no heur no topo", no_topo()}});
}

std::string fig4(Runs& runs) {
  return sweep(runs, kFig3Routines,
               {{"Chameleon Tile", lib("chameleon-tile")},
                {"cuBLAS-XT", lib("cublas-xt")},
                {"XKBlas", lib("xkblas")},
                {"XKBlas DoD", lib("xkblas"), true}});
}

std::string fig5(Runs& runs) {
  std::vector<Series> all;
  for (const std::string& name : library_names())
    all.push_back({lib(name).name, lib(name)});
  return sweep(runs,
               {Blas3::kGemm, Blas3::kSymm, Blas3::kSyr2k, Blas3::kSyrk,
                Blas3::kTrmm, Blas3::kTrsm},
               all);
}

std::string table2(Runs& runs) {
  Table t({"Kernel", "data-on-device", "no heuristic",
           "no heuristic, no topo"});
  for (Blas3 r : kFig3Routines) {
    double best_gain = -1e9, worst_heur = 1e9, worst_topo = 1e9;
    for (std::size_t n : kSizes) {
      if (n < 16384) continue;
      const double base = runs.rate(lib("xkblas"), r, n);
      const auto pct = [base](double x) { return 100.0 * (x / base - 1.0); };
      const double dod = runs.rate(lib("xkblas"), r, n, true);
      best_gain = std::max(best_gain, pct(dod));
      worst_heur = std::min(worst_heur, pct(runs.rate(no_heur(), r, n)));
      worst_topo = std::min(worst_topo, pct(runs.rate(no_topo(), r, n)));
    }
    t.add_row({std::string("D") + blas3_name(r),
               "+" + Table::num(best_gain, 1) + "%",
               Table::num(worst_heur, 1) + "%",
               Table::num(worst_topo, 1) + "%"});
  }
  Table paper({"Kernel", "data-on-device", "no heuristic",
               "no heuristic, no topo"});
  paper.add_row({"DGEMM", "+111.7%", "-43.5%", "-43%"});
  paper.add_row({"DSYR2K", "+71.1%", "-19.4%", "-53.5%"});
  paper.add_row({"DTRSM", "+52.6%", "-29.6%", "-29.3%"});
  return join({titled("Measured (max gain / max loss vs XKBlas, N >= 16384):",
                      t),
               titled("Paper:", paper)});
}

/// Section IV-D: XKBlas against the libraries taking LAPACK layout.
std::string dropin(Runs& runs) {
  const double xk = runs.rate(lib("xkblas"), Blas3::kGemm, 16384);
  Table t({"Library", "DGEMM N=16384 TFlop/s", "XKBlas / library"});
  t.add_row({"XKBlas", Table::num(xk, 1), ""});
  for (const char* name : {"cublas-xt", "chameleon-lapack"}) {
    const double r = runs.rate(lib(name), Blas3::kGemm, 16384);
    t.add_row({lib(name).name, Table::num(r, 1),
               Table::num(100.0 * xk / r, 0) + "%"});
  }
  return t.to_markdown();
}

/// The Hermitian trio completing the nine standard routines.
std::string hermitian(Runs& runs) {
  Table t({"Routine", "N", "cuBLAS-XT", "Chameleon Tile", "XKBlas"});
  for (Blas3 r : {Blas3::kHemm, Blas3::kHerk, Blas3::kHer2k})
    t.add_row({blas3_name(r), "16384",
               tf(runs.best(lib("cublas-xt"), r, 16384)),
               tf(runs.best(lib("chameleon-tile"), r, 16384)),
               tf(runs.best(lib("xkblas"), r, 16384))});
  return titled("Complex FP64 (TFlop/s):", t);
}

std::string fig6(Runs& runs) {
  Table cum({"Library", "DtoH(s)", "HtoD(s)", "PtoP(s)", "Kernel(s)",
             "Total(s)"});
  Table norm({"Library", "DtoH(%)", "HtoD(%)", "PtoP(%)", "Kernel(%)",
              "Transfers(%)"});
  for (const char* name : {"blasx", "chameleon-tile", "cublas-mg",
                           "cublas-xt", "dplasma", "xkblas"}) {
    const ModelSpec spec = lib(name);
    const trace::Breakdown& b =
        runs.run(spec, point(Blas3::kGemm, 32768)).breakdown;
    const double tot = b.total();
    cum.add_row({spec.name, Table::num(b.dtoh, 2), Table::num(b.htod, 2),
                 Table::num(b.ptop, 2), Table::num(b.kernel, 2),
                 Table::num(tot, 2)});
    norm.add_row({spec.name, share(b.dtoh, tot), share(b.htod, tot),
                  share(b.ptop, tot), share(b.kernel, tot),
                  share(b.transfers(), tot)});
  }
  return join({titled("Cumulative execution time (all 8 GPUs):", cum),
               titled("Normalized ratio over total execution:", norm)});
}

std::string fig7(Runs& runs) {
  std::vector<std::string> parts;
  for (const char* name : {"chameleon-tile", "cublas-xt", "xkblas"}) {
    const ModelSpec spec = lib(name);
    const BenchResult& r = runs.run(spec, point(Blas3::kSyr2k, 49152));
    Table t({"GPU", "DtoH(s)", "HtoD(s)", "PtoP(s)", "Kernel(s)", "Busy(s)"});
    for (std::size_t g = 0; g < r.per_gpu.size(); ++g) {
      const trace::Breakdown& b = r.per_gpu[g];
      t.add_row({std::to_string(g), Table::num(b.dtoh, 2),
                 Table::num(b.htod, 2), Table::num(b.ptop, 2),
                 Table::num(b.kernel, 2), Table::num(b.total(), 2)});
    }
    parts.push_back(titled(spec.name + " (" + Table::num(r.tflops, 2) +
                               " TFlop/s, " + Table::num(r.seconds, 2) +
                               " s):",
                           t) +
                    "\nkernel-time imbalance (max/min): " +
                    Table::num(kernel_imbalance(r), 2) + "\n");
  }
  return join(parts);
}

std::string fig8(Runs& runs) {
  Table t({"N", "Chameleon Tiled", "XKBlas", "XKBlas/Chameleon"});
  for (std::size_t n : kSizes) {
    const double c = runs.composition(lib("chameleon-tile"), n, true);
    const double x = runs.composition(lib("xkblas"), n, false);
    t.add_row({std::to_string(n), Table::num(c, 2), Table::num(x, 2),
               times(x / c)});
  }
  return titled("TRSM + GEMM, block size 2048 (TFlop/s):", t);
}

std::string fig9(Runs&) {
  RunConfig cfg;
  cfg.obs.enabled = true;  // keeps the run's trace for the chart
  std::vector<std::string> parts;
  for (bool sync : {true, false}) {
    const BenchResult r = run_composition(
        lib(sync ? "chameleon-tile" : "xkblas"), 32768, 2048, sync, cfg);
    parts.push_back(
        (sync ? "Chameleon Tile (" : "XKBlas (") + Table::num(r.tflops, 2) +
        (sync ? " TFlop/s) -- note the synchronisation gap between TRSM and "
                "GEMM:"
              : " TFlop/s) -- composed, no barrier:") +
        "\n\n```\n" +
        trace::gantt_ascii(*r.trace, static_cast<int>(r.per_gpu.size()), 110) +
        "```\n");
  }
  return join(parts);
}

/// The paper's portability question (Section V) on other node shapes.
const std::vector<std::pair<std::string, topo::Topology>>& nodes() {
  static const std::vector<std::pair<std::string, topo::Topology>> v = {
      {"DGX-1", topo::Topology::dgx1()},
      {"PCIe-only x8", topo::Topology::pcie_only(8)},
      {"NVSwitch x8", topo::Topology::nvswitch(8)},
      {"Summit-like x6", topo::Topology::summit_like()},
      {"Fat-tree 2x8",
       topo::Topology::from_machine(tdl::preset_machine("fat_tree_2x8"))},
  };
  return v;
}

/// The DGEMM rate at tile 2048 on node `i` of nodes() under `spec`.
double on_node(Runs& runs, const ModelSpec& spec, std::size_t i,
               std::size_t n) {
  BenchConfig cfg = point(Blas3::kGemm, n);
  cfg.topology = nodes()[i].second;
  return runs.run(spec, cfg).tflops;
}

std::string ext_topologies(Runs& runs) {
  std::vector<std::string> parts;
  for (std::size_t n : {16384u, 32768u}) {
    Table t({"Topology", "XKBlas", "no heuristic", "no heur, no topo",
             "optimistic gain", "both-heuristics gain"});
    for (std::size_t i = 0; i < nodes().size(); ++i) {
      const double full = on_node(runs, lib("xkblas"), i, n);
      const double heur_off = on_node(runs, no_heur(), i, n);
      const double both_off = on_node(runs, no_topo(), i, n);
      t.add_row({nodes()[i].first, Table::num(full, 2),
                 Table::num(heur_off, 2), Table::num(both_off, 2),
                 gain(full / heur_off), gain(full / both_off)});
    }
    parts.push_back(titled("N = " + std::to_string(n) + " (TFlop/s)", t));
  }
  return join(parts);
}

/// GEMM N=32768 under cache pressure: `gb` of memory per GPU.
const BenchResult& pressure(Runs& runs, const ModelSpec& spec, double gb) {
  BenchConfig cfg = point(Blas3::kGemm, 32768);
  cfg.device_capacity = static_cast<std::size_t>(gb * (1ull << 30));
  return runs.run(spec, cfg);
}

/// XKBlas GEMM N=8192 in 4096 small tasks, `seconds` of runtime cost each.
double overhead(Runs& runs, double seconds) {
  ModelSpec s = lib("xkblas");
  s.task_overhead = seconds;
  return runs.run(s, point(Blas3::kGemm, 8192, 512)).tflops;
}

std::string ext_ablations(Runs& runs) {
  ModelSpec s = lib("xkblas");
  Table window({"prepare window", "GEMM TFlop/s"});
  for (int w : {1, 2, 4, 8, 16, 32}) {
    s.prepare_window = w;
    window.add_row({std::to_string(w),
                    tf(runs.run(s, point(Blas3::kGemm, 24576)))});
  }
  s = lib("xkblas");
  Table stealing({"config", "SYR2K TFlop/s", "steals", "kernel imbalance"});
  for (bool on : {true, false}) {
    s.stealing = on;
    const BenchResult& r = runs.run(s, point(Blas3::kSyr2k, 49152));
    stealing.add_row({on ? "work stealing" : "no stealing", tf(r),
                      std::to_string(r.steals),
                      Table::num(kernel_imbalance(r), 2)});
  }
  Table capacity({"capacity/GPU", "GEMM TFlop/s", "evict flushes"});
  for (double gb : {32.0, 6.0, 4.0, 2.0}) {
    const BenchResult& r = pressure(runs, lib("xkblas"), gb);
    capacity.add_row({Table::num(gb, 0) + " GB", tf(r),
                      std::to_string(r.transfers.evict_flushes)});
  }
  // XKaapi's read-only-first eviction vs plain LRU under pressure: LRU
  // evicts dirty tiles by recency and pays D2H flushes on the congested
  // PCIe links.
  s = lib("xkblas");
  Table eviction({"eviction policy", "GEMM TFlop/s", "evict flushes"});
  for (mem::EvictionPolicy pol :
       {mem::EvictionPolicy::kReadOnlyFirst, mem::EvictionPolicy::kLru}) {
    s.eviction = pol;
    const BenchResult& r = pressure(runs, s, 2.0);
    eviction.add_row({pol == mem::EvictionPolicy::kLru
                          ? "plain LRU"
                          : "read-only first (XKaapi)",
                      tf(r), std::to_string(r.transfers.evict_flushes)});
  }
  Table cost({"per-task overhead", "GEMM N=8192 TFlop/s"});
  for (double ov : {0.0, 3e-6, 20e-6, 100e-6})
    cost.add_row({Table::num(ov * 1e6, 0) + " us",
                  Table::num(overhead(runs, ov), 2)});
  return join({titled("Prefetch window depth (N=24576):", window),
               titled("Work stealing (SYR2K N=49152):", stealing),
               titled("Cache pressure (GEMM N=32768):", capacity),
               titled("Eviction policy at 2 GB/GPU (GEMM N=32768):",
                      eviction),
               titled("Runtime overhead sensitivity (small matrices):",
                      cost)});
}

const std::vector<std::size_t> kPotrfSizes = {8192, 16384, 24576, 32768,
                                              49152};

/// Tiled Cholesky (lower), data on host, the factor brought back home.
double potrf(Runs& runs, const ModelSpec& spec, std::size_t n) {
  const std::size_t tile = n >= 32768 ? 2048 : 1024;
  const auto build = [&](rt::Runtime& runtime) {
    auto A = std::make_shared<SymbolicMatrix<double>>(n, n, 0);
    const blas::EmitOptions emit = emit_options(spec, tile, runtime.num_gpus());
    RoutinePlan plan;
    plan.emit = [&runtime, A, emit] {
      MatrixView<double> Av = A->view();
      blas::tiled_potrf<double>(runtime, Uplo::Lower, Av, emit);
    };
    plan.coherent = [&runtime, A, tile] {
      bring_home(runtime, A->cview(), tile, /*lower=*/true);
    };
    plan.flops = static_cast<double>(n) * n * n / 3.0;
    return plan;
  };
  return runs
      .memo("potrf " + spec_key(spec) + ' ' + std::to_string(n),
            [&] { return run_plan(spec, {}, {}, build); })
      .tflops;
}

/// FP32 GEMM at tile 2048 under a copy of the XKBlas row without its
/// per-call setup cost, the result brought back home.
double sgemm(Runs& runs, rt::HeuristicConfig heur, std::size_t n) {
  ModelSpec spec = lib("xkblas", heur);
  spec.call_overhead = 0.0;
  const std::size_t tile = 2048;
  const auto build = [&](rt::Runtime& runtime) {
    auto A = std::make_shared<SymbolicMatrix<float>>(n, n, 0);
    auto B = std::make_shared<SymbolicMatrix<float>>(n, n, 1);
    auto C = std::make_shared<SymbolicMatrix<float>>(n, n, 2);
    const blas::EmitOptions emit = emit_options(spec, tile, runtime.num_gpus());
    RoutinePlan plan;
    plan.emit = [&runtime, A, B, C, emit] {
      blas::tiled_gemm<float>(runtime, Op::NoTrans, Op::NoTrans, 1.0f,
                              A->cview(), B->cview(), 1.0f, C->view(), emit);
    };
    plan.coherent = [&runtime, C, tile] {
      bring_home(runtime, C->cview(), tile, /*lower=*/false);
    };
    plan.flops = 2.0 * double(n) * n * n;
    return plan;
  };
  return runs
      .memo("sgemm " + spec_key(spec) + ' ' + std::to_string(n),
            [&] { return run_plan(spec, {}, {}, build); })
      .tflops;
}

std::string ext_factorization(Runs& runs) {
  Table t({"N", "XKBlas", "XKBlas no heuristics", "dmdas model"});
  for (std::size_t n : kPotrfSizes)
    t.add_row({std::to_string(n), Table::num(potrf(runs, lib("xkblas"), n), 2),
               Table::num(potrf(runs, no_topo(), n), 2),
               Table::num(potrf(runs, lib("chameleon-tile"), n), 2)});
  return titled("DPOTRF (TFlop/s, lower, data-on-host, factor returned)", t);
}

std::string ext_precision(Runs& runs) {
  Table t({"N", "SGEMM XKBlas", "SGEMM no heuristics", "heuristic gain"});
  for (std::size_t n : {16384u, 32768u, 49152u}) {
    const double on = sgemm(runs, rt::HeuristicConfig::xkblas(), n);
    const double off =
        sgemm(runs, rt::HeuristicConfig::no_heuristic_no_topo(), n);
    t.add_row({std::to_string(n), Table::num(on, 2), Table::num(off, 2),
               gain(on / off)});
  }
  return titled("FP32 SGEMM, tile 2048 (peak 124.8 TFlop/s aggregate):", t);
}

// --------------------------------------------------- paper vs measured --

/// The first paper size where Chameleon Tile reaches XKBlas (data on
/// device when `dod`), with both rates there or at the largest size.
std::string crossover(Runs& runs, Blas3 r, bool dod) {
  for (std::size_t n : kSizes) {
    const double c = runs.rate(lib("chameleon-tile"), r, n);
    const double x = runs.rate(lib("xkblas"), r, n, dod);
    if (c >= x || n == kSizes.back())
      return (c >= x ? std::to_string(n) : "none up to " + std::to_string(n)) +
             " (" + Table::num(c, 2) + " vs " + Table::num(x, 2) + ")";
  }
  return "";
}

/// XKBlas over `other` on the Fig. 5 GEMM sweep for N >= `from`: the
/// range of the factor and the size of its maximum.
std::string factor(Runs& runs, const char* other, std::size_t from) {
  double lo = 1e30, hi = 0.0;
  std::size_t at = 0;
  for (std::size_t n : kSizes) {
    if (n < from) continue;
    const double f = runs.rate(lib("xkblas"), Blas3::kGemm, n) /
                     runs.rate(lib(other), Blas3::kGemm, n);
    lo = std::min(lo, f);
    if (f > hi) {
      hi = f;
      at = n;
    }
  }
  return times(lo) + " to " + times(hi) + " (max at " + std::to_string(at) +
         ")";
}

std::string claims(Runs& runs) {
  Table t({"Row", "Quantity", "Paper", "Measured"});
  t.add_row({"cross.fig4.syr2k",
             "Fig. 4 SYR2K: first N where Chameleon Tile reaches XKBlas DoD",
             "above 45000", crossover(runs, Blas3::kSyr2k, true)});
  const struct {
    Blas3 routine;
    const char *key, *paper;
  } panels[] = {{Blas3::kSyrk, "syrk", "above 45000"},
                {Blas3::kSyr2k, "syr2k", "above 20000"},
                {Blas3::kTrsm, "trsm", "none"},
                {Blas3::kTrmm, "trmm", "not stated"}};
  for (const auto& p : panels)
    t.add_row({std::string("cross.fig5.") + p.key,
               std::string("Fig. 5 ") + blas3_name(p.routine) +
                   ": first N where Chameleon Tile reaches XKBlas",
               p.paper, crossover(runs, p.routine, false)});

  const auto g32 = [&](const char* name) -> const trace::Breakdown& {
    return runs.run(lib(name), point(Blas3::kGemm, 32768)).breakdown;
  };
  /// A library and the paper's value for it.
  struct Quote {
    const char *lib, *paper;
  };
  for (const Quote& q : {Quote{"xkblas", "25.4%"},
                         Quote{"chameleon-tile", "41.2%"}})
    t.add_row({std::string("fig6.share.") + q.lib,
               "Fig. 6 " + lib(q.lib).name + " transfer share of GPU time",
               q.paper,
               share(g32(q.lib).transfers(), g32(q.lib).total()) + "%"});
  const trace::Breakdown& xt = g32("cublas-xt");
  t.add_row({"fig6.share.cublas-xt",
             "Fig. 6 cuBLAS-XT transfer share of GPU time",
             "most time in HtoD",
             share(xt.transfers(), xt.total()) + "% (HtoD " +
                 Table::num(xt.htod, 2) + " s vs kernel " +
                 Table::num(xt.kernel, 2) + " s)"});
  for (const Quote& q : {Quote{"chameleon-tile", "balanced"},
                         Quote{"xkblas", "imbalanced"}})
    t.add_row({std::string("fig7.imbalance.") + q.lib,
               "Fig. 7 " + lib(q.lib).name +
                   " kernel time max/min over GPUs, SYR2K N=49152",
               q.paper,
               Table::num(kernel_imbalance(runs.run(
                              lib(q.lib), point(Blas3::kSyr2k, 49152))),
                          2)});

  const double xk16 = runs.rate(lib("xkblas"), Blas3::kGemm, 16384);
  for (const Quote& q : {Quote{"chameleon-lapack", "500% more"},
                         Quote{"cublas-xt", "up to 300%"}})
    t.add_row({std::string("dropin.") + q.lib,
               "Sec. IV-D XKBlas as % of " + lib(q.lib).name +
                   ", DGEMM N=16384",
               q.paper,
               Table::num(
                   100.0 * xk16 / runs.rate(lib(q.lib), Blas3::kGemm, 16384),
                   0) +
                   "%"});
  t.add_row({"fig8.ratio", "Fig. 8 XKBlas / Chameleon at N=32768",
             "1.55x (56.6 vs 36.6)",
             times(runs.composition(lib("xkblas"), 32768, false) /
                   runs.composition(lib("chameleon-tile"), 32768, true))});
  const struct {
    const char *other, *paper;
    std::size_t from;
  } factors[] = {{"cublas-mg", "up to 1.13x", 32768},
                 {"dplasma", "up to 2.52x", 0},
                 {"chameleon-lapack", "about 5x", 0},
                 {"cublas-xt", "up to 2.84x", 0}};
  for (const auto& f : factors)
    t.add_row({std::string("factor.") + f.other,
               "Fig. 5 GEMM XKBlas / " + lib(f.other).name +
                   (f.from ? ", N >= " + std::to_string(f.from) : ""),
               f.paper, factor(runs, f.other, f.from)});

  double worst = 1e9;
  for (std::size_t n : kSizes)
    if (n >= 16384)
      worst = std::min(worst,
                       runs.run(no_heur(), point(Blas3::kGemm, n)).tflops /
                           runs.run(lib("xkblas"), point(Blas3::kGemm, n))
                               .tflops);
  t.add_row({"table2.gemm.tile2048",
             "Table II DGEMM no-heuristic loss at tile 2048 only, N >= 16384",
             "-43.5%", gain(worst)});

  const auto node_gain = [&](std::size_t node, const ModelSpec& off) {
    return gain(on_node(runs, lib("xkblas"), node, 16384) /
                on_node(runs, off, node, 16384));
  };
  t.add_row({"ext.optimistic.dgx1",
             "Optimistic-heuristic gain, DGEMM N=16384, DGX-1", "-",
             node_gain(0, no_heur())});
  t.add_row({"ext.optimistic.summit",
             "Optimistic-heuristic gain, DGEMM N=16384, Summit-like node",
             "little (Sec. III-C)", node_gain(3, no_heur())});
  t.add_row({"ext.both.pcie",
             "Both-heuristics gain, DGEMM N=16384, PCIe-only node", "-",
             node_gain(1, no_topo())});
  t.add_row({"ext.fp32",
             "Both-heuristics gain, SGEMM vs DGEMM, N=16384 tile 2048", "-",
             gain(sgemm(runs, rt::HeuristicConfig::xkblas(), 16384) /
                  sgemm(runs, rt::HeuristicConfig::no_heuristic_no_topo(),
                        16384)) +
                 " vs " + node_gain(0, no_topo())});
  double plo = 1e30, phi = -1e30;
  for (std::size_t n : kPotrfSizes) {
    const double g = potrf(runs, lib("xkblas"), n) / potrf(runs, no_topo(), n);
    plo = std::min(plo, g);
    phi = std::max(phi, g);
  }
  t.add_row({"ext.potrf", "Both-heuristics gain on DPOTRF, N = 8192 to 49152",
             "-", gain(plo) + " to " + gain(phi)});
  t.add_row({"ext.overhead", "GEMM N=8192 tile 512: 100 us vs 0 us per task",
             "-", gain(overhead(runs, 100e-6) / overhead(runs, 0.0))});
  return t.to_markdown();
}

// ------------------------------------------------------------- the file --

struct Section {
  const char* id;
  std::string (*render)(Runs&);
};

const Section kSections[] = {
    {"table1", table1},
    {"fig1", fig1},
    {"fig2", fig2},
    {"fig3", fig3},
    {"table2", table2},
    {"fig4", fig4},
    {"fig5", fig5},
    {"dropin", dropin},
    {"hermitian", hermitian},
    {"fig6", fig6},
    {"fig7", fig7},
    {"fig8", fig8},
    {"fig9", fig9},
    {"ext_topologies", ext_topologies},
    {"ext_ablations", ext_ablations},
    {"ext_factorization", ext_factorization},
    {"ext_precision", ext_precision},
    {"claims", claims},
};

const Section* find_section(const std::string& id) {
  for (const Section& s : kSections)
    if (id == s.id) return &s;
  return nullptr;
}

/// One block of the file: its section and the byte range of its body.
struct Block {
  const Section* section;
  std::size_t begin, end;
};

/// The id in `line` when it is a marker: `<!-- <slash>paper_report:id -->`.
bool marker(const std::string& line, const char* slash, std::string* id) {
  const std::string open = std::string("<!-- ") + slash + "paper_report:";
  const std::string close = " -->";
  if (line.size() < open.size() + close.size() || line.find(open) != 0 ||
      line.compare(line.size() - close.size(), close.size(), close) != 0)
    return false;
  *id = line.substr(open.size(), line.size() - open.size() - close.size());
  return true;
}

/// The blocks of `text` in file order, or the first structural error: an
/// unknown id, an unmatched marker, a repeated or a missing block.
std::string find_blocks(const std::string& text, std::vector<Block>* blocks) {
  const Section* open = nullptr;
  std::size_t body = 0, line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    const std::string at = " (line " + std::to_string(++line_no) + ")";
    std::string id;
    const bool begins = marker(line, "", &id);
    if (begins || marker(line, "/", &id)) {
      if (!find_section(id)) return "unknown marker " + line + at;
      if (open && (begins || id != open->id))
        return "block " + std::string(open->id) + " has no end marker";
      if (!begins && !open)
        return "block " + id + " has no begin marker" + at;
      if (begins) {
        open = find_section(id);
        body = eol + 1;
        for (const Block& b : *blocks)
          if (b.section == open) return "block " + id + " appears twice" + at;
      } else {
        blocks->push_back({open, body, pos});
        open = nullptr;
      }
    }
    pos = eol + 1;
  }
  if (open) return "block " + std::string(open->id) + " has no end marker";
  for (const Section& s : kSections)
    if (std::none_of(blocks->begin(), blocks->end(),
                     [&](const Block& b) { return b.section == &s; }))
      return "missing block " + std::string(s.id);
  return "";
}

/// Compares (or, under XKB_UPDATE_GOLDEN, rewrites) `path`'s blocks.
int check_file(const char* path, Runs& runs) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "paper_report: cannot read %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::vector<Block> blocks;
  const std::string error = find_blocks(text, &blocks);
  if (!error.empty()) {
    std::fprintf(stderr, "paper_report: %s: %s\n", path, error.c_str());
    return 1;
  }
  const bool update = std::getenv("XKB_UPDATE_GOLDEN") != nullptr;
  std::string out;
  std::size_t copied = 0;
  for (const Block& b : blocks) {
    const std::string fresh = b.section->render(runs);
    if (!update && fresh != text.substr(b.begin, b.end - b.begin)) {
      std::fprintf(stderr,
                   "paper_report: %s: block %s differs from what the code "
                   "prints (XKB_UPDATE_GOLDEN=1 rewrites it)\n",
                   path, b.section->id);
      return 1;
    }
    out += text.substr(copied, b.begin - copied) + fresh;
    copied = b.end;
  }
  out += text.substr(copied);
  if (update && out != text) std::ofstream(path) << out;
  std::printf("paper_report: %s: %zu blocks %s\n", path, blocks.size(),
              update && out != text ? "rewritten" : "match");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: paper_report [EXPERIMENTS.md]\n");
    return 2;
  }
  Runs runs;
  int rc = 0;
  if (argc == 2) {
    rc = check_file(argv[1], runs);
  } else {
    for (const Section& s : kSections)
      std::printf("<!-- paper_report:%s -->\n%s<!-- /paper_report:%s -->\n\n",
                  s.id, s.render(runs).c_str(), s.id);
  }
  std::fprintf(stderr, "paper_report: %zu library runs simulated\n",
               runs.simulated());
  return rc;
}
