// trace_report: turn a run (or a saved trace CSV) into the paper's evidence
// tables -- per-link utilization and queueing delay, the op-class breakdown,
// and the critical-path attribution with its NVLink transfer share.
//
//   trace_report run.csv                        # analyze a saved to_csv dump
//   trace_report run.csv --topo dgx1 --json out.json
//   trace_report --routine gemm --n 16384 --tile 2048
//       # run XKBlas and the "no heuristic, no topo" ablation back to back
//       # and compare where the critical-path transfer time sits
//
// The compare mode is the simulator's version of the paper's Fig. 6/7
// argument: with both Section III heuristics on, a strictly higher share of
// the makespan-binding transfer time rides NVLink instead of PCIe/host
// links.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "baselines/library_model.hpp"
#include "cli_parse.hpp"
#include "obs/report.hpp"
#include "trace/export.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

void usage() {
  std::printf(
      "usage: trace_report <trace.csv> [--topo T] [--json F]\n"
      "       trace_report --routine R --n N [--tile T] [--topo T] "
      "[--json F]\n"
      "  <trace.csv>    a file written from trace::to_csv (e.g. by tests)\n"
      "  --routine R    gemm|symm|syrk|syr2k|trmm|trsm|hemm|herk|her2k\n"
      "                 (compare mode: XKBlas vs the no-heuristic/no-topo\n"
      "                 ablation)\n"
      "  --n N          matrix dimension (default 16384)\n"
      "  --tile T       tile size (default 2048)\n"
      "  --topo T       dgx1|pcie|nvswitch|summit, a tdl preset name or a\n"
      "                 .tpo machine file (default dgx1)\n"
      "  --data-on-device   2D block-cyclic pre-distribution scenario\n"
      "  --cp-ops       print every operation on the critical path\n"
      "  --assert-nvlink-shift  exit 5 unless the heuristics-on run puts a\n"
      "                 strictly higher share of critical-path transfer\n"
      "                 time on NVLink than the ablation (CI gate)\n"
      "  --json F       also write the report(s) as JSON to F\n");
}

/// Print every step of the critical path (--cp-ops).
void dump_cp(const obs::RunReport& rep, const trace::Trace& tr,
             const topo::Topology& topo) {
  std::printf("critical-path ops (first -> last):\n");
  for (const obs::CpStep& s : rep.cp.ops) {
    const trace::Record& r = tr.records()[s.record];
    if (s.gap_before > 0.0)
      std::printf("  ... idle %.6fs ...\n", s.gap_before);
    char via[32] = "";
    if (r.kind == trace::OpKind::kPtoP)
      std::snprintf(via, sizeof via, " <- dev%d %s", r.peer,
                    obs::link_class_label(topo.link_class(r.peer, r.device)));
    std::printf("  [%9.6f, %9.6f] %-10s dev%d%s %s\n", r.start, r.end,
                trace::to_string(r.kind), r.device, via, r.label.c_str());
  }
}

/// One observed XKBlas run of the paper benchmark through the library
/// models' skeleton (run_diff's direct mode runs the same pair).
BenchResult run_direct(rt::HeuristicConfig heur, const BenchConfig& cfg) {
  BenchResult r = LibraryModel(spec_for_library("xkblas", heur)).run(cfg);
  if (r.failed) throw std::runtime_error("run failed: " + r.error);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path, topo_name = "dgx1", json_path, routine;
  std::size_t n = 16384, tile = 2048;
  bool dod = false, cp_ops = false, assert_shift = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--topo") topo_name = next();
      else if (arg == "--json") json_path = next();
      else if (arg == "--routine") routine = next();
      else if (arg == "--n") n = cli::parse_size(arg, next());
      else if (arg == "--tile") tile = cli::parse_size(arg, next());
      else if (arg == "--data-on-device") dod = true;
      else if (arg == "--cp-ops") cp_ops = true;
      else if (arg == "--assert-nvlink-shift") assert_shift = true;
      else if (arg == "--help" || arg == "-h") { usage(); return 0; }
      else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        usage();
        return 2;
      } else {
        csv_path = arg;
      }
    }

    const topo::Topology topo = parse_topo(topo_name);

    if (!csv_path.empty()) {
      // Saved-trace mode: per-link stats re-derived from the records.
      std::ifstream in(csv_path);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", csv_path.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const trace::Trace tr = trace::from_csv(buf.str());
      const obs::RunReport rep = obs::build_report(tr, topo);
      std::printf("%s", obs::report_text(rep).c_str());
      if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << obs::report_json(rep);
      }
      return 0;
    }

    if (routine.empty()) {
      usage();
      return 2;
    }

    // Compare mode: both heuristics on vs the paper's full ablation.
    BenchConfig cfg;
    cfg.routine = parse_routine(routine);
    cfg.n = n;
    cfg.tile = tile;
    cfg.topology = topo;
    cfg.data_on_device = dod;
    cfg.obs.enabled = true;
    const BenchResult on = run_direct(rt::HeuristicConfig::xkblas(), cfg);
    const BenchResult off =
        run_direct(rt::HeuristicConfig::no_heuristic_no_topo(), cfg);
    const obs::RunReport on_rep = on.report(), off_rep = off.report();

    std::printf("=== XKBlas (topo-aware + optimistic D2D) ===\n%s\n",
                obs::report_text(on_rep).c_str());
    if (cp_ops) dump_cp(on_rep, *on.trace, *on.topology);
    std::printf("=== ablation (no heuristic, no topo) ===\n%s\n",
                obs::report_text(off_rep).c_str());
    if (cp_ops) dump_cp(off_rep, *off.trace, *off.topology);
    std::printf("NVLink share of critical-path transfer time: "
                "%.1f%% (heuristics on) vs %.1f%% (ablation)\n",
                100.0 * on_rep.cp.nvlink_share(),
                100.0 * off_rep.cp.nvlink_share());
    std::printf("makespan: %.4fs vs %.4fs\n", on_rep.span, off_rep.span);

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << "{\n\"xkblas\": " << obs::report_json(on_rep, on.obs.get())
          << ",\n\"ablation\": " << obs::report_json(off_rep, off.obs.get())
          << "}\n";
    }
    if (assert_shift &&
        on_rep.cp.nvlink_share() <= off_rep.cp.nvlink_share()) {
      std::fprintf(stderr,
                   "FAIL: expected the heuristics to move critical-path "
                   "transfer time onto NVLink (%.3f <= %.3f)\n",
                   on_rep.cp.nvlink_share(), off_rep.cp.nvlink_share());
      return 5;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
