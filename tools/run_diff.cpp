// run_diff: the differential run explainer.  Turns two run ledgers (saved
// xkb.obs.ledger/1 artifacts, or a pair of fresh in-process runs) into a
// causal report: where the makespan delta sits (critical-path attribution
// shifts per link class, summing to the delta with a coverage figure), the
// first source decision that diverged (pick, virtual time, both candidate
// sets side by side), and every link's byte/occupancy shift.
//
//   run_diff a.json b.json                     # compare two saved ledgers
//   run_diff --routine gemm --n 16384 --tile 512 --data-on-device
//       # run XKBlas and the no-heuristic/no-topo ablation back to back,
//       # build both ledgers in-process, and explain the difference
//   run_diff --routine gemm ... --emit-a a.json --emit-b b.json
//       # also save the two ledgers for later offline diffing
//
// Output is deterministic: same two ledgers -> byte-identical report
// (--assert-deterministic re-diffs and byte-compares as a CI gate;
// --assert-coverage 0.9 gates the attribution quality).
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "baselines/library_model.hpp"
#include "cli_parse.hpp"
#include "obs/ledger.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

void usage() {
  std::printf(
      "usage: run_diff <a.json> <b.json> [options]\n"
      "       run_diff --routine R [--n N] [--tile T] [--topo T] [options]\n"
      "  <a.json> <b.json>  two saved ledgers (schema xkb.obs.ledger/1)\n"
      "  --routine R    gemm|symm|syrk|syr2k|trmm|trsm|hemm|herk|her2k: run\n"
      "                 XKBlas (side A) vs the no-heuristic/no-topo\n"
      "                 ablation (side B)\n"
      "  --n N          matrix dimension (default 16384)\n"
      "  --tile T       tile size (default 2048)\n"
      "  --topo T       dgx1|pcie|nvswitch|summit, a tdl preset name or a\n"
      "                 .tpo machine file (default dgx1)\n"
      "  --data-on-device   2D block-cyclic pre-distribution scenario\n"
      "  --emit-a F     write side A's ledger JSON to F (direct mode)\n"
      "  --emit-b F     write side B's ledger JSON to F (direct mode)\n"
      "  --json F       write the diff as JSON (schema xkb.obs.rundiff/1)\n"
      "  --assert-coverage X    exit 5 unless the named categories explain\n"
      "                 at least fraction X of the makespan delta\n"
      "  --assert-deterministic exit 6 unless re-deriving the diff (and, in\n"
      "                 direct mode, re-running both sides) reproduces the\n"
      "                 report byte for byte\n");
}

/// One checked, observed run of the paper benchmark through the library
/// models' skeleton, captured as a ledger named `lib`.  trace_report's
/// compare mode runs the same pair.
obs::RunLedger run_direct(const std::string& lib, rt::HeuristicConfig heur,
                          const BenchConfig& cfg) {
  ModelSpec spec = spec_for_library("xkblas", heur);
  spec.name = lib;
  const BenchResult r = LibraryModel(std::move(spec)).run(cfg);
  if (r.failed) throw std::runtime_error(lib + " run failed: " + r.error);
  return r.ledger(r.report());
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path_a, path_b, topo_name = "dgx1", routine;
  std::string emit_a, emit_b, json_path;
  std::size_t n = 16384, tile = 2048;
  bool dod = false, assert_det = false;
  double assert_cov = -1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--topo") topo_name = next();
      else if (arg == "--routine") routine = next();
      else if (arg == "--n") n = cli::parse_size(arg, next());
      else if (arg == "--tile") tile = cli::parse_size(arg, next());
      else if (arg == "--data-on-device") dod = true;
      else if (arg == "--emit-a") emit_a = next();
      else if (arg == "--emit-b") emit_b = next();
      else if (arg == "--json") json_path = next();
      else if (arg == "--assert-coverage")
        assert_cov = cli::parse_double(arg, next());
      else if (arg == "--assert-deterministic") assert_det = true;
      else if (arg == "--help" || arg == "-h") { usage(); return 0; }
      else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        usage();
        return 2;
      } else if (path_a.empty()) {
        path_a = arg;
      } else if (path_b.empty()) {
        path_b = arg;
      } else {
        std::fprintf(stderr, "unexpected argument %s\n", arg.c_str());
        return 2;
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad argument: %s\n", e.what());
      return 2;
    }
  }

  const bool direct = !routine.empty();
  if (direct == !path_a.empty() || (!direct && path_b.empty())) {
    // Exactly one mode: either two ledger files, or a routine to run.
    usage();
    return 2;
  }

  try {
    obs::RunLedger a, b;
    BenchConfig cfg;
    if (direct) {
      cfg.routine = parse_routine(routine);
      cfg.n = n;
      cfg.tile = tile;
      cfg.topology = parse_topo(topo_name);
      cfg.data_on_device = dod;
      cfg.check.enabled = true;  // the ledger's event_hash comes from here
      cfg.obs.enabled = true;
      a = run_direct("xkblas", rt::HeuristicConfig::xkblas(), cfg);
      b = run_direct("nohint-notopo",
                     rt::HeuristicConfig::no_heuristic_no_topo(), cfg);
      if (!emit_a.empty() && !write_file(emit_a, obs::ledger_json(a)))
        return 1;
      if (!emit_b.empty() && !write_file(emit_b, obs::ledger_json(b)))
        return 1;
    } else {
      a = obs::ledger_from_file(path_a);
      b = obs::ledger_from_file(path_b);
    }

    const obs::LedgerDiff d = obs::diff_ledgers(a, b);
    const std::string text = obs::diff_text(a, b, d);
    std::fputs(text.c_str(), stdout);
    if (!json_path.empty() &&
        !write_file(json_path, obs::diff_json(a, b, d)))
      return 1;

    if (assert_det) {
      // Re-derive everything.  In direct mode this repeats both simulated
      // runs; in file mode it re-parses both artifacts.  Any byte of drift
      // in ledgers, diff, text, or JSON fails the gate.
      obs::RunLedger a2, b2;
      if (direct) {
        a2 = run_direct("xkblas", rt::HeuristicConfig::xkblas(), cfg);
        b2 = run_direct("nohint-notopo",
                        rt::HeuristicConfig::no_heuristic_no_topo(), cfg);
      } else {
        a2 = obs::ledger_from_file(path_a);
        b2 = obs::ledger_from_file(path_b);
      }
      const obs::LedgerDiff d2 = obs::diff_ledgers(a2, b2);
      const bool same = obs::ledger_json(a) == obs::ledger_json(a2) &&
                        obs::ledger_json(b) == obs::ledger_json(b2) &&
                        obs::diff_text(a2, b2, d2) == text &&
                        obs::diff_json(a2, b2, d2) == obs::diff_json(a, b, d);
      if (!same) {
        std::fprintf(stderr,
                     "assert-deterministic: re-derived report differs\n");
        return 6;
      }
      std::printf("deterministic: rerun reproduced the report byte for "
                  "byte\n");
    }

    if (assert_cov >= 0.0) {
      if (d.coverage < assert_cov) {
        std::fprintf(stderr,
                     "assert-coverage: categories explain %.1f%% of the "
                     "makespan delta, below the %.1f%% gate\n",
                     100.0 * d.coverage, 100.0 * assert_cov);
        return 5;
      }
      std::printf("coverage: %.1f%% of the makespan delta attributed "
                  "(gate %.1f%%)\n",
                  100.0 * d.coverage, 100.0 * assert_cov);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_diff: %s\n", e.what());
    return 1;
  }
  return 0;
}
