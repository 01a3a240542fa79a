// xkbsim_cli: run any single experiment of the reproduction from the
// command line -- routine, size, tile, library model, topology, heuristics,
// scenario, or a generic xkb::wl workload -- and print TFlop/s, transfer
// statistics, the per-class time breakdown and (optionally) a Gantt chart
// or CSV row.
//
//   xkbsim_cli --routine gemm --n 32768 --tile 2048 --lib xkblas
//   xkbsim_cli --routine syr2k --n 49152 --lib chameleon-tile --gantt
//   xkbsim_cli --routine gemm --n 16384 --lib xkblas --no-heur --no-topo
//   xkbsim_cli --routine trsm --n 24576 --data-on-device --csv
//   xkbsim_cli --workload stencil_1d:width=16,depth=32 --check
//   xkbsim_cli --workload-file traces/pipeline.wlg --lib xkblas --csv
//   xkbsim_cli --workload dnn:width=6,depth=4 --dump-wlg > pipeline.wlg
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "baselines/library_model.hpp"
#include "baselines/workload_entry.hpp"
#include "cli_parse.hpp"
#include "fault/fault.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "tdl/tpo.hpp"
#include "util/selfprof.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

constexpr const char* kRoutines =
    "gemm|symm|syrk|syr2k|trmm|trsm|hemm|herk|her2k";
constexpr const char* kTopos = "dgx1|pcie|nvswitch|summit";
constexpr const char* kScenarios = "data-on-host|data-on-device";

std::string lib_list() {
  std::string all;
  for (const std::string& n : library_names())
    all += (all.empty() ? "" : "|") + n;
  return all;
}

void usage() {
  std::printf(
      "usage: xkbsim_cli [options]\n"
      "\n"
      "experiment selection:\n"
      "  --routine R    %s (default gemm)\n"
      "  --n N          matrix dimension (default 32768)\n"
      "  --tile T       tile size (default 2048)\n"
      "  --lib L        %s (default xkblas)\n"
      "  --topo T       %s, a tdl preset name\n"
      "                 (fat_tree_2x8, pcie8, ...) or a .tpo machine\n"
      "                 description file (default dgx1)\n"
      "  --dump-topo    print the selected topology as canonical .tpo text\n"
      "                 and exit (generator for the committed presets)\n"
      "  --no-heur      disable the optimistic D2D heuristic (xkblas)\n"
      "  --no-topo      disable topology-aware source selection (xkblas)\n"
      "  --scenario S   %s (default data-on-host)\n"
      "  --data-on-device   shorthand for --scenario data-on-device\n"
      "\n"
      "generic workloads (xkb::wl; replaces --routine/--n/--tile):\n"
      "  --workload W   generator spec, e.g. stencil_1d:width=16,depth=32\n"
      "                 (generators: trivial|stencil_1d|nearest|fft|tree|\n"
      "                 random|dnn|composition)\n"
      "  --workload-file F  replay a .wlg task-graph file\n"
      "  --dump-wlg     print the selected workload as canonical .wlg text\n"
      "                 and exit (generator for the shipped examples)\n"
      "\n"
      "validation and observability:\n"
      "  --check        run under xkb::check (races, coherence, progress);\n"
      "                 exit 3 and print the report on any violation\n"
      "  --hash         print the FNV-1a event-stream hash (implies --check)\n"
      "  --metrics-out F  xkb::obs metrics + link-utilization + critical-path\n"
      "                 JSON to file F\n"
      "  --ledger-out F run ledger (schema xkb.obs.ledger/1: decisions,\n"
      "                 link histograms, critical path, event hash) to file\n"
      "                 F, for offline diffing with tools/run_diff\n"
      "  --selfprof     attach the host self-profiler and print the\n"
      "                 per-phase self-time table after the run\n"
      "  --flight-out F write the crash flight-recorder dump (last-N\n"
      "                 observable events + decisions + ledger snapshot,\n"
      "                 schema xkb.obs.flight/1) to F if the run fails\n"
      "  --trace-out F  the run's Chrome trace-event JSON to file F, enriched\n"
      "                 with decision/flow/counter tracks (--trace-json is an\n"
      "                 alias)\n"
      "\n"
      "fault injection (xkb::fault):\n"
      "  --fault-plan F run under the xkb::fault plan in file F\n"
      "  --fault-seed S run under a random seeded fault plan (brownouts, a\n"
      "                 route demotion, transfer failures)\n"
      "  --fault-horizon T  spread the seeded plan over [0, T) virtual\n"
      "                 seconds (default 0.1)\n"
      "\n"
      "output:\n"
      "  --gantt        print per-GPU busy-time table\n"
      "  --csv          print one machine-readable CSV row\n",
      kRoutines, lib_list().c_str(), kTopos, kScenarios);
}

bool parse_scenario(const std::string& s) {
  if (s == "data-on-host") return false;
  if (s == "data-on-device") return true;
  throw std::invalid_argument("unknown scenario '" + s +
                              "' (accepted: " + kScenarios + ")");
}

}  // namespace

int main(int argc, char** argv) {
  std::string routine = "gemm", lib = "xkblas", topo_name = "dgx1";
  std::size_t n = 32768, tile = 2048;
  bool no_heur = false, no_topo = false, dod = false, gantt = false,
       csv = false, check = false, hash = false, selfprof = false,
       dump_topo = false, dump_wlg = false;
  std::string trace_json, metrics_out, ledger_out, flight_out,
      fault_plan_file;
  std::string workload, workload_file;
  std::uint64_t fault_seed = 0;
  bool have_fault_seed = false;
  double fault_horizon = 0.1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--routine") routine = next();
      else if (arg == "--n") n = cli::parse_size(arg, next());
      else if (arg == "--tile") tile = cli::parse_size(arg, next());
      else if (arg == "--lib") lib = next();
      else if (arg == "--topo") topo_name = next();
      else if (arg == "--dump-topo") dump_topo = true;
      else if (arg == "--no-heur") no_heur = true;
      else if (arg == "--no-topo") no_topo = true;
      else if (arg == "--data-on-device") dod = true;
      else if (arg == "--scenario") dod = parse_scenario(next());
      else if (arg == "--workload") workload = next();
      else if (arg == "--workload-file") workload_file = next();
      else if (arg == "--dump-wlg") dump_wlg = true;
      else if (arg == "--gantt") gantt = true;
      else if (arg == "--trace-json" || arg == "--trace-out")
        trace_json = next();
      else if (arg == "--metrics-out") metrics_out = next();
      else if (arg == "--ledger-out") ledger_out = next();
      else if (arg == "--flight-out") flight_out = next();
      else if (arg == "--selfprof") selfprof = true;
      else if (arg == "--csv") csv = true;
      else if (arg == "--check") check = true;
      else if (arg == "--hash") { hash = true; check = true; }
      else if (arg == "--fault-plan") fault_plan_file = next();
      else if (arg == "--fault-seed") {
        fault_seed = cli::parse_size(arg, next());
        have_fault_seed = true;
      } else if (arg == "--fault-horizon")
        fault_horizon = cli::parse_double(arg, next());
      else if (arg == "--help" || arg == "-h") { usage(); return 0; }
      else {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        usage();
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }

  // The self-profiler reads wall clock only; it never feeds virtual time,
  // so the pinned event hash is identical with and without it attached.
  prof::SelfProfiler sprof;
  if (selfprof) prof::SelfProfiler::activate(&sprof);
  const auto selfprof_report = [&] {
    if (!selfprof) return;
    prof::SelfProfiler::activate(nullptr);
    std::printf("%s", sprof.table_text().c_str());
  };

  try {
    rt::HeuristicConfig heur = rt::HeuristicConfig::xkblas();
    if (no_heur) heur.optimistic_d2d = false;
    if (no_topo) heur.source = rt::SourcePolicy::kFirstValid;

    const topo::Topology topology = parse_topo(topo_name);
    if (dump_topo) {
      std::printf("%s", tdl::write_tpo(topology.machine()).c_str());
      return 0;
    }
    if (dump_wlg && workload.empty() && workload_file.empty())
      throw std::invalid_argument("--dump-wlg needs --workload or "
                                  "--workload-file");
    fault::FaultPlan fault_plan;
    if (!fault_plan_file.empty())
      fault_plan = fault::FaultPlan::parse_file(fault_plan_file);
    else if (have_fault_seed)
      fault_plan =
          fault::FaultPlan::random(fault_seed, topology.num_gpus(),
                                   fault_horizon);

    const bool obs_on = !metrics_out.empty() || !ledger_out.empty() ||
                        !flight_out.empty() || !trace_json.empty();
    BenchResult r;
    std::string experiment;  // header / CSV experiment column
    char header[256];
    if (!workload.empty() || !workload_file.empty()) {
      const wl::WorkloadGraph g =
          workload_file.empty()
              ? wl::build(wl::WorkloadSpec::parse(workload))
              : wl::parse_wlg_file(workload_file);
      if (dump_wlg) {
        std::printf("%s", wl::write_wlg(g).c_str());
        return 0;
      }
      const ModelSpec spec = spec_for_library(lib, heur);
      RunConfig wcfg;
      wcfg.data_on_device = dod;
      wcfg.topology = topology;
      wcfg.check.enabled = check;
      wcfg.obs.enabled = obs_on;
      wcfg.fault_plan = fault_plan;
      r = run_workload(spec, g, wcfg);
      experiment = g.name;
      std::snprintf(header, sizeof header, "%s workload %s on %s%s\n",
                    lib.c_str(), g.name.c_str(), topology.name().c_str(),
                    dod ? " (data-on-device)" : " (data-on-host)");
    } else {
      BenchConfig cfg;
      cfg.routine = parse_routine(routine);
      cfg.n = n;
      cfg.tile = tile;
      cfg.topology = topology;
      cfg.data_on_device = dod;
      cfg.check.enabled = check;
      cfg.obs.enabled = obs_on;
      cfg.fault_plan = fault_plan;
      const LibraryModel model(spec_for_library(lib, heur));
      if (!model.supports(cfg.routine)) {
        std::fprintf(stderr, "%s does not implement %s\n", lib.c_str(),
                     blas3_name(cfg.routine));
        return 1;
      }
      r = model.run(cfg);
      experiment = routine;
      std::snprintf(header, sizeof header, "%s %s N=%zu tile=%zu on %s%s\n",
                    lib.c_str(), blas3_name(cfg.routine), n, tile,
                    topology.name().c_str(),
                    dod ? " (data-on-device)" : " (data-on-host)");
    }

    if (r.failed) {
      std::fprintf(stderr, "run failed: %s\n", r.error.c_str());
      if (!flight_out.empty() && !r.flight_json.empty()) {
        std::ofstream fout(flight_out);
        fout << r.flight_json;
        std::fprintf(stderr, "flight dump -> %s\n", flight_out.c_str());
      }
      return 1;
    }
    if (hash)
      std::printf("event_hash: %016llx\n",
                  static_cast<unsigned long long>(r.event_hash));
    if (check && !r.check_ok) {
      std::fprintf(stderr, "xkb::check: %zu violation(s)\n%s",
                   r.check_violations, r.check_report.c_str());
      return 3;
    }
    if (!metrics_out.empty() || !ledger_out.empty()) {
      obs::RunReport rep = r.report();
      if (!metrics_out.empty()) {
        std::ofstream mout(metrics_out);
        mout << obs::report_json(rep, r.obs.get());
        std::printf("metrics -> %s\n", metrics_out.c_str());
      }
      if (!ledger_out.empty()) {
        std::ofstream lout(ledger_out);
        lout << obs::ledger_json(r.ledger(std::move(rep)));
        std::printf("ledger -> %s\n", ledger_out.c_str());
      }
    }
    if (!trace_json.empty()) {
      std::ofstream tout(trace_json);
      tout << obs::to_chrome_json(*r.trace, *r.obs);
      std::printf("trace -> %s (%zu events, %zu decisions, %zu chains)\n",
                  trace_json.c_str(), r.trace->records().size(),
                  r.obs->decisions().size(), r.obs->flows().size());
    }

    if (csv) {
      std::printf("lib,experiment,n,tile,topo,dod,seconds,tflops,h2d,d2d,"
                  "d2h,optimistic_waits,forced_waits,steals,tasks\n");
      std::printf("%s,%s,%zu,%zu,%s,%d,%.6f,%.3f,%zu,%zu,%zu,%zu,%zu,%zu,"
                  "%zu\n",
                  lib.c_str(), experiment.c_str(), n, tile, topo_name.c_str(),
                  dod ? 1 : 0, r.seconds, r.tflops, r.transfers.h2d,
                  r.transfers.d2d, r.transfers.d2h,
                  r.transfers.optimistic_waits, r.transfers.forced_waits,
                  r.steals, r.tasks);
      selfprof_report();
      return 0;
    }

    std::printf("%s", header);
    std::printf("  time     : %.4f s (virtual)\n", r.seconds);
    std::printf("  rate     : %.2f TFlop/s\n", r.tflops);
    std::printf("  tasks    : %zu (%zu steals)\n", r.tasks, r.steals);
    std::printf("  transfers: %zu HtoD, %zu DtoD, %zu DtoH "
                "(%zu duplicate H2D avoided, %zu forced waits)\n",
                r.transfers.h2d, r.transfers.d2d, r.transfers.d2h,
                r.transfers.optimistic_waits, r.transfers.forced_waits);
    if (!r.fault_json.empty())
      std::printf("  faults   : %zu transfer aborts, %zu retries, "
                  "%zu task remaps, %zu replays\n     %s\n",
                  r.transfers.transfer_aborts, r.transfers.transfer_retries,
                  r.task_remaps, r.task_replays, r.fault_json.c_str());
    const auto& b = r.breakdown;
    std::printf("  GPU time : %.2fs kernel, %.2fs HtoD, %.2fs PtoP, "
                "%.2fs DtoH (%.1f%% transfers)\n",
                b.kernel, b.htod, b.ptop, b.dtoh,
                100.0 * b.transfers() / b.total());
    if (gantt) {
      std::printf("\nPer-GPU busy time:\n");
      Table t({"GPU", "kernel(s)", "transfers(s)"});
      for (std::size_t g = 0; g < r.per_gpu.size(); ++g)
        t.add_row({std::to_string(g), Table::num(r.per_gpu[g].kernel, 3),
                   Table::num(r.per_gpu[g].transfers(), 3)});
      std::printf("%s", t.to_text().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
  selfprof_report();
  return 0;
}
