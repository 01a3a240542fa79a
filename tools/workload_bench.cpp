// workload_bench: the xkb::wl evidence tool.
//
//   workload_bench --check [--json out.json]
//       run every generator x {xkblas, xkblas-noheur, xkblas-notopo} x
//       {data-on-host, data-on-device} under xkb::check; exit 4 unless the
//       whole matrix passes.  --json writes the per-run rows (plus the
//       ablation comparison) as a machine-readable artifact.
//
//   workload_bench --ablation-gate
//       the paper's argument on generic workloads: on stencil_1d and dnn,
//       the topology-aware build must move strictly fewer bytes over
//       PCIe/host links, finish earlier, and carry a higher NVLink share of
//       critical-path transfer time than the no-heuristic/no-topo ablation.
//       Exit 5 on any violated inequality (CI gate).
//
//   workload_bench --roundtrip file.wlg [...]
//       assert write(parse(file)) == file for each file; exit 6 otherwise.
//
//   workload_bench --emit SPEC --out file.wlg
//       write a generator's graph in canonical .wlg form (how the shipped
//       examples under workloads/ are produced).
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/workload_entry.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "workload/workload.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

void usage() {
  std::printf(
      "usage: workload_bench [mode] [options]\n"
      "  --check            run the generator x library x placement matrix\n"
      "                     under xkb::check (exit 4 on any failure)\n"
      "  --ablation-gate    assert the topology-aware build beats the\n"
      "                     no-heuristic/no-topo ablation on stencil_1d and\n"
      "                     dnn: fewer PCIe+host bytes, lower makespan,\n"
      "                     higher NVLink critical-path share (exit 5)\n"
      "  --roundtrip F...   assert write(parse(F)) == F (exit 6)\n"
      "  --emit SPEC        build a generator graph ...\n"
      "  --out F            ... and write it as canonical .wlg to F\n"
      "  --json F           write the run rows as a JSON artifact (--check)\n"
      "  --topo T           dgx1|pcie|nvswitch|summit, a tdl preset name or\n"
      "                     a .tpo machine file (default dgx1)\n");
}

/// The sweep's library column: the three Fig. 3 heuristic variants.
struct LibVariant {
  const char* name;
  rt::HeuristicConfig heur;
};

std::vector<LibVariant> sweep_libs() {
  return {{"xkblas", rt::HeuristicConfig::xkblas()},
          {"xkblas-noheur", rt::HeuristicConfig::no_heuristic()},
          {"xkblas-notopo", rt::HeuristicConfig::no_heuristic_no_topo()}};
}

/// Small, fast instances of every generator (the sweep is about policy
/// coverage, not scale).
std::vector<std::string> sweep_specs() {
  return {"trivial",   "stencil_1d", "nearest", "fft",
          "tree",      "random",     "dnn",     "composition:n=8192,tile=2048"};
}

struct SweepRow {
  std::string workload, lib, scenario;
  bool ok = false;
  std::string error;
  double seconds = 0.0, tflops = 0.0;
  std::size_t tasks = 0, h2d = 0, d2d = 0, d2h = 0, optimistic_waits = 0;
};

/// One observed run through the library models' skeleton, reduced to the
/// gate's link-class byte totals and critical-path share.
struct DirectWorkloadRun {
  double span = 0.0;
  double pcie_host_bytes = 0.0;
  double nvlink_bytes = 0.0;
  double nvlink_cp_share = 0.0;
};

DirectWorkloadRun run_direct(const wl::WorkloadGraph& g,
                             const topo::Topology& topo,
                             rt::HeuristicConfig heur, bool dod) {
  RunConfig cfg;
  cfg.data_on_device = dod;
  cfg.topology = topo;
  cfg.obs.enabled = true;
  const BenchResult res =
      run_workload(spec_for_library("xkblas", heur), g, cfg);
  if (res.failed) throw std::runtime_error(g.name + ": " + res.error);
  const obs::RunReport rep = res.report();
  DirectWorkloadRun r;
  r.span = rep.span;
  for (const obs::LinkRow& row : rep.links) {
    if (row.cls == "PCIe" || row.cls == "host")
      r.pcie_host_bytes += static_cast<double>(row.bytes);
    else if (row.cls == "1xNVLink" || row.cls == "2xNVLink")
      r.nvlink_bytes += static_cast<double>(row.bytes);
  }
  r.nvlink_cp_share = rep.cp.nvlink_share();
  return r;
}

/// The two gate workloads, each run in the scenario where its traffic
/// pattern exercises the heuristics under ablation.  The stencil runs
/// data-on-host: its layer-0 input halo is a 3-way broadcast of every input
/// tile, which the optimistic heuristic serves with one H2D plus peer
/// forwards where the blind build pays three PCIe H2Ds.  The dnn runs
/// data-on-device: its per-layer weight broadcast accumulates replicas, and
/// the topology-aware source choice drains them over NVLink instead of
/// hammering the first holder's PCIe links.
struct GateCase {
  const char* spec;
  bool dod = false;
};

std::vector<GateCase> gate_specs() {
  return {{"stencil_1d:width=32,depth=2,flops=1e8,bytes=33554432", false},
          {"dnn:width=8,depth=10,flops=1e8,bytes=16777216", true}};
}

int run_ablation_gate(const topo::Topology& topo, std::string* json_rows) {
  int rc = 0;
  std::ostringstream js;
  bool first = true;
  for (const GateCase& gc : gate_specs()) {
    const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(gc.spec));
    const DirectWorkloadRun on =
        run_direct(g, topo, rt::HeuristicConfig::xkblas(), gc.dod);
    const DirectWorkloadRun off = run_direct(
        g, topo, rt::HeuristicConfig::no_heuristic_no_topo(), gc.dod);
    const char* scenario = gc.dod ? "data-on-device" : "data-on-host";

    std::printf("%s (%s):\n", g.name.c_str(), scenario);
    std::printf("  makespan        : %.6fs (topo-aware) vs %.6fs (blind)\n",
                on.span, off.span);
    std::printf("  PCIe+host bytes : %.0f vs %.0f\n", on.pcie_host_bytes,
                off.pcie_host_bytes);
    std::printf("  NVLink bytes    : %.0f vs %.0f\n", on.nvlink_bytes,
                off.nvlink_bytes);
    std::printf("  NVLink CP share : %.1f%% vs %.1f%%\n",
                100.0 * on.nvlink_cp_share, 100.0 * off.nvlink_cp_share);

    if (!(on.pcie_host_bytes < off.pcie_host_bytes)) {
      std::fprintf(stderr,
                   "FAIL %s: topo-aware PCIe+host bytes not strictly lower "
                   "(%.0f >= %.0f)\n",
                   g.name.c_str(), on.pcie_host_bytes, off.pcie_host_bytes);
      rc = 5;
    }
    if (!(on.span < off.span)) {
      std::fprintf(stderr,
                   "FAIL %s: topo-aware makespan not lower (%.6f >= %.6f)\n",
                   g.name.c_str(), on.span, off.span);
      rc = 5;
    }
    if (!(on.nvlink_cp_share > off.nvlink_cp_share)) {
      std::fprintf(stderr,
                   "FAIL %s: critical-path NVLink share did not shift up "
                   "(%.3f <= %.3f)\n",
                   g.name.c_str(), on.nvlink_cp_share, off.nvlink_cp_share);
      rc = 5;
    }

    if (json_rows) {
      if (!first) js << ",\n";
      first = false;
      js << "  {\"workload\": \"" << g.name << "\", \"scenario\": \""
         << scenario << "\""
         << ", \"xkblas\": {\"makespan\": " << on.span
         << ", \"pcie_host_bytes\": " << on.pcie_host_bytes
         << ", \"nvlink_bytes\": " << on.nvlink_bytes
         << ", \"nvlink_cp_share\": " << on.nvlink_cp_share << "}"
         << ", \"ablation\": {\"makespan\": " << off.span
         << ", \"pcie_host_bytes\": " << off.pcie_host_bytes
         << ", \"nvlink_bytes\": " << off.nvlink_bytes
         << ", \"nvlink_cp_share\": " << off.nvlink_cp_share << "}}";
    }
  }
  if (json_rows) *json_rows = js.str();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_check = false, do_gate = false;
  std::string json_path, emit_spec, out_path, topo_name = "dgx1";
  std::vector<std::string> roundtrip_files;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--check") do_check = true;
      else if (arg == "--ablation-gate") do_gate = true;
      else if (arg == "--json") json_path = next();
      else if (arg == "--emit") emit_spec = next();
      else if (arg == "--out") out_path = next();
      else if (arg == "--topo") topo_name = next();
      else if (arg == "--roundtrip") {
        while (i + 1 < argc && argv[i + 1][0] != '-')
          roundtrip_files.push_back(argv[++i]);
        if (roundtrip_files.empty())
          throw std::invalid_argument("--roundtrip needs at least one file");
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        usage();
        return 2;
      }
    }

    const topo::Topology topo = parse_topo(topo_name);

    if (!emit_spec.empty()) {
      if (out_path.empty())
        throw std::invalid_argument("--emit needs --out <file>");
      const wl::WorkloadGraph g =
          wl::build(wl::WorkloadSpec::parse(emit_spec));
      std::ofstream out(out_path);
      if (!out)
        throw std::invalid_argument("cannot write " + out_path);
      out << wl::write_wlg(g);
      std::printf("%s: %zu tiles, %zu tasks, %zu edges -> %s\n",
                  g.name.c_str(), g.tiles.size(), g.tasks.size(),
                  g.edge_count(), out_path.c_str());
      return 0;
    }

    if (!roundtrip_files.empty()) {
      int rc = 0;
      for (const std::string& path : roundtrip_files) {
        std::ifstream in(path);
        if (!in) {
          std::fprintf(stderr, "cannot read %s\n", path.c_str());
          return 6;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const wl::WorkloadGraph g = wl::parse_wlg(buf.str(), path);
        const std::string rewritten = wl::write_wlg(g);
        if (rewritten != buf.str()) {
          std::fprintf(stderr, "FAIL %s: write(parse(file)) != file\n",
                       path.c_str());
          rc = 6;
        } else {
          std::printf("ok %s (%zu tiles, %zu tasks)\n", path.c_str(),
                      g.tiles.size(), g.tasks.size());
        }
      }
      return rc;
    }

    if (!do_check && !do_gate) {
      usage();
      return 2;
    }

    std::vector<SweepRow> rows;
    int rc = 0;
    if (do_check) {
      std::size_t pass = 0, fail = 0;
      for (const std::string& spec_text : sweep_specs()) {
        const wl::WorkloadGraph g =
            wl::build(wl::WorkloadSpec::parse(spec_text));
        for (const LibVariant& lv : sweep_libs()) {
          const ModelSpec spec = spec_for_library("xkblas", lv.heur);
          for (const bool dod : {false, true}) {
            SweepRow row;
            row.workload = g.name;
            row.lib = lv.name;
            row.scenario = dod ? "data-on-device" : "data-on-host";
            RunConfig cfg;
            cfg.data_on_device = dod;
            cfg.topology = topo;
            cfg.check.enabled = true;
            const BenchResult r = run_workload(spec, g, cfg);
            row.ok = !r.failed && r.check_ok;
            if (r.failed) row.error = r.error;
            else if (!r.check_ok) row.error = "check violations";
            row.seconds = r.seconds;
            row.tflops = r.tflops;
            row.tasks = r.tasks;
            row.h2d = r.transfers.h2d;
            row.d2d = r.transfers.d2d;
            row.d2h = r.transfers.d2h;
            row.optimistic_waits = r.transfers.optimistic_waits;
            (row.ok ? pass : fail) += 1;
            std::printf("%-4s %-42s %-14s %-15s %8.4fs %6zu tasks\n",
                        row.ok ? "ok" : "FAIL", row.workload.c_str(),
                        row.lib.c_str(), row.scenario.c_str(), row.seconds,
                        row.tasks);
            if (!row.ok)
              std::fprintf(stderr, "  %s\n", row.error.c_str());
            rows.push_back(std::move(row));
          }
        }
      }
      std::printf("matrix: %zu pass, %zu fail\n", pass, fail);
      if (fail > 0) rc = 4;
    }

    std::string gate_json;
    if (do_gate) {
      const int gate_rc =
          run_ablation_gate(topo, json_path.empty() ? nullptr : &gate_json);
      if (gate_rc != 0) rc = gate_rc;
    }

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out)
        throw std::invalid_argument("cannot write " + json_path);
      out << "{\n\"provenance\": "
          << obs::Provenance::current("xkb.bench.workloads", 1).to_json()
          << ",\n\"topology\": \"" << topo.name() << "\",\n\"runs\": [\n";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow& r = rows[i];
        out << "  {\"workload\": \"" << r.workload << "\", \"lib\": \""
            << r.lib << "\", \"scenario\": \"" << r.scenario
            << "\", \"ok\": " << (r.ok ? "true" : "false")
            << ", \"seconds\": " << r.seconds << ", \"tflops\": " << r.tflops
            << ", \"tasks\": " << r.tasks << ", \"h2d\": " << r.h2d
            << ", \"d2d\": " << r.d2d << ", \"d2h\": " << r.d2h
            << ", \"optimistic_waits\": " << r.optimistic_waits << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
      }
      out << "],\n\"ablation\": [\n" << gate_json << "\n]\n}\n";
      std::printf("json -> %s\n", json_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
}
