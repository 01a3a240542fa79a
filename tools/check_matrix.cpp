// check_matrix: the checked-matrix gates that keep the simulated runtime
// honest, one section per row of a table.  Each section makes its runs --
// most of them under xkb::check, which validates every coherence
// transition, source choice and dependence edge -- and sets the exit code
// when its gate fails.  Positional ids pick the sections; with none the tool
// runs `libs`.  Several ids run in order, and the exit code is that of the
// first section that fails.
//
//   libs       every library x routine x scenario, checked            exit 3
//              reads --n N, --tile T and --obs (also attach xkb::obs:
//              runs observed through the shared fan-out must stay clean)
//   overhead   checked vs unchecked wall clock on a GEMM workload      exit 4
//              (budget 2.0x), then obs on vs off (budget 1.3x)
//   selfprof   the self-profiler's attach overhead on the same         exit 4
//              workload (budget 1.3x); the pinned event hash must not
//              move with the profiler attached
//   chaos      XKBlas and Chameleon Tile, GEMM and TRSM, under four     exit 3
//              seeded fault plans; reads --n, --tile, --report F (a JSON
//              fault report per run)
//   flight     a forced watchdog stall must leave a valid crash         exit 3
//              flight-recorder dump; reads --n, --tile, --flight-out F
//   workloads  every xkb::wl generator x heuristic variant x scenario,  exit 4
//              checked; reads --topo T
//   ablation   on stencil_1d and dnn the topology-aware build beats     exit 5
//              the blind ablation; reads --topo T
//
// workloads and ablation write one shared JSON artifact with --json F.  An
// unknown id or flag, a flag that no selected section reads and a bad value
// exit 2.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/library_model.hpp"
#include "baselines/workload_entry.hpp"
#include "cli_parse.hpp"
#include "fault/fault.hpp"
#include "obs/ledger.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "overhead_probe.hpp"
#include "trace/export.hpp"
#include "util/flops.hpp"
#include "util/json.hpp"
#include "workload/workload.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

/// The flags, as bits of the set a section reads.
enum Flag : unsigned {
  kN = 1, kTile = 2, kObs = 4, kTopo = 8, kReport = 16, kJson = 32,
  kFlightOut = 64,
};

struct Options {
  std::size_t n = 8192, tile = 2048;
  bool obs = false;
  std::string topo = "dgx1", report, json, flight_out;
};

const char* scenario_name(bool dod) {
  return dod ? "data-on-device" : "data-on-host";
}

// ---- the row runner ------------------------------------------------------

enum Verdict { kClean, kViolations, kDiagnosed, kCrash };
constexpr const char* kVerdictNames[] = {"clean", "VIOLATIONS", "diagnosed",
                                         "CRASH"};

/// One run with the labels its line and its report row carry.
struct Run {
  std::string lib, what, scenario, fault;  ///< what: a routine or workload
  BenchResult r;
};

/// The runs of one section.  add() sorts a finished run into clean,
/// checker violations, diagnosed failure (one with an error message) or
/// crash, prints its line, counts it and, for a section that writes a
/// report, keeps it.
struct Rows {
  explicit Rows(bool keep_runs = false) : keep(keep_runs) {}

  bool keep;
  std::size_t count[4] = {};
  std::vector<Run> kept;

  Verdict add(Run run) {
    const BenchResult& r = run.r;
    const Verdict v = !r.failed ? (r.check_ok ? kClean : kViolations)
                                : (r.error.empty() ? kCrash : kDiagnosed);
    ++count[v];
    std::printf("%-10s %s %s %s%s%s", kVerdictNames[v], run.lib.c_str(),
                run.what.c_str(), run.scenario.c_str(),
                run.fault.empty() ? "" : " ", run.fault.c_str());
    if (r.failed) std::printf(": %s\n", r.error.c_str());
    else
      std::printf(" %.4fs %zu tasks%s\n", r.seconds, r.tasks,
                  r.transfers.waiter_replans ? " [waiter-replan]" : "");
    if (v == kViolations)
      std::fprintf(stderr, "%zu violation(s)\n%s\n", r.check_violations,
                   r.check_report.c_str());
    if (keep) kept.push_back(std::move(run));
    return v;
  }
};

/// A checked run of `routine` at the --n/--tile size.
BenchConfig checked_config(Blas3 routine, bool dod, const Options& o) {
  BenchConfig cfg;
  cfg.routine = routine;
  cfg.n = o.n;
  cfg.tile = o.tile;
  cfg.data_on_device = dod;
  cfg.check.enabled = true;
  return cfg;
}

/// What the sections share: the options, and the runs and gate rows the
/// workloads and ablation sections leave for the --json artifact.
struct Context {
  Options opt;
  std::string topology;    ///< the workload sections' machine
  Rows workload_rows{true};
  std::string ablation;    ///< the ablation gate's JSON rows
};

// ---- libs ----------------------------------------------------------------

bool run_libs(Context& c) {
  constexpr Blas3 kRoutines[] = {
      Blas3::kGemm, Blas3::kSymm, Blas3::kSyrk, Blas3::kSyr2k, Blas3::kTrmm,
      Blas3::kTrsm, Blas3::kHemm, Blas3::kHerk, Blas3::kHer2k,
  };
  Rows rows;
  std::size_t skipped = 0;
  for (const auto& model : all_models()) {
    for (Blas3 routine : kRoutines) {
      for (bool dod : {false, true}) {
        if (!model->supports(routine)) {
          ++skipped;
          continue;
        }
        BenchConfig cfg = checked_config(routine, dod, c.opt);
        cfg.obs.enabled = c.opt.obs;
        rows.add({model->name(), blas3_name(routine), scenario_name(dod), "",
                  model->run(cfg)});
      }
    }
  }
  // Capacity failures (e.g. BLASX beyond 45k) are model behaviour, not
  // checker findings.
  skipped += rows.count[kDiagnosed] + rows.count[kCrash];
  std::printf("libs: %zu/%zu checked runs clean, %zu skipped "
              "(unsupported/capacity)\n",
              rows.count[kClean], rows.count[kClean] + rows.count[kViolations],
              skipped);
  return rows.count[kViolations] == 0;
}

// ---- overhead and selfprof -----------------------------------------------

/// The probes' GEMM workload.  A run is about 1 ms of wall clock, so each
/// side times a block of 20: a budget checked on single-millisecond samples
/// would be noise-bound.
constexpr int kProbeReps = 20;

BenchConfig probe_config() {
  BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 16384;
  cfg.tile = 2048;
  return cfg;
}

bool run_overhead(Context&) {
  using probe::Attach;
  const BenchConfig cfg = probe_config();
  const double off = probe::timed_block(cfg, Attach::kNothing, kProbeReps);
  const double on = probe::timed_block(cfg, Attach::kChecker, kProbeReps);
  if (off <= 0.0 || on <= 0.0) {
    std::fprintf(stderr, "overhead probe failed to run\n");
    return false;
  }
  const double ratio = on / off;
  std::printf("checked-mode overhead: %.2fx (%.3fs -> %.3fs over %d reps)\n",
              ratio, off, on, kProbeReps);
  if (ratio > 2.0) {
    std::fprintf(stderr, "overhead budget exceeded (limit 2.0x)\n");
    return false;
  }
  // The observability layer must stay near-free: passive probes and
  // counter bumps only, no extra engine events.
  const double obs_on = probe::timed_block(cfg, Attach::kObs, kProbeReps);
  if (obs_on <= 0.0) {
    std::fprintf(stderr, "obs overhead probe failed to run\n");
    return false;
  }
  const double obs_ratio = obs_on / off;
  std::printf("obs-mode overhead: %.2fx (%.3fs -> %.3fs over %d reps)\n",
              obs_ratio, off, obs_on, kProbeReps);
  if (obs_ratio > 1.3) {
    std::fprintf(stderr, "obs overhead budget exceeded (limit 1.3x)\n");
    return false;
  }
  return true;
}

bool run_selfprof(Context&) {
  using probe::Attach;
  const BenchConfig cfg = probe_config();
  // Hash invariance: the profiler must not perturb the event stream.
  prof::SelfProfiler sp;
  const probe::HashPair hashes = probe::hash_pair(cfg, sp);
  if (!hashes.ok) {
    std::fprintf(stderr,
                 "self-profiler changed the pinned event hash "
                 "(%016llx vs %016llx)\n",
                 static_cast<unsigned long long>(hashes.off),
                 static_cast<unsigned long long>(hashes.on));
    return false;
  }
  // Attach overhead under the same 1.3x budget as the obs layer.
  const double off = probe::timed_block(cfg, Attach::kNothing, kProbeReps);
  const double on =
      probe::timed_block(cfg, Attach::kProfiler, kProbeReps, &sp);
  if (off <= 0.0 || on <= 0.0) {
    std::fprintf(stderr, "selfprof overhead probe failed to run\n");
    return false;
  }
  const double ratio = on / off;
  std::printf(
      "selfprof-mode overhead: %.2fx (%.3fs -> %.3fs over %d reps), "
      "hash invariant\n",
      ratio, off, on, kProbeReps);
  if (ratio > 1.3) {
    std::fprintf(stderr, "selfprof overhead budget exceeded (limit 1.3x)\n");
    return false;
  }
  return true;
}

// ---- chaos ---------------------------------------------------------------
//
// Every recovery path of xkb::fault (brownout re-ranking, route demotion,
// transient-transfer retry, waiter re-planning, device blacklisting with
// task remap and replica reconstruction) runs under the full checker.  Each
// configuration first runs fault-free to learn its makespan T, then replays
// under plans whose events land at fixed fractions of T:
//
//   brownout       both NVLink directions of a busy pair drop to 15%
//   link-down      a route is demoted one step (2xNVLink -> 1xNVLink -> PCIe)
//   transfer-fail  targeted + probabilistic in-flight aborts, retried with
//                  capped backoff
//   device-fail    a GPU dies mid-run: tasks remap, replicas rebuild
//
// The transient faults must complete clean.  device-fail must complete
// clean or fail with a precise UnrecoverableDataLoss diagnostic, and at
// least one device-fail run must complete clean after re-planning a waiting
// reception whose source died mid-transfer (the acceptance run).  One
// faulted configuration is run twice under the same plan and must
// reproduce its event hash bit for bit.

fault::FaultPlan make_plan(const std::string& kind, double T, int gpus) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultEvent e;
  if (kind == "brownout") {
    // Both directions of a busy NVLink pair sag to 15% for half the run.
    e.kind = fault::FaultKind::kBrownout;
    e.t = 0.2 * T;
    e.a = 0;
    e.b = 1 % gpus;
    e.fraction = 0.15;
    e.duration = 0.5 * T;
    plan.events.push_back(e);
    e.a = 1 % gpus;
    e.b = 0;
    plan.events.push_back(e);
  } else if (kind == "link-down") {
    // Permanent one-step route demotion (2xNVLink -> 1xNVLink -> PCIe).
    e.kind = fault::FaultKind::kLinkDown;
    e.t = 0.25 * T;
    e.a = 0;
    e.b = 1 % gpus;
    plan.events.push_back(e);
    e.a = 1 % gpus;
    e.b = 0;
    plan.events.push_back(e);
  } else if (kind == "transfer-fail") {
    // A handful of targeted aborts plus a light probabilistic drizzle; the
    // retry machinery must absorb all of it.
    plan.fail_prob = 0.02;
    e.kind = fault::FaultKind::kTransferFail;
    e.xfer = fault::TransferKind::kAny;
    for (double f : {0.1, 0.3, 0.5, 0.7}) {
      e.t = f * T;
      plan.events.push_back(e);
    }
  } else {  // device-fail
    e.kind = fault::FaultKind::kDeviceFail;
    e.t = 0.35 * T;
    e.a = 1 % gpus;
    plan.events.push_back(e);
  }
  return plan;
}

BenchResult chaos_run(const std::string& lib, Blas3 routine, bool dod,
                      const Options& o, const fault::FaultPlan& plan) {
  BenchConfig cfg = checked_config(routine, dod, o);
  cfg.fault_plan = plan;
  const auto model = lib == "xkblas"
                         ? make_xkblas(rt::HeuristicConfig::xkblas())
                         : make_chameleon(/*tile_layout=*/true);
  return model->run(cfg);
}

/// The chaos report (schema xkb.bench.chaos/2): one row per faulted run,
/// its fault class under "fault" and the injector and recovery counters
/// under "fault_stats" (null for a run that failed).
void write_chaos_report(const Options& o, const Rows& rows, bool acceptance,
                        bool determinism, std::size_t failures) {
  std::ofstream out(o.report);
  out << "{\"provenance\":"
      << obs::Provenance::current("xkb.bench.chaos", 2, 42).to_json()
      << ",\"n\":" << o.n << ",\"tile\":" << o.tile << ",\"runs\":[";
  for (std::size_t i = 0; i < rows.kept.size(); ++i) {
    const Run& run = rows.kept[i];
    const BenchResult& r = run.r;
    if (i) out << ",";
    out << "{\"lib\":\"" << run.lib << "\",\"routine\":\"" << run.what
        << "\",\"scenario\":\"" << run.scenario << "\",\"fault\":\""
        << run.fault << "\",\"completed\":" << (r.failed ? "false" : "true")
        << ",\"check_ok\":" << (r.check_ok ? "true" : "false")
        << ",\"seconds\":" << r.seconds << ",\"waiter_replans\":"
        << r.transfers.waiter_replans << ",\"task_remaps\":" << r.task_remaps
        << ",\"task_replays\":" << r.task_replays << ",\"error\":\""
        << trace::json_escape(r.error) << "\",\"fault_stats\":"
        << (r.fault_json.empty() ? "null" : r.fault_json) << "}";
  }
  out << "],\"acceptance_waiter_replan\":" << (acceptance ? "true" : "false")
      << ",\"determinism_ok\":" << (determinism ? "true" : "false")
      << ",\"failures\":" << failures << "}\n";
  std::printf("fault report -> %s\n", o.report.c_str());
}

bool run_chaos(Context& c) {
  const Options& o = c.opt;
  const int gpus = topo::Topology::dgx1().num_gpus();
  Rows rows{true};
  std::size_t failures = 0;
  bool acceptance = false;  // a waiter re-planned off a dead source, clean
  bool determinism = true;

  const std::string libs[] = {"xkblas", "chameleon-tile"};
  const std::string faults[] = {"brownout", "link-down", "transfer-fail",
                                "device-fail"};
  for (const std::string& lib : libs) {
    for (Blas3 routine : {Blas3::kGemm, Blas3::kTrsm}) {
      for (bool dod : {false, true}) {
        // Fault-free reference run: the makespan the plans are timed by.
        const BenchResult base = chaos_run(lib, routine, dod, o, {});
        if (base.failed || !base.check_ok) {
          std::fprintf(stderr, "FAIL %s %s %s: fault-free reference run "
                       "broken: %s\n", lib.c_str(), blas3_name(routine),
                       scenario_name(dod), base.error.c_str());
          ++failures;
          continue;
        }
        const double T = base.seconds;
        for (const std::string& fault : faults) {
          const Verdict v = rows.add(
              {lib, blas3_name(routine), scenario_name(dod), fault,
               chaos_run(lib, routine, dod, o, make_plan(fault, T, gpus))});
          // Degraded-but-alive faults must complete clean; a whole-GPU loss
          // may also end in a precise diagnostic.
          const bool gpu_loss = fault == "device-fail";
          if (v != kClean && !(gpu_loss && v == kDiagnosed)) {
            ++failures;
            std::fprintf(stderr, "FAIL %s %s %s under %s\n", lib.c_str(),
                         blas3_name(routine), scenario_name(dod),
                         fault.c_str());
          }
          acceptance |= gpu_loss && v == kClean &&
                        rows.kept.back().r.transfers.waiter_replans > 0;
        }
        // Determinism: the same plan must reproduce the same event stream.
        if (lib == "xkblas" && routine == Blas3::kGemm) {
          const fault::FaultPlan plan = make_plan("transfer-fail", T, gpus);
          const std::uint64_t a =
              chaos_run(lib, routine, dod, o, plan).event_hash;
          const std::uint64_t b =
              chaos_run(lib, routine, dod, o, plan).event_hash;
          if (a != b || a == 0) {
            determinism = false;
            std::fprintf(stderr,
                         "FAIL determinism: %016llx != %016llx (%s %s)\n",
                         static_cast<unsigned long long>(a),
                         static_cast<unsigned long long>(b),
                         blas3_name(routine), scenario_name(dod));
          }
        }
      }
    }
  }

  if (!acceptance) {
    // The standing device-fail plan did not catch a waiter mid-chain for
    // any configuration.  Probe the optimistic-wait-heavy configuration --
    // data-on-host GEMM chains hundreds of peer receptions on in-flight
    // H2D arrivals -- and sweep the fail instant over the early part of
    // the run, where the chains are dense and the victim's tiles are not
    // yet dirty (so recovery can complete, not just diagnose).
    const double T =
        chaos_run("xkblas", Blas3::kGemm, false, o, {}).seconds;
    for (double f = 0.02; f <= 0.6 && !acceptance; f += 0.02) {
      fault::FaultPlan plan;
      plan.seed = 42;
      fault::FaultEvent e;
      e.kind = fault::FaultKind::kDeviceFail;
      e.t = f * T;
      e.a = 1;
      plan.events.push_back(e);
      acceptance =
          rows.add({"xkblas", blas3_name(Blas3::kGemm), scenario_name(false),
                    "device-fail",
                    chaos_run("xkblas", Blas3::kGemm, false, o, plan)}) ==
              kClean &&
          rows.kept.back().r.transfers.waiter_replans > 0;
    }
  }
  if (!acceptance) {
    std::fprintf(stderr,
                 "FAIL acceptance: no run re-planned a waiting reception "
                 "off a failed source and completed\n");
    ++failures;
  }

  if (!o.report.empty())
    write_chaos_report(o, rows, acceptance, determinism, failures);
  std::printf("chaos: %zu runs, %zu failures, acceptance %s, "
              "determinism %s\n",
              rows.kept.size(), failures, acceptance ? "hit" : "MISSED",
              determinism ? "ok" : "BROKEN");
  return failures == 0 && determinism;
}

// ---- flight --------------------------------------------------------------

/// A dropped task completion (a checker test fault) starves the successors
/// while a non-empty fault plan keeps the watchdog armed; the watchdog
/// notices the dead run, Runtime::on_stuck snapshots the ledger, dumps the
/// flight ring and throws StuckProgress.  The dump (schema xkb.obs.flight/1)
/// must carry a non-empty last-N timeline, a parseable ledger snapshot and
/// the stall reason.
bool run_flight(Context& c) {
  const Options& o = c.opt;
  BenchConfig cfg = checked_config(Blas3::kGemm, false, o);
  cfg.check.faults.drop_completion_task = 10;
  cfg.obs.enabled = true;
  cfg.fault_plan.seed = 42;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBrownout;
  e.t = 1.0;  // never reached; the plan exists only to arm the watchdog
  e.a = 0;
  e.b = 1;
  e.fraction = 0.5;
  e.duration = 0.1;
  cfg.fault_plan.events.push_back(e);

  const BenchResult r = make_xkblas(rt::HeuristicConfig::xkblas())->run(cfg);
  if (!r.failed) {
    std::fprintf(stderr, "flight: expected a watchdog stall, run completed\n");
    return false;
  }
  if (r.flight_json.empty()) {
    std::fprintf(stderr, "flight: stall produced no flight dump "
                 "(error was: %s)\n", r.error.c_str());
    return false;
  }
  try {
    const util::JsonValue doc = util::json_parse(r.flight_json);
    const std::string schema = doc.at("provenance").at("schema").as_string();
    if (schema != "xkb.obs.flight/1")
      throw std::runtime_error("unexpected dump schema " + schema);
    if (doc.at("timeline").as_array().empty())
      throw std::runtime_error("flight timeline is empty");
    if (doc.at("reason").as_string().find("watchdog-stall") ==
        std::string::npos)
      throw std::runtime_error("dump reason does not name the stall: " +
                               doc.at("reason").as_string());
    // The embedded ledger snapshot must itself be a valid ledger.
    obs::ledger_from_json(doc.at("ledger"));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "flight: invalid dump: %s\n", ex.what());
    return false;
  }
  if (!o.flight_out.empty()) {
    std::ofstream out(o.flight_out);
    out << r.flight_json;
    std::printf("flight dump -> %s\n", o.flight_out.c_str());
  }
  std::printf("flight: stall diagnosed (%s), dump valid\n",
              r.error.substr(0, 60).c_str());
  return true;
}

// ---- workloads -----------------------------------------------------------

bool run_workloads(Context& c) {
  // Small, fast instances of every generator: the sweep is about policy
  // coverage, not scale.
  constexpr const char* kSpecs[] = {
      "trivial", "stencil_1d", "nearest", "fft",
      "tree",    "random",     "dnn",     "composition:n=8192,tile=2048"};
  // The library column: the three Fig. 3 heuristic variants.
  const std::pair<const char*, rt::HeuristicConfig> variants[] = {
      {"xkblas", rt::HeuristicConfig::xkblas()},
      {"xkblas-noheur", rt::HeuristicConfig::no_heuristic()},
      {"xkblas-notopo", rt::HeuristicConfig::no_heuristic_no_topo()}};
  const topo::Topology topo = parse_topo(c.opt.topo);
  c.topology = topo.name();
  Rows& rows = c.workload_rows;
  for (const char* spec_text : kSpecs) {
    const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(spec_text));
    for (const auto& [name, heur] : variants) {
      const ModelSpec spec = spec_for_library("xkblas", heur);
      for (const bool dod : {false, true}) {
        RunConfig cfg;
        cfg.data_on_device = dod;
        cfg.topology = topo;
        cfg.check.enabled = true;
        rows.add({name, g.name, scenario_name(dod), "",
                  run_workload(spec, g, cfg)});
      }
    }
  }
  const std::size_t fail = rows.kept.size() - rows.count[kClean];
  std::printf("workloads: %zu pass, %zu fail\n", rows.count[kClean], fail);
  return fail == 0;
}

// ---- ablation ------------------------------------------------------------

/// One observed run reduced to the gate's link-class byte totals and
/// critical-path share.
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

std::string gate_json(const DirectWorkloadRun& r) {
  std::ostringstream js;
  js << "{\"makespan\": " << r.span
     << ", \"pcie_host_bytes\": " << r.pcie_host_bytes
     << ", \"nvlink_bytes\": " << r.nvlink_bytes
     << ", \"nvlink_cp_share\": " << r.nvlink_cp_share << "}";
  return js.str();
}

/// The paper's argument on generic workloads: the topology-aware build
/// moves strictly fewer bytes over PCIe/host links, finishes earlier and
/// carries a higher NVLink share of critical-path transfer time than the
/// no-heuristic/no-topo ablation.  Each workload runs in the scenario where
/// its traffic exercises the heuristics.  The stencil runs data-on-host:
/// its layer-0 input halo is a 3-way broadcast of every input tile, which
/// the optimistic heuristic serves with one H2D plus peer forwards where
/// the blind build pays three PCIe H2Ds.  The dnn runs data-on-device: its
/// per-layer weight broadcast accumulates replicas, and the topology-aware
/// source choice drains them over NVLink instead of hammering the first
/// holder's PCIe links.
bool run_ablation(Context& c) {
  constexpr std::pair<const char*, bool> kCases[] = {
      {"stencil_1d:width=32,depth=2,flops=1e8,bytes=33554432", false},
      {"dnn:width=8,depth=10,flops=1e8,bytes=16777216", true}};
  const topo::Topology topo = parse_topo(c.opt.topo);
  c.topology = topo.name();
  bool ok = true;
  for (const auto& [spec, dod] : kCases) {
    const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(spec));
    const DirectWorkloadRun on =
        run_direct(g, topo, rt::HeuristicConfig::xkblas(), dod);
    const DirectWorkloadRun off = run_direct(
        g, topo, rt::HeuristicConfig::no_heuristic_no_topo(), dod);
    const char* scenario = scenario_name(dod);

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
      ok = false;
    }
    if (!(on.span < off.span)) {
      std::fprintf(stderr,
                   "FAIL %s: topo-aware makespan not lower (%.6f >= %.6f)\n",
                   g.name.c_str(), on.span, off.span);
      ok = false;
    }
    if (!(on.nvlink_cp_share > off.nvlink_cp_share)) {
      std::fprintf(stderr,
                   "FAIL %s: critical-path NVLink share did not shift up "
                   "(%.3f <= %.3f)\n",
                   g.name.c_str(), on.nvlink_cp_share, off.nvlink_cp_share);
      ok = false;
    }
    std::ostringstream row;
    row << (c.ablation.empty() ? "" : ",\n") << "  {\"workload\": \""
        << g.name << "\", \"scenario\": \"" << scenario
        << "\", \"xkblas\": " << gate_json(on)
        << ", \"ablation\": " << gate_json(off) << "}";
    c.ablation += row.str();
  }
  return ok;
}

/// The workloads and ablation sections' artifact (schema
/// xkb.bench.workloads/1): the checked runs, then the gate rows.
void write_workloads_json(const Context& c) {
  std::ofstream out(c.opt.json);
  if (!out) throw std::invalid_argument("cannot write " + c.opt.json);
  out << "{\n\"provenance\": "
      << obs::Provenance::current("xkb.bench.workloads", 1).to_json()
      << ",\n\"topology\": \"" << c.topology << "\",\n\"runs\": [\n";
  const std::vector<Run>& runs = c.workload_rows.kept;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const BenchResult& r = runs[i].r;
    out << "  {\"workload\": \"" << runs[i].what << "\", \"lib\": \""
        << runs[i].lib << "\", \"scenario\": \"" << runs[i].scenario
        << "\", \"ok\": " << (!r.failed && r.check_ok ? "true" : "false")
        << ", \"seconds\": " << r.seconds << ", \"tflops\": " << r.tflops
        << ", \"tasks\": " << r.tasks << ", \"h2d\": " << r.transfers.h2d
        << ", \"d2d\": " << r.transfers.d2d << ", \"d2h\": "
        << r.transfers.d2h << ", \"optimistic_waits\": "
        << r.transfers.optimistic_waits << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "],\n\"ablation\": [\n" << c.ablation << "\n]\n}\n";
  std::printf("json -> %s\n", c.opt.json.c_str());
}

// ---- the section table ---------------------------------------------------

struct Section {
  const char* id;
  unsigned reads;  ///< the Flag bits it takes
  int exit_code;   ///< when its gate fails
  bool (*run)(Context&);
};

constexpr Section kSections[] = {
    {"libs", kN | kTile | kObs, 3, run_libs},
    {"overhead", 0, 4, run_overhead},
    {"selfprof", 0, 4, run_selfprof},
    {"chaos", kN | kTile | kReport, 3, run_chaos},
    {"flight", kN | kTile | kFlightOut, 3, run_flight},
    {"workloads", kTopo | kJson, 4, run_workloads},
    {"ablation", kTopo | kJson, 5, run_ablation},
};

void usage() {
  std::fprintf(stderr,
               "usage: check_matrix [section...] [--n N] [--tile T] [--obs] "
               "[--topo T]\n"
               "                    [--report F] [--json F] "
               "[--flight-out F]\n"
               "sections (default libs):");
  for (const Section& s : kSections) std::fprintf(stderr, " %s", s.id);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) try {
  Context c;
  Options& o = c.opt;
  std::vector<const Section*> picked;
  std::vector<std::pair<std::string, unsigned>> given;  // flag, its bit
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](Flag flag) -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      given.emplace_back(arg, flag);
      return argv[++i];
    };
    const Section* section = nullptr;
    for (const Section& s : kSections)
      if (arg == s.id) section = &s;
    if (section) picked.push_back(section);
    else if (arg == "--n") o.n = cli::parse_size(arg, value(kN));
    else if (arg == "--tile") o.tile = cli::parse_size(arg, value(kTile));
    else if (arg == "--obs") {
      o.obs = true;
      given.emplace_back(arg, kObs);
    } else if (arg == "--topo") o.topo = value(kTopo);
    else if (arg == "--report") o.report = value(kReport);
    else if (arg == "--json") o.json = value(kJson);
    else if (arg == "--flight-out") o.flight_out = value(kFlightOut);
    else {
      std::fprintf(stderr, "check_matrix: unknown section or flag '%s'\n",
                   arg.c_str());
      usage();
      return 2;
    }
  }
  if (picked.empty()) picked.push_back(&kSections[0]);
  unsigned reads = 0;
  for (const Section* s : picked) reads |= s->reads;
  for (const auto& [flag, bit] : given)
    if (!(reads & bit))
      throw std::invalid_argument(flag +
                                  " is not read by the selected sections");

  int rc = 0;
  for (const Section* s : picked)
    if (!s->run(c) && rc == 0) rc = s->exit_code;
  if (!o.json.empty()) write_workloads_json(c);
  return rc;
} catch (const std::exception& e) {
  // A malformed flag value, a size BenchConfig::validate rejects, an
  // unknown topology or an ablation run that failed outright.
  std::fprintf(stderr, "check_matrix: %s\n", e.what());
  return 2;
}
