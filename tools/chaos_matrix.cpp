// chaos_matrix: run a library x routine x scenario matrix under seeded
// fault plans with xkb::check on, and fail on any checker violation or
// undiagnosed crash.  This is the CI gate for the xkb::fault layer: every
// recovery path (brownout re-ranking, route demotion, transient-transfer
// retry, waiter re-planning, device blacklisting + task remap + replica
// reconstruction) is exercised on every push, and every surviving run must
// still satisfy the full coherence/race/progress audit.
//
// For each configuration the driver first runs fault-free to learn the
// makespan T and the reference event hash, then replays the same workload
// under plans whose events land at fixed fractions of T:
//
//   brownout       both NVLink directions of a busy pair drop to 15%
//   link-down      a route is demoted one step (2xNVLink -> 1xNVLink -> PCIe)
//   transfer-fail  targeted + probabilistic in-flight aborts, retried with
//                  capped backoff
//   device-fail    a GPU dies mid-run: tasks remap, replicas rebuild
//
// Transient scenarios (brownout, link-down, transfer-fail) must complete
// cleanly.  device-fail must either complete cleanly or fail with a precise
// UnrecoverableDataLoss diagnostic; at least one device-fail run must
// complete AND have re-planned a waiting reception whose source died
// mid-transfer (the acceptance scenario).  Finally one faulted
// configuration is re-run under the identical plan and must reproduce the
// event-stream hash bit for bit.
//
//   chaos_matrix                     default matrix (GEMM/TRSM, n=8192)
//   chaos_matrix --n 16384           larger sweep
//   chaos_matrix --report chaos.json JSON fault report per run
//   chaos_matrix --flight-probe [--flight-out F]
//       force a watchdog stall (a dropped task completion under an armed
//       fault plan) and validate the crash flight recorder's dump: last-N
//       observable timeline + embedded ledger snapshot, schema
//       xkb.obs.flight/1
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/library_model.hpp"
#include "cli_parse.hpp"
#include "fault/fault.hpp"
#include "obs/ledger.hpp"
#include "obs/provenance.hpp"
#include "util/flops.hpp"
#include "util/json.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

struct Outcome {
  std::string lib, routine, scenario, fault;
  BenchResult r;
  bool completed() const { return !r.failed; }
  /// Failed with a diagnostic (a FaultError or an out-of-memory message).
  bool diagnosed() const { return r.failed && !r.error.empty(); }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') { out += "\\n"; continue; }
    out += c;
  }
  return out;
}

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

Outcome run_one(const std::string& lib, Blas3 routine, bool dod,
                std::size_t n, std::size_t tile,
                const fault::FaultPlan& plan, const std::string& fault_name) {
  Outcome o;
  o.lib = lib;
  o.routine = blas3_name(routine);
  o.scenario = dod ? "data-on-device" : "data-on-host";
  o.fault = fault_name;

  BenchConfig cfg;
  cfg.routine = routine;
  cfg.n = n;
  cfg.tile = tile;
  cfg.data_on_device = dod;
  cfg.check.enabled = true;
  cfg.fault_plan = plan;

  auto model = lib == "xkblas" ? make_xkblas(rt::HeuristicConfig::xkblas())
                               : make_chameleon(/*tile_layout=*/true);
  o.r = model->run(cfg);
  return o;
}

/// --flight-probe: force a watchdog stall and validate the flight dump.
/// A dropped task completion (checker test fault) starves the successors
/// while a non-empty fault plan keeps the watchdog armed; the watchdog
/// notices the dead run, Runtime::on_stuck snapshots the ledger, dumps the
/// flight ring, and throws StuckProgress.  The dump must carry a non-empty
/// last-N timeline, a parseable ledger snapshot, and the stall reason.
int run_flight_probe(std::size_t n, std::size_t tile,
                     const std::string& out_path) {
  BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = n;
  cfg.tile = tile;
  cfg.check.enabled = true;
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

  auto model = make_xkblas(rt::HeuristicConfig::xkblas());
  const BenchResult r = model->run(cfg);
  if (!r.failed) {
    std::fprintf(stderr,
                 "flight-probe: expected a watchdog stall, run completed\n");
    return 3;
  }
  if (r.flight_json.empty()) {
    std::fprintf(stderr, "flight-probe: stall produced no flight dump "
                 "(error was: %s)\n", r.error.c_str());
    return 3;
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
    std::fprintf(stderr, "flight-probe: invalid dump: %s\n", ex.what());
    return 3;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << r.flight_json;
    std::printf("flight dump -> %s\n", out_path.c_str());
  }
  std::printf("flight-probe: stall diagnosed (%s), dump valid\n",
              r.error.substr(0, 60).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  std::size_t n = 8192, tile = 2048;
  std::string report_path, flight_out;
  bool flight_probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--n" && i + 1 < argc) n = cli::parse_size(arg, argv[++i]);
    else if (arg == "--tile" && i + 1 < argc)
      tile = cli::parse_size(arg, argv[++i]);
    else if (arg == "--report" && i + 1 < argc) report_path = argv[++i];
    else if (arg == "--flight-probe") flight_probe = true;
    else if (arg == "--flight-out" && i + 1 < argc) flight_out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: chaos_matrix [--n N] [--tile T] [--report F] "
                   "[--flight-probe [--flight-out F]]\n");
      return 2;
    }
  }
  if (flight_probe) return run_flight_probe(n, tile, flight_out);

  const Blas3 routines[] = {Blas3::kGemm, Blas3::kTrsm};
  const char* libs[] = {"xkblas", "chameleon-tile"};
  const char* faults[] = {"brownout", "link-down", "transfer-fail",
                          "device-fail"};

  std::vector<Outcome> outcomes;
  std::size_t failures = 0;
  bool acceptance_hit = false;  // waiter re-planned off a dead source + clean
  bool determinism_ok = true;

  for (const char* lib : libs) {
    for (Blas3 routine : routines) {
      for (bool dod : {false, true}) {
        // Fault-free reference run: makespan + hash baseline.
        const Outcome base = run_one(lib, routine, dod, n, tile, {}, "none");
        if (!base.completed() || !base.r.check_ok) {
          std::fprintf(stderr, "FAIL %s %s %s: fault-free reference run "
                       "broken: %s\n", lib, base.routine.c_str(),
                       base.scenario.c_str(), base.r.error.c_str());
          ++failures;
          continue;
        }
        const double T = base.r.seconds;

        for (const char* fname : faults) {
          const fault::FaultPlan plan =
              make_plan(fname, T, topo::Topology::dgx1().num_gpus());
          Outcome o = run_one(lib, routine, dod, n, tile, plan, fname);
          const bool transient = std::string(fname) != "device-fail";
          const bool clean = o.completed() && o.r.check_ok;
          const bool replanned = o.r.transfers.waiter_replans > 0;
          bool ok;
          if (transient) {
            // Degraded-but-alive faults must always complete cleanly.
            ok = clean;
          } else {
            // Whole-GPU loss: clean completion or a precise diagnostic.
            ok = clean || o.diagnosed();
            if (clean && replanned) acceptance_hit = true;
          }
          if (!ok) {
            ++failures;
            std::fprintf(stderr, "FAIL %s %s %s under %s: %s\n", lib,
                         o.routine.c_str(), o.scenario.c_str(), fname,
                         o.completed() ? "checker violations"
                                       : o.r.error.c_str());
          }
          std::printf("%-14s %-5s %-14s %-13s %s%s\n", lib, o.routine.c_str(),
                      o.scenario.c_str(), fname,
                      o.completed() ? (o.r.check_ok ? "clean" : "VIOLATIONS")
                                    : (o.diagnosed() ? "diagnosed" : "CRASH"),
                      (!transient && o.completed() && replanned)
                          ? " [waiter-replan]" : "");
          outcomes.push_back(std::move(o));
        }

        // Determinism: the same plan must reproduce the same event stream.
        if (std::string(lib) == "xkblas" && routine == Blas3::kGemm) {
          const fault::FaultPlan plan =
              make_plan("transfer-fail", T, topo::Topology::dgx1().num_gpus());
          const Outcome a = run_one(lib, routine, dod, n, tile, plan, "det");
          const Outcome b = run_one(lib, routine, dod, n, tile, plan, "det");
          if (a.r.event_hash != b.r.event_hash || a.r.event_hash == 0) {
            determinism_ok = false;
            std::fprintf(stderr,
                         "FAIL determinism: %016llx != %016llx (%s %s)\n",
                         static_cast<unsigned long long>(a.r.event_hash),
                         static_cast<unsigned long long>(b.r.event_hash),
                         base.routine.c_str(), base.scenario.c_str());
          }
        }
      }
    }
  }

  if (!acceptance_hit) {
    // The standing device-fail plan did not catch a waiter mid-chain for
    // any configuration.  Probe the optimistic-wait-heavy configuration --
    // data-on-host GEMM chains hundreds of peer receptions on in-flight
    // H2D arrivals -- and sweep the fail instant over the early part of
    // the run, where the chains are dense and the victim's tiles are not
    // yet dirty (so recovery can complete, not just diagnose).
    const Outcome probe =
        run_one("xkblas", Blas3::kGemm, false, n, tile, {}, "none");
    for (double f = 0.02; f <= 0.6 && !acceptance_hit; f += 0.02) {
      fault::FaultPlan plan;
      plan.seed = 42;
      fault::FaultEvent e;
      e.kind = fault::FaultKind::kDeviceFail;
      e.t = f * probe.r.seconds;
      e.a = 1;
      plan.events.push_back(e);
      const Outcome o =
          run_one("xkblas", Blas3::kGemm, false, n, tile, plan,
                  "device-fail");
      if (o.completed() && o.r.check_ok && o.r.transfers.waiter_replans > 0)
        acceptance_hit = true;
      outcomes.push_back(o);
    }
  }
  if (!acceptance_hit) {
    std::fprintf(stderr,
                 "FAIL acceptance: no run re-planned a waiting reception "
                 "off a failed source and completed\n");
    ++failures;
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << "{\"provenance\":"
        << obs::Provenance::current("xkb.bench.chaos", 1, 42).to_json()
        << ",\"n\":" << n << ",\"tile\":" << tile << ",\"runs\":[";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (i) out << ",";
      out << "{\"lib\":\"" << o.lib << "\",\"routine\":\"" << o.routine
          << "\",\"scenario\":\"" << o.scenario << "\",\"fault\":\""
          << o.fault << "\",\"completed\":"
          << (o.completed() ? "true" : "false")
          << ",\"check_ok\":" << (o.r.check_ok ? "true" : "false")
          << ",\"seconds\":" << o.r.seconds << ",\"waiter_replans\":"
          << o.r.transfers.waiter_replans << ",\"task_remaps\":"
          << o.r.task_remaps << ",\"task_replays\":" << o.r.task_replays
          << ",\"error\":\"" << json_escape(o.r.error) << "\",\"fault\":"
          << (o.r.fault_json.empty() ? "null" : o.r.fault_json) << "}";
    }
    out << "],\"acceptance_waiter_replan\":"
        << (acceptance_hit ? "true" : "false")
        << ",\"determinism_ok\":" << (determinism_ok ? "true" : "false")
        << ",\"failures\":" << failures << "}\n";
    std::printf("fault report -> %s\n", report_path.c_str());
  }

  std::printf("chaos_matrix: %zu runs, %zu failures, acceptance %s, "
              "determinism %s\n",
              outcomes.size(), failures, acceptance_hit ? "hit" : "MISSED",
              determinism_ok ? "ok" : "BROKEN");
  if (failures || !determinism_ok) return 3;
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value, or a size BenchConfig::validate rejects.
  std::fprintf(stderr, "chaos_matrix: %s\n", e.what());
  return 2;
}
