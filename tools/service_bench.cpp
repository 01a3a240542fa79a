// service_bench -- seeded arrival driver for xkb::svc, the multi-tenant
// service mode.
//
//   service_bench [--soak-smoke | --degrade-gate] [options]
//
//   Replays an arrival trace (generated Poisson stream by default, or a
//   .svt file via --trace) into a Service over one shared dgx1 platform
//   and reports per-tenant latency percentiles, rejection / retry /
//   dead-letter counts and device utilization.  --json writes the
//   BENCH_service.json artifact (schema xkb.bench.service/1, with
//   obs::Provenance and a --append trajectory like perf_bench's).
//
//   Gates (all exit nonzero on failure, for ctest / CI):
//     --rerun         run the identical soak twice and require bit-identity
//                     (checker event hash + ledger bytes + stats digest)
//     --check         attach xkb::check; violations fail the run
//     --degrade-gate  kill a device and brown a link out mid-soak; every
//                     admitted job must still reach a terminal state, the
//                     dead device's tasks must have been re-queued, and the
//                     checker must stay clean
//
// Everything runs in virtual time from the trace's seed: two invocations
// with the same flags produce byte-identical artifacts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "runtime/runtime.hpp"
#include "svc/arrivals.hpp"
#include "svc/svc.hpp"
#include "tdl/presets.hpp"
#include "topo/topology.hpp"
#include "util/json.hpp"
#include "workload/workload.hpp"

using namespace xkb;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: service_bench [preset] [options]\n"
      "presets:\n"
      "  --soak-smoke       small soak (120 jobs) with --check --rerun\n"
      "  --degrade-gate     1000-job soak with a mid-run device kill and\n"
      "                     link brownout; asserts graceful degradation\n"
      "options:\n"
      "  --jobs N           arrivals to generate (default 1000)\n"
      "  --seed S           trace seed (default 42)\n"
      "  --tenants K        generated tenant count (default 3)\n"
      "  --rate R           per-tenant Poisson rate, jobs/s (default 4000)\n"
      "  --policy P         fair|priority arbitration (default fair)\n"
      "  --max-running M    concurrent jobs on the runtime (default 4)\n"
      "  --queue-cap N      global admission queue bound (default 256)\n"
      "  --topo T           machine to serve on: tdl preset name or .tpo\n"
      "                     file (default dgx1)\n"
      "  --trace F          replay a .svt trace instead of generating\n"
      "  --emit-trace F     write the generated trace to F and exit\n"
      "  --fault-plan F     inject a FaultPlan file during the soak\n"
      "  --check            attach xkb::check (violations fail the run)\n"
      "  --rerun            gate bit-identical rerun (hash+ledger+stats)\n"
      "  --json F           write the BENCH artifact (xkb.bench.service/1)\n"
      "  --append           preserve F's existing trajectory points\n"
      "  --ledger F         write the obs run ledger (run_diff input)\n");
}

struct Cfg {
  std::size_t jobs = 1000;
  std::uint64_t seed = 42;
  int tenants = 3;
  double rate_hz = 4000.0;
  svc::Arbitration policy = svc::Arbitration::kFairShare;
  int max_running = 4;
  std::size_t global_queue_cap = 256;
  bool check = false;
  bool rerun = false;
  bool degrade_gate = false;
  std::string trace_path;
  std::string emit_trace_path;
  std::string fault_plan_path;
  std::string json_path;
  std::string ledger_path;
  /// Machine the service runs on: a tdl preset name or a .tpo file
  /// ("dgx1" keeps the historical platform and hashes).
  std::string topo = "dgx1";
  bool append = false;
  const char* mode = "soak";
};

topo::Topology make_topo(const std::string& t) {
  if (t.size() > 4 && t.compare(t.size() - 4, 4, ".tpo") == 0)
    return topo::Topology::from_tpo_file(t);
  return topo::Topology::from_machine(tdl::preset_machine(t));
}

/// The canonical tenant mix for generated soaks: an interactive tenant
/// with tight deadlines and top priority, a batch tier, and bulk
/// best-effort traffic that brownout sheds first.
std::vector<svc::TenantSpec> default_tenants(int k) {
  struct Row {
    const char* name;
    int priority;
    double share;
    double deadline;
  };
  static const Row rows[] = {
      {"interactive", 2, 3.0, 10e-3},
      {"batch", 1, 2.0, 0.0},
      {"bulk", 0, 1.0, 0.0},
  };
  std::vector<svc::TenantSpec> ts;
  for (int i = 0; i < k; ++i) {
    svc::TenantSpec t;
    if (i < 3) {
      t.name = rows[i].name;
      t.priority = rows[i].priority;
      t.share = rows[i].share;
      t.deadline = rows[i].deadline;
    } else {
      t.name = "bulk" + std::to_string(i - 1);
    }
    t.queue_cap = 64;
    t.max_in_system = 96;
    ts.push_back(std::move(t));
  }
  return ts;
}

struct TenantOut {
  svc::TenantSpec spec;
  svc::TenantStats stats;
  std::vector<double> latencies;  ///< finished - arrival, completed jobs only
};

struct RunOut {
  double span = 0.0;
  svc::ServiceStats stats;
  std::vector<TenantOut> tenants;
  std::size_t peak_queued = 0;
  std::size_t records = 0;
  std::vector<std::string> fault_notes;
  std::uint64_t tasks = 0;
  std::uint64_t task_remaps = 0;
  std::uint64_t task_replays = 0;
  std::uint64_t events = 0;
  std::uint64_t event_hash = 0;
  bool check_enabled = false;
  bool check_ok = true;
  std::size_t check_violations = 0;
  std::string check_report;
  std::string ledger_json;
  std::vector<double> util;  ///< per-GPU kernel-busy fraction of span
  double util_mean = 0.0;

  /// Deterministic digest of every counter the rerun gate compares
  /// (latency vectors included: they are derived from record times).
  std::string digest() const;
};

std::string RunOut::digest() const {
  std::ostringstream os;
  os.precision(17);
  os << span << "|" << stats.submitted << "," << stats.admitted << ","
     << stats.completed << "," << stats.rejected_queue_full << ","
     << stats.rejected_quota << "," << stats.rejected_brownout << ","
     << stats.expired << "," << stats.retries << "," << stats.dead_letters
     << "," << stats.deadline_miss << "," << stats.brownout_enters << ","
     << stats.brownout_exits << "," << stats.runtime_faults << ","
     << stats.aborted_attempts << "|" << peak_queued << "," << records << ","
     << tasks << "," << task_remaps << "," << task_replays << "," << events
     << "," << event_hash;
  for (const TenantOut& t : tenants) {
    os << "|" << t.stats.submitted << "," << t.stats.completed << ","
       << t.stats.dead_letters << "," << t.stats.retries;
    for (double l : t.latencies) os << ";" << l;
  }
  return os.str();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

RunOut run_soak(const Cfg& cfg, const svc::ArrivalTrace& trace,
                const fault::FaultPlan& plan) {
  RunOut out;

  rt::PerfModel perf;
  rt::PlatformOptions popt;
  popt.functional = false;
  popt.device_capacity = 32ull << 30;
  rt::Platform plat(make_topo(cfg.topo), perf, popt);

  auto o = std::make_shared<obs::Observability>(plat.num_gpus());
  plat.set_obs(o.get());  // before the Runtime: it caches series pointers

  std::unique_ptr<fault::Injector> inj;
  if (!plan.empty()) {
    inj = std::make_unique<fault::Injector>(plan);
    plat.set_fault(inj.get());
  }

  rt::RuntimeOptions ropt;
  ropt.check.enabled = cfg.check;
  rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                      ropt);

  obs::LedgerMeta lm;
  lm.lib = "service";
  lm.routine = trace.name;
  lm.scenario = svc::to_string(cfg.policy);
  lm.seed = trace.seed;
  o->set_ledger_meta(lm);

  svc::ServiceOptions sopt;
  sopt.arbitration = cfg.policy;
  sopt.max_running = cfg.max_running;
  sopt.global_queue_cap = cfg.global_queue_cap;
  svc::Service service(runtime, sopt);
  for (const svc::TenantSpec& t : trace.tenants) service.add_tenant(t);

  // One graph per distinct spec string: jobs sharing a shape share the
  // immutable WorkloadGraph (each attempt still interns private handles).
  std::map<std::string, std::shared_ptr<const wl::WorkloadGraph>> graphs;
  for (const svc::Arrival& a : trace.arrivals) {
    auto& g = graphs[a.spec];
    if (!g)
      g = std::make_shared<const wl::WorkloadGraph>(
          wl::build(wl::WorkloadSpec::parse(a.spec)));
  }

  // Arrivals are ordinary observable events: they keep the engine's
  // observable_pending() signal high across idle gaps (the watchdog's
  // "work is still coming" proof) and replay in (time, seq) order.
  sim::Engine& eng = plat.engine();
  for (const svc::Arrival& a : trace.arrivals) {
    svc::JobSpec js;
    js.name = a.job;
    js.graph = graphs.at(a.spec);
    js.deadline = a.deadline;
    eng.schedule_at(a.t, [&service, t = a.tenant, js = std::move(js)] {
      service.submit(t, js);
    });
  }

  out.span = service.drain();
  out.stats = service.stats();
  out.peak_queued = service.peak_queued();
  out.records = service.records().size();
  out.fault_notes = service.fault_notes();
  for (int t = 0; t < service.num_tenants(); ++t) {
    TenantOut to;
    to.spec = service.tenant(t);
    to.stats = service.tenant_stats(t);
    out.tenants.push_back(std::move(to));
  }
  for (const svc::JobRecord& r : service.records())
    if (r.state == svc::JobState::kCompleted)
      out.tenants[static_cast<std::size_t>(r.tenant)].latencies.push_back(
          r.finished - r.arrival);

  out.tasks = runtime.tasks_completed();
  out.task_remaps = runtime.task_remaps();
  out.task_replays = runtime.task_replays();
  out.events = plat.engine().events_processed();
  if (const check::Checker* c = runtime.checker()) {
    out.check_enabled = true;
    out.check_ok = c->ok();
    out.check_violations = c->total_violations();
    out.check_report = c->report();
    out.event_hash = c->event_hash();
  }

  double util_sum = 0.0;
  for (int g = 0; g < plat.num_gpus(); ++g) {
    const double busy = plat.trace().breakdown(g).kernel;
    const double u = out.span > 0.0 ? busy / out.span : 0.0;
    out.util.push_back(u);
    util_sum += u;
  }
  out.util_mean = util_sum / static_cast<double>(plat.num_gpus());

  o->finalize_registry(plat.trace());
  out.ledger_json = obs::ledger_json(
      obs::build_ledger(plat.trace(), plat.topology(), o.get(),
                        out.event_hash, lm));
  return out;
}

// --- artifact ------------------------------------------------------------

struct Trajectory {
  std::vector<std::string> points;
  double prev_jps = -1.0;
};

Trajectory load_trajectory(const std::string& path) {
  Trajectory t;
  try {
    const util::JsonValue doc = util::json_parse_file(path);
    if (const util::JsonValue* traj = doc.find("trajectory")) {
      for (const util::JsonValue& p : traj->as_array()) {
        t.points.push_back(util::json_dump(p));
        t.prev_jps = p.number_or("jobs_per_sec", t.prev_jps);
      }
    }
  } catch (const std::exception&) {
    // Missing file or pre-trajectory schema: start a fresh trajectory.
  }
  return t;
}

void emit_tenant(std::FILE* f, const TenantOut& t, bool last) {
  const svc::TenantStats& s = t.stats;
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"priority\": %d, \"share\": %g,\n"
      "     \"submitted\": %llu, \"admitted\": %llu, \"completed\": %llu,\n"
      "     \"rejected\": {\"queue_full\": %llu, \"quota\": %llu, "
      "\"brownout\": %llu},\n"
      "     \"expired\": %llu, \"retries\": %llu, \"dead_letters\": %llu, "
      "\"deadline_miss\": %llu,\n"
      "     \"latency_ms\": {\"count\": %zu, \"p50\": %.6f, \"p95\": %.6f, "
      "\"p99\": %.6f, \"max\": %.6f}}%s\n",
      t.spec.name.c_str(), t.spec.priority, t.spec.share,
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected_queue_full),
      static_cast<unsigned long long>(s.rejected_quota),
      static_cast<unsigned long long>(s.rejected_brownout),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.dead_letters),
      static_cast<unsigned long long>(s.deadline_miss), t.latencies.size(),
      1e3 * percentile(t.latencies, 50), 1e3 * percentile(t.latencies, 95),
      1e3 * percentile(t.latencies, 99),
      1e3 * (t.latencies.empty()
                 ? 0.0
                 : *std::max_element(t.latencies.begin(), t.latencies.end())),
      last ? "" : ",");
}

void emit_json(std::FILE* f, const Cfg& cfg, const svc::ArrivalTrace& trace,
               const RunOut& r, const Trajectory& traj, int rerun_identical) {
  const obs::Provenance prov =
      obs::Provenance::current("xkb.bench.service", 1, trace.seed);
  const double jps =
      r.span > 0.0 ? static_cast<double>(r.stats.completed) / r.span : 0.0;
  std::vector<double> all;
  for (const TenantOut& t : r.tenants)
    all.insert(all.end(), t.latencies.begin(), t.latencies.end());
  const double p50 = 1e3 * percentile(all, 50);
  const double p99 = 1e3 * percentile(all, 99);

  std::fprintf(f, "{\n  \"schema\": \"xkb.bench.service/1\",\n");
  std::fprintf(f, "  \"provenance\": %s,\n", prov.to_json().c_str());
  std::fprintf(f, "  \"trajectory\": [\n");
  for (const std::string& p : traj.points)
    std::fprintf(f, "    %s,\n", p.c_str());
  char cur[320];
  std::snprintf(cur, sizeof cur,
                "{\"git\": \"%s\", \"date\": \"%s\", \"mode\": \"%s\", "
                "\"jobs_per_sec\": %.0f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
                prov.git.c_str(), prov.date.c_str(), cfg.mode, jps, p50, p99);
  std::fprintf(f, "    %s\n  ],\n", cur);
  std::fprintf(f, "  \"mode\": \"%s\",\n  \"policy\": \"%s\",\n", cfg.mode,
               svc::to_string(cfg.policy));
  std::fprintf(
      f,
      "  \"config\": {\"jobs\": %zu, \"seed\": %llu, \"tenants\": %zu, "
      "\"rate_hz\": %g, \"max_running\": %d, \"global_queue_cap\": %zu},\n",
      trace.arrivals.size(), static_cast<unsigned long long>(trace.seed),
      trace.tenants.size(), cfg.rate_hz, cfg.max_running,
      cfg.global_queue_cap);
  const svc::ServiceStats& s = r.stats;
  std::fprintf(
      f,
      "  \"soak\": {\"span_s\": %.6f, \"jobs_per_sec\": %.0f,\n"
      "    \"submitted\": %llu, \"admitted\": %llu, \"completed\": %llu,\n"
      "    \"rejected\": {\"queue_full\": %llu, \"quota\": %llu, "
      "\"brownout\": %llu},\n"
      "    \"expired\": %llu, \"retries\": %llu, \"dead_letters\": %llu, "
      "\"deadline_miss\": %llu,\n"
      "    \"brownout\": {\"enters\": %llu, \"exits\": %llu},\n"
      "    \"runtime_faults\": %llu, \"aborted_attempts\": %llu,\n"
      "    \"peak_queued\": %zu, \"tasks\": %llu, \"task_remaps\": %llu, "
      "\"task_replays\": %llu,\n"
      "    \"events\": %llu, \"event_hash\": %llu,\n"
      "    \"check\": {\"enabled\": %s, \"ok\": %s, \"violations\": %zu},\n"
      "    \"rerun_identical\": %s,\n",
      r.span, jps, static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected_queue_full),
      static_cast<unsigned long long>(s.rejected_quota),
      static_cast<unsigned long long>(s.rejected_brownout),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.dead_letters),
      static_cast<unsigned long long>(s.deadline_miss),
      static_cast<unsigned long long>(s.brownout_enters),
      static_cast<unsigned long long>(s.brownout_exits),
      static_cast<unsigned long long>(s.runtime_faults),
      static_cast<unsigned long long>(s.aborted_attempts), r.peak_queued,
      static_cast<unsigned long long>(r.tasks),
      static_cast<unsigned long long>(r.task_remaps),
      static_cast<unsigned long long>(r.task_replays),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.event_hash),
      r.check_enabled ? "true" : "false", r.check_ok ? "true" : "false",
      r.check_violations,
      rerun_identical < 0 ? "null" : (rerun_identical ? "true" : "false"));
  std::fprintf(f, "    \"utilization\": {\"mean\": %.4f, \"per_gpu\": [",
               r.util_mean);
  for (std::size_t g = 0; g < r.util.size(); ++g)
    std::fprintf(f, "%.4f%s", r.util[g], g + 1 < r.util.size() ? ", " : "");
  std::fprintf(f, "]}},\n");
  std::fprintf(f, "  \"tenants\": [\n");
  for (std::size_t t = 0; t < r.tenants.size(); ++t)
    emit_tenant(f, r.tenants[t], t + 1 == r.tenants.size());
  std::fprintf(f, "  ]\n}\n");
}

void print_summary(const Cfg& cfg, const svc::ArrivalTrace& trace,
                   const RunOut& r) {
  const svc::ServiceStats& s = r.stats;
  std::printf(
      "service_bench: %zu arrivals, %zu tenants, policy=%s, seed=%llu\n",
      trace.arrivals.size(), trace.tenants.size(), svc::to_string(cfg.policy),
      static_cast<unsigned long long>(trace.seed));
  std::printf(
      "  span %.3f ms  |  %.0f jobs/s  |  util(mean) %.1f%%  |  peak queue "
      "%zu\n",
      1e3 * r.span,
      r.span > 0.0 ? static_cast<double>(s.completed) / r.span : 0.0,
      100.0 * r.util_mean, r.peak_queued);
  std::printf(
      "  admitted %llu/%llu  completed %llu  dead-letters %llu  retries %llu "
      " expired %llu\n",
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.dead_letters),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.expired));
  std::printf(
      "  rejected: queue-full %llu  quota %llu  brownout %llu  "
      "(brownout enters/exits %llu/%llu)\n",
      static_cast<unsigned long long>(s.rejected_queue_full),
      static_cast<unsigned long long>(s.rejected_quota),
      static_cast<unsigned long long>(s.rejected_brownout),
      static_cast<unsigned long long>(s.brownout_enters),
      static_cast<unsigned long long>(s.brownout_exits));
  if (r.task_remaps || r.task_replays || s.runtime_faults)
    std::printf(
        "  degradation: task remaps %llu  replays %llu  absorbed faults "
        "%llu  aborted attempts %llu\n",
        static_cast<unsigned long long>(r.task_remaps),
        static_cast<unsigned long long>(r.task_replays),
        static_cast<unsigned long long>(s.runtime_faults),
        static_cast<unsigned long long>(s.aborted_attempts));
  for (const TenantOut& t : r.tenants)
    std::printf(
        "  %-12s prio %d  done %5llu/%-5llu  p50 %7.3f ms  p99 %7.3f ms  "
        "dead %llu\n",
        t.spec.name.c_str(), t.spec.priority,
        static_cast<unsigned long long>(t.stats.completed),
        static_cast<unsigned long long>(t.stats.submitted),
        1e3 * percentile(t.latencies, 50), 1e3 * percentile(t.latencies, 99),
        static_cast<unsigned long long>(t.stats.dead_letters));
  if (r.check_enabled)
    std::printf("  check: %s (%zu violations)\n", r.check_ok ? "ok" : "FAIL",
                r.check_violations);
}

int fail(const char* what) {
  std::fprintf(stderr, "service_bench: DEGRADE GATE FAILED: %s\n", what);
  return 7;
}

}  // namespace

int main(int argc, char** argv) {
  Cfg cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--soak-smoke") {
        cfg.jobs = 120;
        cfg.check = true;
        cfg.rerun = true;
        cfg.mode = "smoke";
      } else if (arg == "--degrade-gate") {
        cfg.degrade_gate = true;
        cfg.check = true;
        cfg.mode = "degrade";
      } else if (arg == "--jobs") {
        cfg.jobs = std::stoul(next());
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(next());
      } else if (arg == "--tenants") {
        cfg.tenants = std::stoi(next());
      } else if (arg == "--rate") {
        cfg.rate_hz = std::stod(next());
      } else if (arg == "--policy") {
        cfg.policy = svc::arbitration_from(next());
      } else if (arg == "--max-running") {
        cfg.max_running = std::stoi(next());
      } else if (arg == "--queue-cap") {
        cfg.global_queue_cap = std::stoul(next());
      } else if (arg == "--topo") {
        cfg.topo = next();
      } else if (arg == "--trace") {
        cfg.trace_path = next();
      } else if (arg == "--emit-trace") {
        cfg.emit_trace_path = next();
      } else if (arg == "--fault-plan") {
        cfg.fault_plan_path = next();
      } else if (arg == "--check") {
        cfg.check = true;
      } else if (arg == "--rerun") {
        cfg.rerun = true;
      } else if (arg == "--json") {
        cfg.json_path = next();
      } else if (arg == "--append") {
        cfg.append = true;
      } else if (arg == "--ledger") {
        cfg.ledger_path = next();
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "service_bench: unknown flag '%s'\n",
                     arg.c_str());
        usage();
        return 2;
      }
    }
    if (cfg.tenants < 1 || cfg.jobs == 0) {
      usage();
      return 2;
    }

    svc::ArrivalTrace trace =
        cfg.trace_path.empty()
            ? svc::poisson_trace(cfg.seed, default_tenants(cfg.tenants),
                                 cfg.rate_hz, cfg.jobs)
            : svc::ArrivalTrace::parse_file(cfg.trace_path);

    if (!cfg.emit_trace_path.empty()) {
      std::ofstream f(cfg.emit_trace_path);
      if (!f) {
        std::fprintf(stderr, "service_bench: cannot write '%s'\n",
                     cfg.emit_trace_path.c_str());
        return 2;
      }
      f << trace.to_text();
      std::printf("service_bench: wrote %zu arrivals to %s\n",
                  trace.arrivals.size(), cfg.emit_trace_path.c_str());
      return 0;
    }

    fault::FaultPlan plan;
    if (!cfg.fault_plan_path.empty())
      plan = fault::FaultPlan::parse_file(cfg.fault_plan_path);
    if (cfg.degrade_gate) {
      // Mid-soak whole-GPU loss plus a deep brownout on a busy link,
      // timed off the trace itself so the plan follows the stream.
      const double horizon =
          trace.arrivals.empty() ? 1.0 : trace.arrivals.back().t;
      fault::FaultEvent kill;
      kill.kind = fault::FaultKind::kDeviceFail;
      kill.t = 0.4 * horizon;
      kill.a = 1;
      plan.events.push_back(kill);
      fault::FaultEvent brown;
      brown.kind = fault::FaultKind::kBrownout;
      brown.t = 0.5 * horizon;
      brown.a = 0;
      brown.b = 2;
      brown.fraction = 0.1;
      brown.duration = 0.2 * horizon;
      plan.events.push_back(brown);
      plan.seed = trace.seed;
    }

    const RunOut r = run_soak(cfg, trace, plan);
    int rerun_identical = -1;
    if (cfg.rerun) {
      const RunOut r2 = run_soak(cfg, trace, plan);
      rerun_identical = (r.digest() == r2.digest() &&
                         r.ledger_json == r2.ledger_json &&
                         r.event_hash == r2.event_hash)
                            ? 1
                            : 0;
    }

    print_summary(cfg, trace, r);

    if (!cfg.ledger_path.empty()) {
      std::ofstream f(cfg.ledger_path);
      if (!f) {
        std::fprintf(stderr, "service_bench: cannot write '%s'\n",
                     cfg.ledger_path.c_str());
        return 2;
      }
      f << r.ledger_json;
    }
    if (!cfg.json_path.empty()) {
      Trajectory traj;
      if (cfg.append) traj = load_trajectory(cfg.json_path);
      std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "service_bench: cannot write '%s'\n",
                     cfg.json_path.c_str());
        return 2;
      }
      emit_json(f, cfg, trace, r, traj, rerun_identical);
      std::fclose(f);
      const double jps =
          r.span > 0.0 ? static_cast<double>(r.stats.completed) / r.span
                       : 0.0;
      if (traj.prev_jps > 0.0 && jps < 0.85 * traj.prev_jps)
        std::fprintf(stderr,
                     "WARNING: jobs/sec regressed %.1f%% vs the previous "
                     "trajectory point (%.0f -> %.0f)\n",
                     100.0 * (1.0 - jps / traj.prev_jps), traj.prev_jps, jps);
    }

    if (rerun_identical == 0) {
      std::fprintf(stderr,
                   "service_bench: RERUN MISMATCH: the seeded soak is not "
                   "bit-identical\n");
      return 3;
    }
    if (r.check_enabled && (!r.check_ok || r.check_violations != 0)) {
      std::fprintf(stderr, "service_bench: CHECK FAILED:\n%s\n",
                   r.check_report.c_str());
      return 4;
    }
    if (cfg.degrade_gate) {
      // Graceful-degradation contract: the kill and brownout may shed or
      // delay work, but every admitted job still reaches a terminal state,
      // the dead device's resident tasks were re-queued elsewhere, and the
      // protocol stayed clean (checked above).
      if (r.stats.completed == 0) return fail("no jobs completed");
      if (r.stats.completed + r.stats.dead_letters != r.records)
        return fail("a job ended in a non-terminal state");
      // Re-queue evidence comes in two shapes: the runtime migrated the
      // dead device's tasks in place (task_remaps), or the failure unwound
      // the dispatch loop and the service failed the in-flight attempts
      // into the retry ladder (absorbed faults + aborted attempts).
      const bool requeued =
          r.task_remaps > 0 ||
          (r.stats.runtime_faults > 0 && r.stats.aborted_attempts > 0);
      if (!requeued)
        return fail("device kill re-queued no tasks (kill before load?)");
      std::printf(
          "degrade gate: ok (remaps %llu, aborted attempts %llu, completed "
          "%llu, dead-letters %llu)\n",
          static_cast<unsigned long long>(r.task_remaps),
          static_cast<unsigned long long>(r.stats.aborted_attempts),
          static_cast<unsigned long long>(r.stats.completed),
          static_cast<unsigned long long>(r.stats.dead_letters));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
