// perf_bench: the perf-trajectory recorder (ROADMAP item 6).
//
// Two artifacts, schema-stable so CI can diff points across commits:
//
//   BENCH_engine.json  -- events/sec of the discrete-event engine on a
//                         synthetic churn program swept across resident
//                         queue depths (single run / paper sweep /
//                         multi-tenant scale-out), measured on both queue
//                         implementations: the arena-backed binary heap
//                         (the differential oracle) and the production
//                         calendar queue.  The two dispatch orders are
//                         cross-hashed per depth: a mismatch is a
//                         correctness failure (exit 3).
//
//   BENCH_e2e.json     -- end-to-end runs/sec and simulated events/sec for
//                         the fig5 library matrix and generic-workload
//                         sweeps (each row timed as the best of --reps),
//                         plus the xkb::check / xkb::obs wall-clock
//                         overhead ratios.
//
//   BENCH_selfprof.json -- (--selfprof) per-phase host self-times of the
//                         instrumented hot paths (engine dispatch, queue
//                         adopt/rebuild, cache touch/reserve, DM fetch)
//                         over a checked GEMM sweep, plus the measured
//                         attach overhead and an event-hash invariance
//                         verdict (profiler on vs off; a changed hash is a
//                         correctness failure, exit 4).
//
//   perf_bench [--smoke] [--out-engine F] [--out-e2e F]
//              [--churn-events N] [--churn-chains C] [--reps R]
//              [--append] [--selfprof] [--out-selfprof F]
//
// --smoke shrinks every dimension for a seconds-long ctest run.
//
// --append keeps the prior artifacts' trajectory arrays: each emitted file
// carries "trajectory": [...points keyed by git describe...] and --append
// keeps the existing file's points byte for byte and adds this run's.
// A new point whose events/sec falls >= 15% below the previous point of
// the same mode prints a regression warning (stderr).  In full mode that
// warning on the engine's calendar events/sec at the deepest depth is the
// trajectory gate: the run writes every artifact, then exits 5.  Smoke
// mode is never gated (shared CI machines make tiny timings noisy).
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/library_model.hpp"
#include "baselines/workload_entry.hpp"
#include "cli_parse.hpp"
#include "obs/provenance.hpp"
#include "overhead_probe.hpp"
#include "sim/engine.hpp"
#include "trajectory.hpp"
#include "util/flops.hpp"
#include "util/selfprof.hpp"
#include "workload/workload.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

double wall_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The smallest wall time of `reps` runs of `fn`: the estimator of every
/// timing this tool records.
double best_wall(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double s = wall_of(fn);
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

// ---------------------------------------------------------------------
// Synthetic churn modeled on the runtime's event profile: a stable
// population of in-flight chains (like outstanding transfers/kernels),
// each completion scheduling its successor with mixed near/far horizons,
// ~3% silent events (fault triggers, watchdog ticks), and closures
// capturing 24 bytes -- past std::function's 16-byte inline budget, the
// whole point of the small-callback storage.  The driver itself is kept
// deliberately thin (one LCG draw per scheduled event, bit-sliced for
// fan/horizon/silence) so the measurement is of the engine, not of the
// harness.
class Churn {
 public:
  Churn(sim::Engine& eng, std::uint64_t total_events, std::uint64_t seed)
      : eng_(eng), remaining_(total_events), rng_(seed) {}

  void seed_population(std::uint64_t chains) {
    for (std::uint64_t i = 0; i < chains && remaining_ > 0; ++i) {
      --remaining_;
      const std::uint64_t tag = next_tag_++;
      const double t = static_cast<double>(rnd() % 1000) * 1e-8;
      const double acc = static_cast<double>(i) * 0.5;
      eng_.schedule_at(t, [this, tag, acc] { step(tag, acc); });
    }
  }

  std::uint64_t order_hash() const { return hash_; }

 private:
  std::uint64_t rnd() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }

  void fold(double t, std::uint64_t tag) {
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    hash_ = (hash_ ^ bits) * 1099511628211ull;
    hash_ = (hash_ ^ tag) * 1099511628211ull;
  }

  void step(std::uint64_t tag, double acc) {
    fold(eng_.now(), tag);
    sink_ += acc;  // keep the capture meaningful
    // Expected fan-out 1.0 keeps the resident population stable:
    // P(2) = P(0) = 1/16, P(1) = 14/16.
    const std::uint64_t dice = rnd() & 15;
    const int fan = dice == 0 ? 2 : (dice == 1 ? 0 : 1);
    for (int i = 0; i < fan; ++i) {
      if (remaining_ == 0) return;
      --remaining_;
      // One draw per event, bit-sliced: bits 4-9 pick the 1/64 far-future
      // horizon, bits 10-14 the 1/32 silent flag, bits 15+ the magnitude.
      const std::uint64_t r = rnd();
      const std::uint64_t t2 = next_tag_++;
      const double dt =
          ((r >> 4) & 63) == 0
              ? 1e-2 + static_cast<double>((r >> 15) % 1000) * 1e-4
              : static_cast<double>((r >> 15) & 2047) * 1e-8;
      const double acc2 = acc + dt;
      if (((r >> 10) & 31) == 0)
        eng_.schedule_silent_after(dt, [this, t2, acc2] { step(t2, acc2); });
      else
        eng_.schedule_after(dt, [this, t2, acc2] { step(t2, acc2); });
    }
  }

  sim::Engine& eng_;
  std::uint64_t remaining_;
  std::uint64_t rng_;
  std::uint64_t next_tag_ = 0;
  std::uint64_t hash_ = 1469598103934665603ull;
  double sink_ = 0.0;
};

struct ChurnResult {
  double seconds = 0.0;  // best of reps
  std::uint64_t events = 0;
  std::uint64_t order_hash = 0;
};

ChurnResult run_churn(std::uint64_t total, std::uint64_t chains, int reps,
                      sim::Engine::QueueImpl impl) {
  ChurnResult out;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Engine eng(impl);
    Churn churn(eng, total, /*seed=*/12345);
    const double s = wall_of([&] {
      churn.seed_population(chains);
      eng.run();
    });
    if (rep == 0) {
      out.events = eng.events_processed();
      out.order_hash = churn.order_hash();
    }
    if (rep == 0 || s < out.seconds) out.seconds = s;
  }
  return out;
}

// ---------------------------------------------------------------------

struct E2eRow {
  std::string kind;  // "blas" | "workload"
  std::string name;  // library or generator spec
  std::string routine;
  double wall = 0.0;  // best of reps
  BenchResult res;
};

// One resident-depth point of the churn sweep: the same event program run
// on both queue implementations.
struct DepthPoint {
  std::uint64_t chains = 0;
  ChurnResult heap;
  ChurnResult cal;
  bool identical = false;
};

double eps_of(const ChurnResult& r) {
  return r.seconds > 0.0 ? static_cast<double>(r.events) / r.seconds : 0.0;
}

std::string trajectory_point(const obs::Provenance& prov, const char* mode,
                             double eps, const char* extra_key,
                             double extra_val) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"git\": \"%s\", \"date\": \"%s\", \"mode\": \"%s\", "
                "\"events_per_sec\": %.0f, \"%s\": %.2f}",
                prov.git.c_str(), prov.date.c_str(), mode, eps, extra_key,
                extra_val);
  return buf;
}

void emit_engine_json(std::FILE* f, const char* mode, std::uint64_t events,
                      int reps, const std::vector<DepthPoint>& points,
                      bool all_identical, const std::string& prov,
                      const trajectory::Trajectory& traj,
                      const std::string& cur_point) {
  std::fprintf(f, "{\n  \"schema\": \"xkb.bench.engine/3\",\n");
  std::fprintf(f, "  \"provenance\": %s,\n", prov.c_str());
  trajectory::emit(f, traj, cur_point);
  std::fprintf(f, "  \"mode\": \"%s\",\n", mode);
  std::fprintf(f, "  \"churn\": {\"events\": %llu, \"reps\": %d},\n",
               static_cast<unsigned long long>(events), reps);
  std::fprintf(f, "  \"depths\": [\n");
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const DepthPoint& p = points[pi];
    std::fprintf(f, "    {\"chains\": %llu,\n     \"engines\": [\n",
                 static_cast<unsigned long long>(p.chains));
    struct {
      const char* name;
      const ChurnResult* r;
    } rows[] = {{"arena_heap", &p.heap}, {"calendar", &p.cal}};
    for (std::size_t i = 0; i < 2; ++i) {
      std::fprintf(f,
                   "       {\"name\": \"%s\", \"seconds\": %.6f, "
                   "\"events_per_sec\": %.0f}%s\n",
                   rows[i].name, rows[i].r->seconds, eps_of(*rows[i].r),
                   i + 1 < 2 ? "," : "");
    }
    std::fprintf(f,
                 "     ],\n     \"speedup\": "
                 "{\"calendar_vs_arena_heap\": %.2f},\n"
                 "     \"dispatch_order_identical\": %s}%s\n",
                 eps_of(p.cal) / eps_of(p.heap),
                 p.identical ? "true" : "false",
                 pi + 1 < points.size() ? "," : "");
  }
  const DepthPoint& gate = points.back();
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gate\": {\"chains\": %llu, "
               "\"calendar_events_per_sec\": %.0f},\n",
               static_cast<unsigned long long>(gate.chains),
               eps_of(gate.cal));
  std::fprintf(f, "  \"determinism\": {\"dispatch_order_identical\": %s}\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "}\n");
}

struct Aggregate {
  std::size_t runs = 0;
  double wall = 0.0;
  double events = 0.0;
  double runs_per_sec() const { return wall > 0.0 ? runs / wall : 0.0; }
  double events_per_sec() const { return wall > 0.0 ? events / wall : 0.0; }
};

Aggregate aggregate(const std::vector<E2eRow>& rows, const std::string& kind) {
  Aggregate a;
  for (const E2eRow& r : rows) {
    if (r.kind != kind) continue;
    ++a.runs;
    a.wall += r.wall;
    a.events += static_cast<double>(r.res.events_processed);
  }
  return a;
}

void emit_e2e_json(std::FILE* f, const char* mode, std::size_t n,
                   std::size_t tile, int reps, const std::vector<E2eRow>& rows,
                   int overhead_reps, double check_ratio, double obs_ratio,
                   const std::string& prov,
                   const trajectory::Trajectory& traj,
                   const std::string& cur_point) {
  std::fprintf(f, "{\n  \"schema\": \"xkb.bench.e2e/3\",\n");
  std::fprintf(f, "  \"provenance\": %s,\n", prov.c_str());
  trajectory::emit(f, traj, cur_point);
  std::fprintf(f, "  \"mode\": \"%s\",\n", mode);
  for (const char* kind : {"blas", "workload"}) {
    const bool blas = std::strcmp(kind, "blas") == 0;
    std::fprintf(f, "  \"%s\": {\n", blas ? "fig5" : "workloads");
    if (blas)
      std::fprintf(f, "    \"n\": %zu,\n    \"tile\": %zu,\n", n, tile);
    std::fprintf(f, "    \"reps\": %d,\n    \"runs\": [\n", reps);
    bool first = true;
    for (const E2eRow& r : rows) {
      if (r.kind != kind) continue;
      if (!first) std::fprintf(f, ",\n");
      first = false;
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"routine\": \"%s\", "
                   "\"wall_seconds\": %.6f, \"virtual_seconds\": %.6f, "
                   "\"tasks\": %zu, \"events\": %llu, "
                   "\"events_per_sec\": %.0f}",
                   r.name.c_str(), r.routine.c_str(), r.wall, r.res.seconds,
                   r.res.tasks,
                   static_cast<unsigned long long>(r.res.events_processed),
                   r.wall > 0.0
                       ? static_cast<double>(r.res.events_processed) / r.wall
                       : 0.0);
    }
    std::fprintf(f, "\n    ],\n");
    const Aggregate a = aggregate(rows, kind);
    std::fprintf(f,
                 "    \"aggregate\": {\"runs\": %zu, \"wall_seconds\": %.6f, "
                 "\"runs_per_sec\": %.2f, \"events_per_sec\": %.0f}\n  },\n",
                 a.runs, a.wall, a.runs_per_sec(), a.events_per_sec());
  }
  std::fprintf(f,
               "  \"overhead\": {\"reps\": %d, \"check_ratio\": %.3f, "
               "\"obs_ratio\": %.3f}\n}\n",
               overhead_reps, check_ratio, obs_ratio);
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false, append = false, selfprof = false;
  std::string out_engine = "BENCH_engine.json";
  std::string out_e2e = "BENCH_e2e.json";
  std::string out_selfprof = "BENCH_selfprof.json";
  std::uint64_t churn_events = 0;  // 0 = mode default
  std::uint64_t churn_chains = 0;  // 0 = mode default
  int reps = 0;                    // 0 = mode default
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--append") append = true;
    else if (arg == "--selfprof") selfprof = true;
    else if (arg == "--out-engine" && i + 1 < argc) out_engine = argv[++i];
    else if (arg == "--out-e2e" && i + 1 < argc) out_e2e = argv[++i];
    else if (arg == "--out-selfprof" && i + 1 < argc)
      out_selfprof = argv[++i];
    else if (arg == "--churn-events" && i + 1 < argc)
      churn_events = cli::parse_size(arg, argv[++i]);
    else if (arg == "--churn-chains" && i + 1 < argc)
      churn_chains = cli::parse_size(arg, argv[++i]);
    else if (arg == "--reps" && i + 1 < argc)
      reps = static_cast<int>(cli::parse_size(arg, argv[++i], INT_MAX));
    else {
      std::fprintf(stderr,
                   "usage: perf_bench [--smoke] [--out-engine F] [--out-e2e F]"
                   " [--churn-events N] [--churn-chains C] [--reps R]"
                   " [--append] [--selfprof] [--out-selfprof F]\n");
      return 2;
    }
  }
  const char* mode = smoke ? "smoke" : "full";
  if (churn_events == 0) churn_events = smoke ? 200'000 : 2'000'000;
  if (reps == 0) reps = smoke ? 2 : 5;
  // ---- engine churn: resident-depth sweep ----
  // A single fig5-scale run keeps ~4k events in flight
  // (BenchResult::events_peak_pending), a full paper sweep stays in the
  // tens of thousands, and the multi-tenant/scale-out direction the
  // ROADMAP points at next -- many co-simulated runs sharing one engine --
  // reaches the hundreds of thousands.  The sweep records all three
  // regimes; the trajectory gate reads the deepest (scale-out) point,
  // where the heap's O(log n)-with-cold-cache sift is the documented
  // reason the calendar queue exists.
  std::vector<std::uint64_t> depths;
  if (churn_chains != 0)
    depths = {churn_chains};
  else if (smoke)
    depths = {4096};
  else
    depths = {4096, 50000, 500000};

  std::vector<DepthPoint> points;
  bool all_identical = true;
  for (std::uint64_t chains : depths) {
    DepthPoint p;
    p.chains = chains;
    p.heap = run_churn(churn_events, chains, reps,
                       sim::Engine::QueueImpl::kHeap);
    p.cal = run_churn(churn_events, chains, reps,
                      sim::Engine::QueueImpl::kCalendar);
    p.identical = p.heap.order_hash == p.cal.order_hash &&
                  p.heap.events == p.cal.events;
    all_identical = all_identical && p.identical;
    points.push_back(p);
  }
  const double gate_eps = eps_of(points.back().cal);
  double gate_prev = -1.0;  // the newest same-mode point, when it regressed
  {
    const obs::Provenance prov =
        obs::Provenance::current("xkb.bench.engine", 3, 0);
    trajectory::Trajectory traj;
    if (append) traj = trajectory::load(out_engine, "events_per_sec", mode);
    if (trajectory::warn_regression("engine calendar events/sec", traj,
                                    gate_eps))
      gate_prev = traj.prev;
    const std::string cur =
        trajectory_point(prov, mode, gate_eps, "calendar_vs_arena_heap",
                         gate_eps / eps_of(points.back().heap));
    std::FILE* f = std::fopen(out_engine.c_str(), "w");
    if (!f) {
      std::perror(out_engine.c_str());
      return 2;
    }
    emit_engine_json(f, mode, churn_events, reps, points, all_identical,
                     prov.to_json(), traj, cur);
    std::fclose(f);
  }
  std::printf("engine churn (%llu events, best of %d):\n",
              static_cast<unsigned long long>(churn_events), reps);
  for (const DepthPoint& p : points) {
    std::printf(
        "  depth %7llu: arena heap %9.0f ev/s | calendar %9.0f ev/s "
        "(%.2fx)\n",
        static_cast<unsigned long long>(p.chains), eps_of(p.heap),
        eps_of(p.cal), eps_of(p.cal) / eps_of(p.heap));
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: dispatch order diverged across queue impls\n");
    return 3;
  }

  // ---- end-to-end ----
  std::vector<E2eRow> rows;
  const std::size_t n = smoke ? 8192 : 32768;
  const std::size_t tile = 2048;
  for (const auto& model : all_models()) {
    for (Blas3 routine : {Blas3::kGemm, Blas3::kSyr2k}) {
      if (!model->supports(routine)) continue;
      BenchConfig cfg;
      cfg.routine = routine;
      cfg.n = n;
      cfg.tile = tile;
      E2eRow row;
      row.kind = "blas";
      row.name = model->name();
      row.routine = blas3_name(routine);
      row.wall = best_wall(reps, [&] { row.res = model->run(cfg); });
      if (row.res.failed || !row.res.supported) continue;  // capacity limits
      rows.push_back(std::move(row));
    }
  }
  const char* wl_specs[] = {
      smoke ? "stencil_1d:width=8,depth=8" : "stencil_1d:width=16,depth=32",
      smoke ? "dnn:width=6,depth=4" : "dnn:width=12,depth=10",
  };
  const ModelSpec wl_model =
      spec_for_library("xkblas", rt::HeuristicConfig::xkblas());
  for (const char* spec_text : wl_specs) {
    const wl::WorkloadGraph g = wl::build(wl::WorkloadSpec::parse(spec_text));
    RunConfig cfg;
    E2eRow row;
    row.kind = "workload";
    row.name = spec_text;
    row.routine = "workload";
    row.wall =
        best_wall(reps, [&] { row.res = run_workload(wl_model, g, cfg); });
    if (row.res.failed) {
      std::fprintf(stderr, "workload %s failed: %s\n", spec_text,
                   row.res.error.c_str());
      return 2;
    }
    rows.push_back(std::move(row));
  }

  // ---- check/obs overhead ratios ----
  const int overhead_reps = smoke ? 3 : 20;
  BenchConfig ocfg;
  ocfg.routine = Blas3::kGemm;
  ocfg.n = smoke ? 8192 : 16384;
  ocfg.tile = 2048;
  using probe::Attach;
  const double plain =
      probe::timed_block(ocfg, Attach::kNothing, overhead_reps);
  const double checked =
      probe::timed_block(ocfg, Attach::kChecker, overhead_reps);
  const double obsd = probe::timed_block(ocfg, Attach::kObs, overhead_reps);
  if (plain < 0.0 || checked < 0.0 || obsd < 0.0) {
    std::fprintf(stderr, "overhead probe failed to run\n");
    return 2;
  }
  const double check_ratio = checked / plain;
  const double obs_ratio = obsd / plain;

  const Aggregate fig5 = aggregate(rows, "blas");
  {
    const obs::Provenance prov = obs::Provenance::current("xkb.bench.e2e", 3, 0);
    trajectory::Trajectory traj;
    if (append) traj = trajectory::load(out_e2e, "events_per_sec", mode);
    trajectory::warn_regression("e2e fig5 events/sec", traj,
                                fig5.events_per_sec());
    const std::string cur =
        trajectory_point(prov, mode, fig5.events_per_sec(), "runs_per_sec",
                         fig5.runs_per_sec());
    std::FILE* f = std::fopen(out_e2e.c_str(), "w");
    if (!f) {
      std::perror(out_e2e.c_str());
      return 2;
    }
    emit_e2e_json(f, mode, n, tile, reps, rows, overhead_reps, check_ratio,
                  obs_ratio, prov.to_json(), traj, cur);
    std::fclose(f);
  }
  std::printf(
      "e2e fig5 matrix: %zu runs in %.3fs (%.2f runs/sec, best of %d)\n",
      fig5.runs, fig5.wall, fig5.runs_per_sec(), reps);
  std::printf("overhead: check %.2fx, obs %.2fx (over %d reps)\n", check_ratio,
              obs_ratio, overhead_reps);
  std::printf("wrote %s and %s\n", out_engine.c_str(), out_e2e.c_str());

  // ---- self-profiler sweep (--selfprof) ----
  if (selfprof) {
    BenchConfig scfg;
    scfg.routine = Blas3::kGemm;
    scfg.n = smoke ? 8192 : 16384;
    scfg.tile = 2048;
    const int sp_reps = smoke ? 2 : 5;

    // Hash invariance first: the profiler must be observably inert.  One
    // checked run per side; any hash drift is a correctness failure.
    prof::SelfProfiler sp;
    const probe::HashPair hashes = probe::hash_pair(scfg, sp);

    // Attach overhead on unchecked runs (the checker's own cost would
    // dilute the ratio); the accumulated profile from these reps is what
    // the artifact reports.
    const double wall_off =
        probe::timed_block(scfg, Attach::kNothing, sp_reps);
    const double wall_on =
        probe::timed_block(scfg, Attach::kProfiler, sp_reps, &sp);
    if (wall_off < 0.0 || wall_on < 0.0) {
      std::fprintf(stderr, "self-profiler probe failed to run\n");
      return 2;
    }
    const double sp_overhead = wall_off > 0.0 ? wall_on / wall_off : 0.0;

    const obs::Provenance prov =
        obs::Provenance::current("xkb.bench.selfprof", 1, 0);
    std::FILE* f = std::fopen(out_selfprof.c_str(), "w");
    if (!f) {
      std::perror(out_selfprof.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"schema\": \"xkb.bench.selfprof/1\",\n");
    std::fprintf(f, "  \"provenance\": %s,\n", prov.to_json().c_str());
    std::fprintf(f, "  \"mode\": \"%s\",\n", mode);
    std::fprintf(f,
                 "  \"sweep\": {\"routine\": \"GEMM\", \"n\": %zu, "
                 "\"tile\": %zu, \"reps\": %d},\n",
                 scfg.n, scfg.tile, sp_reps);
    std::fprintf(f, "  \"hash_invariant\": %s,\n",
                 hashes.ok ? "true" : "false");
    std::fprintf(f, "  \"overhead_ratio\": %.3f,\n", sp_overhead);
    std::fprintf(f, "  \"selfprof\": %s\n}\n", sp.to_json_fragment().c_str());
    std::fclose(f);

    std::printf(
        "self-profiler (GEMM n=%zu, %d reps): overhead %.2fx, hashes %s\n%s",
        scfg.n, sp_reps, sp_overhead, hashes.ok ? "identical" : "DIVERGED",
        sp.table_text().c_str());
    std::printf("wrote %s\n", out_selfprof.c_str());
    if (!hashes.ok) {
      std::fprintf(stderr,
                   "FAIL: self-profiler attachment changed the pinned event "
                   "hash (%016llx vs %016llx)\n",
                   static_cast<unsigned long long>(hashes.on),
                   static_cast<unsigned long long>(hashes.off));
      return 4;
    }
  }

  if (!smoke && gate_prev > 0.0) {
    std::fprintf(stderr,
                 "FAIL: calendar %.0f events/sec at depth %llu is %.1f%% "
                 "below the newest full-mode trajectory point (%.0f); the "
                 "gate is 15%%\n",
                 gate_eps,
                 static_cast<unsigned long long>(points.back().chains),
                 100.0 * (1.0 - gate_eps / gate_prev), gate_prev);
    return 5;
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value.
  std::fprintf(stderr, "perf_bench: %s\n", e.what());
  return 2;
}
