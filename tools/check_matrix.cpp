// check_matrix: run the full library x routine x scenario benchmark matrix
// under xkb::check and fail on the first violation.  This is the CI gate
// that keeps the simulated runtime honest: every coherence transition, every
// source choice and every dependence edge of every model is validated on
// every push.
//
//   check_matrix                 full matrix at the default size
//   check_matrix --n 16384       bigger tiles-per-matrix sweep
//   check_matrix --obs           also attach xkb::obs to every run: runs
//                                observed through the shared fan-out must
//                                stay checker-clean
//   check_matrix --overhead      also measure checked-vs-unchecked wall
//                                clock on a GEMM workload (exit 4 beyond
//                                2x), and obs-on-vs-off (exit 4 beyond
//                                1.3x)
//   check_matrix --selfprof      also measure the host self-profiler's
//                                attach overhead on the same workload
//                                (exit 4 beyond 1.3x) and verify the
//                                pinned event hash is unchanged with the
//                                profiler attached
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "baselines/library_model.hpp"
#include "cli_parse.hpp"
#include "util/flops.hpp"
#include "util/selfprof.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

constexpr Blas3 kRoutines[] = {
    Blas3::kGemm, Blas3::kSymm, Blas3::kSyrk,  Blas3::kSyr2k, Blas3::kTrmm,
    Blas3::kTrsm, Blas3::kHemm, Blas3::kHerk,  Blas3::kHer2k,
};

double wall_seconds(const BenchConfig& cfg, bool checked, bool obs = false) {
  BenchConfig c = cfg;
  c.check.enabled = checked;
  c.obs.enabled = obs;
  auto model = make_xkblas(rt::HeuristicConfig::xkblas());
  // Enough repetitions to keep the ratio stable: one run is ~1 ms of wall
  // clock and a 2x budget check on single-millisecond samples would be
  // noise-bound.
  constexpr int kReps = 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    const BenchResult r = model->run(c);
    if (r.failed) return -1.0;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) try {
  std::size_t n = 8192, tile = 2048;
  bool overhead = false, obs = false, selfprof = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--n" && i + 1 < argc) n = cli::parse_size(arg, argv[++i]);
    else if (arg == "--tile" && i + 1 < argc)
      tile = cli::parse_size(arg, argv[++i]);
    else if (arg == "--overhead") overhead = true;
    else if (arg == "--obs") obs = true;
    else if (arg == "--selfprof") selfprof = true;
    else {
      std::fprintf(stderr, "usage: check_matrix [--n N] [--tile T] "
                           "[--obs] [--overhead] [--selfprof]\n");
      return 2;
    }
  }

  std::size_t runs = 0, skipped = 0, bad_runs = 0, violations = 0;
  for (const auto& model : all_models()) {
    for (Blas3 routine : kRoutines) {
      for (bool dod : {false, true}) {
        BenchConfig cfg;
        cfg.routine = routine;
        cfg.n = n;
        cfg.tile = tile;
        cfg.data_on_device = dod;
        cfg.check.enabled = true;
        cfg.obs.enabled = obs;
        if (!model->supports(routine)) {
          ++skipped;
          continue;
        }
        const BenchResult r = model->run(cfg);
        if (!r.supported || r.failed) {
          // Capacity failures (e.g. BLASX beyond 45k) are model behaviour,
          // not checker findings.
          ++skipped;
          continue;
        }
        ++runs;
        if (!r.check_ok) {
          ++bad_runs;
          violations += r.check_violations;
          std::fprintf(stderr,
                       "FAIL %s %s n=%zu %s: %zu violation(s)\n%s\n",
                       model->name().c_str(), blas3_name(routine), n,
                       dod ? "data-on-device" : "data-on-host",
                       r.check_violations, r.check_report.c_str());
        }
      }
    }
  }
  std::printf("check_matrix: %zu/%zu checked runs clean, %zu skipped "
              "(unsupported/capacity)\n",
              runs - bad_runs, runs, skipped);
  if (violations) return 3;

  if (overhead) {
    BenchConfig cfg;
    cfg.routine = Blas3::kGemm;
    cfg.n = 16384;
    cfg.tile = 2048;
    const double off = wall_seconds(cfg, false);
    const double on = wall_seconds(cfg, true);
    if (off <= 0.0 || on <= 0.0) {
      std::fprintf(stderr, "overhead probe failed to run\n");
      return 4;
    }
    const double ratio = on / off;
    std::printf("checked-mode overhead: %.2fx (%.3fs -> %.3fs over 20 reps)\n",
                ratio, off, on);
    if (ratio > 2.0) {
      std::fprintf(stderr, "overhead budget exceeded (limit 2.0x)\n");
      return 4;
    }
    // The observability layer must stay near-free: passive probes and
    // counter bumps only, no extra engine events.
    const double obs_on = wall_seconds(cfg, false, /*obs=*/true);
    if (obs_on <= 0.0) {
      std::fprintf(stderr, "obs overhead probe failed to run\n");
      return 4;
    }
    const double obs_ratio = obs_on / off;
    std::printf("obs-mode overhead: %.2fx (%.3fs -> %.3fs over 20 reps)\n",
                obs_ratio, off, obs_on);
    if (obs_ratio > 1.3) {
      std::fprintf(stderr, "obs overhead budget exceeded (limit 1.3x)\n");
      return 4;
    }
  }

  if (selfprof) {
    BenchConfig cfg;
    cfg.routine = Blas3::kGemm;
    cfg.n = 16384;
    cfg.tile = 2048;
    // Hash invariance: the profiler must not perturb the event stream.
    BenchConfig hcfg = cfg;
    hcfg.check.enabled = true;
    auto model = make_xkblas(rt::HeuristicConfig::xkblas());
    const BenchResult off_run = model->run(hcfg);
    prof::SelfProfiler sp;
    prof::SelfProfiler::activate(&sp);
    const BenchResult on_run = model->run(hcfg);
    prof::SelfProfiler::activate(nullptr);
    if (off_run.failed || on_run.failed ||
        off_run.event_hash != on_run.event_hash) {
      std::fprintf(stderr,
                   "self-profiler changed the pinned event hash "
                   "(%016llx vs %016llx)\n",
                   static_cast<unsigned long long>(off_run.event_hash),
                   static_cast<unsigned long long>(on_run.event_hash));
      return 4;
    }
    // Attach overhead under the same 1.3x budget as the obs layer.
    const double off = wall_seconds(cfg, false);
    sp.clear();
    prof::SelfProfiler::activate(&sp);
    const double on = wall_seconds(cfg, false);
    prof::SelfProfiler::activate(nullptr);
    if (off <= 0.0 || on <= 0.0) {
      std::fprintf(stderr, "selfprof overhead probe failed to run\n");
      return 4;
    }
    const double ratio = on / off;
    std::printf(
        "selfprof-mode overhead: %.2fx (%.3fs -> %.3fs over 20 reps), "
        "hash invariant\n",
        ratio, off, on);
    if (ratio > 1.3) {
      std::fprintf(stderr, "selfprof overhead budget exceeded (limit 1.3x)\n");
      return 4;
    }
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value, or a size BenchConfig::validate rejects.
  std::fprintf(stderr, "check_matrix: %s\n", e.what());
  return 2;
}
