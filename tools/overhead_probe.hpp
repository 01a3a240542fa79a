// The host-overhead probe of check_matrix's overhead and selfprof sections
// and of perf_bench: the wall clock of a block of XKBlas runs with the
// checker, the obs layer or the self-profiler attached, and the pair of
// checked runs, without and with the self-profiler, whose event hashes must
// match.  The callers choose the sizes, rep counts, order and budgets.
#pragma once

#include <chrono>
#include <cstdint>

#include "baselines/library_model.hpp"
#include "util/selfprof.hpp"

namespace xkb::probe {

/// What a timed block attaches to each of its runs.
enum class Attach { kNothing, kChecker, kObs, kProfiler };

/// Wall seconds of `reps` XKBlas runs of `cfg` with `attach` on (and the
/// checker and obs off otherwise), or -1 when a run fails.  kProfiler clears
/// `sp` first, so it holds this block's profile only.
inline double timed_block(baselines::BenchConfig cfg, Attach attach, int reps,
                          prof::SelfProfiler* sp = nullptr) {
  cfg.check.enabled = attach == Attach::kChecker;
  cfg.obs.enabled = attach == Attach::kObs;
  const auto model = baselines::make_xkblas(rt::HeuristicConfig::xkblas());
  const bool profiled = attach == Attach::kProfiler;
  if (profiled) {
    sp->clear();
    prof::SelfProfiler::activate(sp);
  }
  bool ok = true;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps && ok; ++rep) ok = !model->run(cfg).failed;
  const auto t1 = std::chrono::steady_clock::now();
  if (profiled) prof::SelfProfiler::activate(nullptr);
  return ok ? std::chrono::duration<double>(t1 - t0).count() : -1.0;
}

/// One checked run of `cfg` without the self-profiler, then one with `sp`
/// attached.  The profiler reads only wall clock, so the hashes must match.
struct HashPair {
  std::uint64_t off = 0, on = 0;
  bool ok = false;  ///< both runs completed with the same hash
};

inline HashPair hash_pair(baselines::BenchConfig cfg, prof::SelfProfiler& sp) {
  cfg.check.enabled = true;
  const auto model = baselines::make_xkblas(rt::HeuristicConfig::xkblas());
  const baselines::BenchResult off = model->run(cfg);
  prof::SelfProfiler::activate(&sp);
  const baselines::BenchResult on = model->run(cfg);
  prof::SelfProfiler::activate(nullptr);
  return {off.event_hash, on.event_hash,
          !off.failed && !on.failed && off.event_hash == on.event_hash};
}

}  // namespace xkb::probe
