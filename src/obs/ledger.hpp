// Run ledger: a run's complete observable summary as one versioned JSON
// artifact, plus the differ that turns two ledgers into a causal report.
//
// A ledger captures everything the obs layer can attest about a finished
// run -- metrics registry counters, per-link utilization with queueing
// histograms, the full source-decision stream, the critical-path
// attribution, and the check event hash -- so "why did this PR shift the
// Chameleon-Tile rows" and "why did CI's makespan drift" become offline
// questions: save a ledger per side, run `tools/run_diff`, read the
// decomposition.  The differ explains a makespan delta three ways:
//
//   1. critical-path attribution shifts (kernel / 2xNVLink / 1xNVLink /
//      PCIe / host / idle) that sum to the delta, with a coverage figure;
//   2. the first diverging source decision -- which choose_source pick
//      differed, at what virtual time, with both candidate sets side by
//      side (the earliest *cause* visible in the observable record);
//   3. per-link byte/busy/utilization deltas (the effect's footprint).
//
// Everything is deterministic: a ledger serializes with fixed key order
// and %.17g times, and diffing the same two ledgers twice is
// byte-identical (the CI drift gate relies on this).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "util/json.hpp"

namespace xkb::obs {

/// Raw queueing histogram for one link row (report rows only keep the
/// mean/p95/max digest; the ledger keeps the buckets so a differ can see
/// *where* contention moved).
struct LinkQueue {
  std::array<std::uint64_t, DelayHistogram::kBuckets> count{};
  std::uint64_t n = 0;
  double sum = 0.0, max = 0.0;
};

struct RunLedger {
  static constexpr const char* kSchema = "xkb.obs.ledger";
  static constexpr int kVersion = 1;

  Provenance prov;
  LedgerMeta meta;
  RunReport report;           ///< span, breakdown, links, cp, flows, decisions
  std::vector<LinkQueue> link_queues;  ///< raw histogram per report.links row
  std::vector<Decision> decisions;     ///< full source-decision stream
  std::vector<std::pair<std::string, double>> counters;  ///< registry counters
  std::uint64_t event_hash = 0;  ///< xkb::check stream hash (0 = unchecked)
};

/// Assemble a ledger from a finished run.  `o` may be null (trace-only
/// ledger: no decisions, counters, or link histograms).
RunLedger build_ledger(const trace::Trace& tr, const topo::Topology& topo,
                       const Observability* o, std::uint64_t event_hash,
                       LedgerMeta meta);
/// The same around a report the caller already built from the run (with
/// the same `o`), so a run that exports both builds its report once.
RunLedger build_ledger(RunReport report, const Observability* o,
                       std::uint64_t event_hash, LedgerMeta meta);

/// Canonical JSON (schema xkb.obs.ledger/1, fixed key order, %.17g).
std::string ledger_json(const RunLedger& l);

/// Parse a ledger back from its JSON form; throws std::runtime_error on a
/// schema mismatch or malformed document.
RunLedger ledger_from_json(const util::JsonValue& doc);
RunLedger ledger_from_file(const std::string& path);

// --- differ ---

/// One named attribution category of the makespan decomposition.
struct CatDelta {
  std::string name;  ///< kernel | 2xNVLink | 1xNVLink | PCIe | host | idle
  double a = 0.0, b = 0.0;
  double delta() const { return b - a; }
};

/// Per-link byte/occupancy shift (union of both ledgers' link rows).
struct LinkDelta {
  std::string name, cls;
  double busy_a = 0.0, busy_b = 0.0;
  double util_a = 0.0, util_b = 0.0;
  double bytes_a = 0.0, bytes_b = 0.0;
  double ops_a = 0.0, ops_b = 0.0;
};

struct LedgerDiff {
  double span_a = 0.0, span_b = 0.0;
  double dspan() const { return span_b - span_a; }

  std::vector<CatDelta> cats;  ///< fixed order; deltas sum to ~dspan
  /// Share of |dspan| explained by the named categories: 1 - |residual| /
  /// |dspan| (1.0 when dspan is 0).  The acceptance gate requires >= 0.9.
  double coverage = 1.0;

  bool hashes_equal = false;

  /// First index where the decision streams differ; npos when they agree
  /// (including both empty).  `*_end` flags a stream that simply ended.
  static constexpr std::size_t kNoDivergence = static_cast<std::size_t>(-1);
  std::size_t first_divergence = kNoDivergence;
  bool a_ended = false, b_ended = false;

  std::vector<LinkDelta> links;
};

LedgerDiff diff_ledgers(const RunLedger& a, const RunLedger& b);

/// Deterministic human-readable causal report (run_diff's stdout).
std::string diff_text(const RunLedger& a, const RunLedger& b,
                      const LedgerDiff& d);

/// Deterministic JSON rendering of the diff (schema xkb.obs.rundiff/1).
std::string diff_json(const RunLedger& a, const RunLedger& b,
                      const LedgerDiff& d);

}  // namespace xkb::obs
