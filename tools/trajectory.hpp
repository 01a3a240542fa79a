// The "trajectory" array the bench recorders (perf_bench, topo_bench,
// service_bench) keep in their BENCH_*.json artifacts: one JSON object per
// recorded run, keyed by git describe, oldest first.  --append reads the
// prior points back and writes them out again byte for byte ahead of the
// new one, so re-recording never rewrites history.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace xkb::trajectory {

struct Trajectory {
  std::vector<std::string> points;  ///< prior points' JSON text, verbatim
  double prev = -1.0;  ///< newest same-mode point's headline metric, or -1
};

/// The points of `path`'s "trajectory" array exactly as written and, when
/// `metric` is given, its value in the newest point recorded in `mode`
/// (a smoke point is no baseline for a full run).  A missing or malformed
/// file, or one from before the trajectory schema, starts afresh.
inline Trajectory load(const std::string& path, const char* metric = nullptr,
                       const std::string& mode = "") {
  Trajectory t;
  std::ostringstream buf;
  buf << std::ifstream(path).rdbuf();
  const std::string text = buf.str();
  try {
    const util::JsonValue doc = util::json_parse(text);
    const util::JsonValue* arr = doc.find("trajectory");
    if (!arr) return t;
    for (const util::JsonValue& p : arr->as_array())
      if (metric && p.string_or("mode", "") == mode)
        t.prev = p.number_or(metric, t.prev);
  } catch (const std::exception&) {
    return t;
  }
  // The document parsed, so the array is well formed: split its text at
  // the top-level commas, skipping string contents.
  std::size_t i = text.find('[', text.find("\"trajectory\""));
  std::size_t start = i + 1;
  int depth = 0;
  bool in_str = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '[' || c == '{') ++depth;
    else if (c == ']' || c == '}') --depth;
    if (depth == 0 || (depth == 1 && c == ',')) {
      const std::size_t b = text.find_first_not_of(" \t\r\n", start);
      const std::size_t e = text.find_last_not_of(" \t\r\n", i - 1);
      if (b < i) t.points.push_back(text.substr(b, e - b + 1));
      if (depth == 0) break;
      start = i + 1;
    }
  }
  return t;
}

/// Writes `  "trajectory": [prior..., current],` -- current last, newest.
inline void emit(std::FILE* f, const Trajectory& t,
                 const std::string& current) {
  std::fprintf(f, "  \"trajectory\": [\n");
  for (const std::string& p : t.points) std::fprintf(f, "    %s,\n", p.c_str());
  std::fprintf(f, "    %s\n  ],\n", current.c_str());
}

/// A stderr warning when `value` fell 15 % or more below the previous
/// point's; returns whether it warned, so a tool can gate on it.
inline bool warn_regression(const char* what, const Trajectory& t,
                            double value) {
  if (!(t.prev > 0.0 && value < 0.85 * t.prev)) return false;
  std::fprintf(stderr,
               "WARNING: %s regressed %.1f%% vs the previous trajectory "
               "point (%.0f -> %.0f)\n",
               what, 100.0 * (1.0 - value / t.prev), t.prev, value);
  return true;
}

}  // namespace xkb::trajectory
