#include "workload/workload.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace xkb::wl {

const char* to_string(Generator g) {
  switch (g) {
    case Generator::kTrivial: return "trivial";
    case Generator::kStencil1d: return "stencil_1d";
    case Generator::kNearest: return "nearest";
    case Generator::kFft: return "fft";
    case Generator::kTree: return "tree";
    case Generator::kRandom: return "random";
    case Generator::kDnn: return "dnn";
    case Generator::kComposition: return "composition";
  }
  return "?";
}

const std::vector<std::string>& generator_names() {
  static const std::vector<std::string> names = {
      "trivial", "stencil_1d", "nearest", "fft",
      "tree",    "random",     "dnn",     "composition"};
  return names;
}

double WorkloadGraph::total_flops() const {
  double f = 0.0;
  for (const TaskSpec& t : tasks) f += t.flops;
  return f;
}

std::size_t WorkloadGraph::edge_count() const {
  std::size_t e = 0;
  for (const TaskSpec& t : tasks)
    for (const TaskAccessSpec& a : t.accesses)
      if (a.mode != rt::Access::kW) ++e;
  return e;
}

std::vector<std::uint32_t> WorkloadGraph::input_tiles() const {
  std::vector<char> seen(tiles.size(), 0), input(tiles.size(), 0);
  for (const TaskSpec& t : tasks)
    for (const TaskAccessSpec& a : t.accesses) {
      if (!seen[a.tile]) {
        seen[a.tile] = 1;
        if (a.mode != rt::Access::kW) input[a.tile] = 1;
      }
    }
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < tiles.size(); ++i)
    if (input[i]) out.push_back(static_cast<std::uint32_t>(i));
  return out;
}

void WorkloadGraph::validate() const {
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    if (tiles[i].m == 0 || tiles[i].n == 0 || tiles[i].wordsize == 0)
      throw std::invalid_argument("workload '" + name + "': tile " +
                                  std::to_string(i) +
                                  " has a zero dimension or wordsize");
    // m * n * wordsize must not wrap: a silently overflowed byte count
    // makes allocation and transfer times nonsense without ever failing.
    const std::size_t kMax = std::numeric_limits<std::size_t>::max();
    if (tiles[i].m > kMax / tiles[i].n ||
        tiles[i].m * tiles[i].n > kMax / tiles[i].wordsize)
      throw std::invalid_argument("workload '" + name + "': tile " +
                                  std::to_string(i) +
                                  " byte size overflows");
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskSpec& t = tasks[i];
    // Kernel duration is flops / (peak * eff(min_dim) * eff_factor):
    // negative or non-finite flops produce events scheduled before "now"
    // (engine contract violation), and eff_factor <= 0 produces negative
    // or infinite durations.
    if (!std::isfinite(t.flops) || t.flops < 0.0)
      throw std::invalid_argument("workload '" + name + "': task " +
                                  std::to_string(i) + " ('" + t.label +
                                  "') has negative or non-finite flops");
    if (!std::isfinite(t.eff_factor) || t.eff_factor <= 0.0)
      throw std::invalid_argument("workload '" + name + "': task " +
                                  std::to_string(i) + " ('" + t.label +
                                  "') needs a positive finite eff_factor");
    if (t.accesses.empty())
      throw std::invalid_argument("workload '" + name + "': task " +
                                  std::to_string(i) + " ('" + t.label +
                                  "') accesses no tiles");
    for (const TaskAccessSpec& a : t.accesses)
      if (a.tile >= tiles.size())
        throw std::invalid_argument(
            "workload '" + name + "': task " + std::to_string(i) + " ('" +
            t.label + "') references tile " + std::to_string(a.tile) +
            " but only " + std::to_string(tiles.size()) + " tiles exist");
  }
  for (std::uint32_t c : coherent)
    if (c >= tiles.size())
      throw std::invalid_argument(
          "workload '" + name + "': coherent list references tile " +
          std::to_string(c) + " but only " + std::to_string(tiles.size()) +
          " tiles exist");
}

namespace {

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string joined_names() {
  std::string s;
  for (const std::string& n : generator_names())
    s += (s.empty() ? "" : "|") + n;
  return s;
}

}  // namespace

std::string WorkloadSpec::to_string() const {
  std::ostringstream os;
  os << wl::to_string(kind) << ":";
  if (kind == Generator::kComposition) {
    os << "n=" << n << ",tile=" << tile;
    return os.str();
  }
  os << "width=" << width << ",depth=" << depth << ",flops=" << fmt_double(flops)
     << ",bytes=" << bytes;
  if (kind == Generator::kNearest) os << ",radix=" << radix;
  if (kind == Generator::kRandom) os << ",prob=" << fmt_double(prob);
  if (kind == Generator::kRandom || kind == Generator::kDnn)
    os << ",seed=" << seed;
  return os.str();
}

WorkloadSpec WorkloadSpec::parse(const std::string& text) {
  WorkloadSpec spec;
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);

  bool known = false;
  const std::vector<std::string>& names = generator_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) {
      spec.kind = static_cast<Generator>(i);
      known = true;
    }
  if (!known)
    throw std::invalid_argument("unknown workload generator '" + name +
                                "' (accepted: " + joined_names() + ")");

  if (colon == std::string::npos) return spec;
  std::string params = text.substr(colon + 1);
  std::istringstream in(params);
  std::string kv;
  while (std::getline(in, kv, ',')) {
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("workload spec '" + text + "': '" + kv +
                                  "' is not key=value");
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    auto as_size = [&](const char* field) -> std::size_t {
      std::size_t pos = 0;
      unsigned long long x = 0;
      try {
        x = std::stoull(val, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (val.empty() || val[0] == '-' || pos != val.size())
        throw std::invalid_argument("workload spec field '" +
                                    std::string(field) + "': '" + val +
                                    "' is not a non-negative integer");
      return static_cast<std::size_t>(x);
    };
    auto as_double = [&](const char* field) -> double {
      std::size_t pos = 0;
      double x = 0.0;
      try {
        x = std::stod(val, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (val.empty() || pos != val.size())
        throw std::invalid_argument("workload spec field '" +
                                    std::string(field) + "': '" + val +
                                    "' is not a number");
      return x;
    };
    if (key == "width") spec.width = as_size("width");
    else if (key == "depth") spec.depth = as_size("depth");
    else if (key == "flops") spec.flops = as_double("flops");
    else if (key == "bytes") spec.bytes = as_size("bytes");
    else if (key == "seed") spec.seed = as_size("seed");
    else if (key == "radix") spec.radix = as_size("radix");
    else if (key == "prob") spec.prob = as_double("prob");
    else if (key == "n") spec.n = as_size("n");
    else if (key == "tile") spec.tile = as_size("tile");
    else
      throw std::invalid_argument(
          "workload spec '" + text + "': unknown key '" + key +
          "' (accepted: width depth flops bytes seed radix prob n tile)");
  }
  return spec;
}

}  // namespace xkb::wl
