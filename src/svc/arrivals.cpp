#include "svc/arrivals.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "util/rng.hpp"

namespace xkb::svc {

namespace {

std::string tenant_name_or(const TenantSpec& t, std::size_t i) {
  return t.name.empty() ? "tenant" + std::to_string(i) : t.name;
}

[[noreturn]] void bad_line(int lineno, const std::string& line,
                           const std::string& why) {
  throw std::invalid_argument("service trace line " + std::to_string(lineno) +
                              ": " + why + " in '" + line + "'");
}

double want_num(std::istringstream& is, int lineno, const std::string& line,
                const char* what) {
  double v = 0.0;
  if (!(is >> v)) bad_line(lineno, line, std::string("missing/bad ") + what);
  // "nan"/"inf" parse as doubles, slip past every range check (NaN
  // comparisons are all false) and then poison engine time arithmetic --
  // reject at the source, like the fault-plan parser.
  if (!std::isfinite(v))
    bad_line(lineno, line, std::string(what) + " must be finite");
  return v;
}

int want_int(std::istringstream& is, int lineno, const std::string& line,
             const char* what) {
  double v = want_num(is, lineno, line, what);
  if (v != std::floor(v))
    bad_line(lineno, line, std::string(what) + " must be an integer");
  if (v < -2147483648.0 || v > 2147483647.0)
    bad_line(lineno, line, std::string(what) + " is out of range");
  return static_cast<int>(v);
}

std::uint64_t want_u64(std::istringstream& is, int lineno,
                       const std::string& line, const char* what) {
  std::string w;
  if (!(is >> w)) bad_line(lineno, line, std::string("missing/bad ") + what);
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(w, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (w[0] == '-' || pos != w.size())
    bad_line(lineno, line,
             std::string(what) + " must be a non-negative integer");
  return v;
}

std::string want_word(std::istringstream& is, int lineno,
                      const std::string& line, const char* what) {
  std::string w;
  if (!(is >> w)) bad_line(lineno, line, std::string("missing ") + what);
  return w;
}

void want_done(std::istringstream& is, int lineno, const std::string& line) {
  std::string extra;
  if (is >> extra) bad_line(lineno, line, "trailing junk '" + extra + "'");
}

}  // namespace

std::string ArrivalTrace::to_text() const {
  std::ostringstream os;
  os << "service-trace " << (name.empty() ? "soak" : name) << "\n";
  os << "seed " << seed << "\n";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& t = tenants[i];
    os << "tenant " << tenant_name_or(t, i) << " " << t.priority << " "
       << t.share << " " << t.queue_cap << " " << t.max_in_system << " "
       << t.deadline << "\n";
  }
  for (const Arrival& a : arrivals) {
    os << "arrive " << a.t << " " << a.tenant << " " << a.job << " " << a.spec
       << " " << (a.deadline < 0.0 ? -1.0 : a.deadline) << "\n";
  }
  return os.str();
}

ArrivalTrace ArrivalTrace::parse(const std::string& text) {
  ArrivalTrace tr;
  tr.name.clear();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  double last_t = 0.0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    std::istringstream is(hash == std::string::npos ? line
                                                    : line.substr(0, hash));
    std::string word;
    if (!(is >> word)) continue;  // blank / comment-only
    if (word == "service-trace") {
      tr.name = want_word(is, lineno, line, "trace name");
      want_done(is, lineno, line);
    } else if (word == "seed") {
      tr.seed = want_u64(is, lineno, line, "seed");
      want_done(is, lineno, line);
    } else if (word == "tenant") {
      if (!tr.arrivals.empty())
        bad_line(lineno, line, "tenant after the first arrival");
      TenantSpec t;
      t.name = want_word(is, lineno, line, "tenant name");
      t.priority = want_int(is, lineno, line, "priority");
      t.share = want_num(is, lineno, line, "share");
      if (!(t.share > 0.0)) bad_line(lineno, line, "share must be > 0");
      t.queue_cap =
          static_cast<std::size_t>(want_u64(is, lineno, line, "queue-cap"));
      t.max_in_system = static_cast<std::size_t>(
          want_u64(is, lineno, line, "max-in-system"));
      t.deadline = want_num(is, lineno, line, "deadline");
      if (t.deadline < 0.0) bad_line(lineno, line, "deadline must be >= 0");
      want_done(is, lineno, line);
      tr.tenants.push_back(std::move(t));
    } else if (word == "arrive") {
      Arrival a;
      a.t = want_num(is, lineno, line, "time");
      if (a.t < 0.0) bad_line(lineno, line, "time must be >= 0");
      if (a.t < last_t)
        bad_line(lineno, line, "arrival times must be non-decreasing");
      last_t = a.t;
      a.tenant = want_int(is, lineno, line, "tenant index");
      if (a.tenant < 0 ||
          a.tenant >= static_cast<int>(tr.tenants.size()))
        bad_line(lineno, line,
                 "tenant index out of range (tenants declared so far: " +
                     std::to_string(tr.tenants.size()) + ")");
      a.job = want_word(is, lineno, line, "job name");
      a.spec = want_word(is, lineno, line, "workload spec");
      try {
        (void)wl::WorkloadSpec::parse(a.spec);
      } catch (const std::invalid_argument& e) {
        bad_line(lineno, line, std::string("bad workload spec: ") + e.what());
      }
      // Optional per-arrival deadline; any negative value means "tenant
      // default" and canonicalises to -1.
      double dl = -1.0;
      std::string dtok;
      if (is >> dtok) {
        std::istringstream ds(dtok);
        double v = 0.0;
        char extra = 0;
        if (!(ds >> v) || (ds >> extra))
          bad_line(lineno, line, "bad deadline '" + dtok + "'");
        if (!std::isfinite(v))
          bad_line(lineno, line, "deadline must be finite");
        dl = v < 0.0 ? -1.0 : v;
        want_done(is, lineno, line);
      }
      a.deadline = dl;
      tr.arrivals.push_back(std::move(a));
    } else {
      bad_line(lineno, line, "unknown directive '" + word + "'");
    }
  }
  if (tr.name.empty())
    throw std::invalid_argument(
        "service trace: missing 'service-trace <name>' header");
  tr.validate();
  return tr;
}

ArrivalTrace ArrivalTrace::parse_file(const std::string& path) {
  std::ifstream f(path);
  if (!f)
    throw std::invalid_argument("service trace: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str());
}

void ArrivalTrace::validate() const {
  if (tenants.empty())
    throw std::invalid_argument("service trace '" + name + "': no tenants");
  // A generated trace repeats a handful of specs: parse each one once.
  std::unordered_set<std::string_view> vetted;
  double last_t = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (!(a.t >= 0.0) || !std::isfinite(a.t))
      throw std::invalid_argument("service trace '" + name + "': arrival " +
                                  std::to_string(i) + " has a bad time");
    if (a.t < last_t)
      throw std::invalid_argument("service trace '" + name + "': arrival " +
                                  std::to_string(i) + " goes back in time");
    last_t = a.t;
    if (a.tenant < 0 || a.tenant >= static_cast<int>(tenants.size()))
      throw std::invalid_argument("service trace '" + name + "': arrival " +
                                  std::to_string(i) +
                                  " references an unknown tenant");
    if (vetted.insert(a.spec).second)
      (void)wl::WorkloadSpec::parse(a.spec);  // throws with the spec's message
  }
}

TrafficMix TrafficMix::mixed() {
  TrafficMix m;
  m.entries = {
      // Small layered DAGs: halo exchanges cross real links.
      {"stencil_1d:width=4,depth=3,flops=2e8,bytes=1048576", 3.0},
      // Training-step shape: data-parallel shards + a reduce spine.
      {"dnn:width=2,depth=3,flops=2e8,bytes=1048576", 2.0},
      // Adversarial dependency structure, seeded.
      {"random:width=4,depth=3,flops=2e8,bytes=1048576,prob=0.3,seed=11", 2.0},
      // The BLAS composition capture (TRSM then GEMM on shared B).
      {"composition:n=2048,tile=1024", 1.0},
  };
  return m;
}

ArrivalTrace poisson_trace(std::uint64_t seed,
                           const std::vector<TenantSpec>& tenants,
                           double rate_hz, std::size_t total_jobs,
                           const TrafficMix& mix) {
  if (tenants.empty())
    throw std::invalid_argument("poisson_trace: no tenants");
  if (!(rate_hz > 0.0) || !std::isfinite(rate_hz))
    throw std::invalid_argument("poisson_trace: rate must be > 0");
  if (mix.entries.empty())
    throw std::invalid_argument("poisson_trace: empty traffic mix");
  double total_w = 0.0;
  for (const TrafficMix::Entry& e : mix.entries) {
    if (!(e.weight > 0.0))
      throw std::invalid_argument("poisson_trace: mix weights must be > 0");
    total_w += e.weight;
  }

  ArrivalTrace tr;
  tr.name = "poisson";
  tr.seed = seed;
  tr.tenants = tenants;
  const Rng root(seed);

  // Per-tenant independent substreams: the arrival clock and the shape
  // draw never share state, and neither depends on how many *other*
  // tenants exist -- adding a tenant leaves every existing stream intact.
  struct Stream {
    Rng gaps;
    Rng shapes;
    double next_t = 0.0;
    std::size_t count = 0;
  };
  std::vector<Stream> streams;
  streams.reserve(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    Stream s{root.substream("svc.arrivals").substream(i),
             root.substream("svc.mix").substream(i), 0.0, 0};
    s.next_t = -std::log(1.0 - s.gaps.next_double()) / rate_hz;
    streams.push_back(std::move(s));
  }

  tr.arrivals.reserve(total_jobs);
  for (std::size_t n = 0; n < total_jobs; ++n) {
    // Merge in time order, ties to the lowest tenant id.
    std::size_t best = 0;
    for (std::size_t i = 1; i < streams.size(); ++i)
      if (streams[i].next_t < streams[best].next_t) best = i;
    Stream& s = streams[best];
    Arrival a;
    a.t = s.next_t;
    a.tenant = static_cast<int>(best);
    a.job = tenant_name_or(tenants[best], best) + "-j" +
            std::to_string(++s.count);
    double u = s.shapes.next_double() * total_w;
    a.spec = mix.entries.back().spec;
    for (const TrafficMix::Entry& e : mix.entries) {
      if (u < e.weight) {
        a.spec = e.spec;
        break;
      }
      u -= e.weight;
    }
    tr.arrivals.push_back(std::move(a));
    s.next_t += -std::log(1.0 - s.gaps.next_double()) / rate_hz;
  }
  tr.validate();
  return tr;
}

}  // namespace xkb::svc
