#include "obs/ledger.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "trace/export.hpp"

namespace xkb::obs {

namespace {

/// %.17g: doubles round-trip exactly through the text form, so a ledger
/// parsed back compares bit-equal to the one that was serialized.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t parse_hex64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

trace::SourceKind pick_from_string(const std::string& s) {
  for (trace::SourceKind k :
       {trace::SourceKind::kHost, trace::SourceKind::kDevice,
        trace::SourceKind::kWaitDevice, trace::SourceKind::kWaitHost})
    if (s == to_string(k)) return k;
  throw std::runtime_error("ledger: unknown pick \"" + s + "\"");
}

std::string pct(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * f);
  return buf;
}

/// Fixed category order of the makespan decomposition.
constexpr const char* kCats[] = {"kernel", "2xNVLink", "1xNVLink",
                                 "PCIe",   "host",     "idle"};

double cat_of(const CriticalPath& cp, int i) {
  switch (i) {
    case 0: return cp.kernel;
    case 1: return cp.nvlink2;
    case 2: return cp.nvlink1;
    case 3: return cp.pcie;
    case 4: return cp.host;
    case 5: return cp.idle;
  }
  return 0.0;
}

std::string render_decision(const Decision& d) {
  std::ostringstream os;
  os << "tile " << d.handle << " -> gpu" << d.dst << " pick=" << to_string(d.pick);
  if (d.picked_dev >= 0)
    os << "(gpu" << d.picked_dev << ")";
  else
    os << "(host)";
  if (d.forced) os << " forced";
  os << " @ t=" << num(d.t) << "  candidates: ";
  if (d.candidates.empty()) os << "(none)";
  bool first = true;
  for (const Decision::Candidate& c : d.candidates) {
    os << (first ? "" : "; ") << "gpu" << c.dev << " rank" << c.rank
       << (c.in_flight ? " in-flight" : "");
    first = false;
  }
  return os.str();
}

}  // namespace

RunLedger build_ledger(const trace::Trace& tr, const topo::Topology& topo,
                       const Observability* o, std::uint64_t event_hash,
                       LedgerMeta meta) {
  RunLedger l;
  l.prov = Provenance::current(RunLedger::kSchema, RunLedger::kVersion,
                               meta.seed);
  l.meta = std::move(meta);
  l.report = build_report(tr, topo, o);
  l.event_hash = event_hash;
  l.link_queues.resize(l.report.links.size());
  if (o) {
    // Raw queue histograms, matched to report rows by link name (kernel
    // lanes and probe-less rows keep an empty histogram).
    std::map<std::string, const LinkProbe*> by_name;
    for (const auto& p : o->links()) by_name[p->name()] = p.get();
    for (std::size_t i = 0; i < l.report.links.size(); ++i) {
      auto it = by_name.find(l.report.links[i].name);
      if (it == by_name.end()) continue;
      const DelayHistogram& h = it->second->queue();
      LinkQueue& q = l.link_queues[i];
      q.count = h.count;
      q.n = h.n;
      q.sum = h.sum;
      q.max = h.max;
    }
    l.decisions = o->decisions();
    for (const auto& [k, v] : o->metrics().counters())
      l.counters.emplace_back(k, v);
  }
  return l;
}

std::string ledger_json(const RunLedger& l) {
  std::ostringstream out;
  out << "{\n";
  out << "\"provenance\": " << l.prov.to_json() << ",\n";
  out << "\"meta\": {\"lib\": \"" << trace::json_escape(l.meta.lib)
      << "\", \"routine\": \"" << trace::json_escape(l.meta.routine)
      << "\", \"scenario\": \"" << trace::json_escape(l.meta.scenario)
      << "\", \"n\": " << l.meta.n << ", \"tile\": " << l.meta.tile
      << ", \"seed\": " << l.meta.seed << "},\n";
  out << "\"span\": " << num(l.report.span) << ",\n";
  out << "\"event_hash\": \"" << hex64(l.event_hash) << "\",\n";
  const trace::Breakdown& b = l.report.breakdown;
  out << "\"breakdown\": {\"kernel\": " << num(b.kernel)
      << ", \"htod\": " << num(b.htod) << ", \"dtoh\": " << num(b.dtoh)
      << ", \"ptop\": " << num(b.ptop) << "},\n";
  const CriticalPath& cp = l.report.cp;
  out << "\"critical_path\": {\"kernel\": " << num(cp.kernel)
      << ", \"nvlink2\": " << num(cp.nvlink2)
      << ", \"nvlink1\": " << num(cp.nvlink1) << ", \"pcie\": " << num(cp.pcie)
      << ", \"host\": " << num(cp.host) << ", \"idle\": " << num(cp.idle)
      << ", \"span\": " << num(cp.span) << ", \"ops\": " << cp.ops.size()
      << "},\n";
  out << "\"links\": [";
  for (std::size_t i = 0; i < l.report.links.size(); ++i) {
    const LinkRow& r = l.report.links[i];
    const LinkQueue q =
        i < l.link_queues.size() ? l.link_queues[i] : LinkQueue{};
    out << (i ? ",\n " : "\n ");
    out << "{\"name\": \"" << trace::json_escape(r.name) << "\", \"class\": \""
        << trace::json_escape(r.cls) << "\", \"busy\": " << num(r.busy)
        << ", \"util\": " << num(r.util) << ", \"bytes\": " << r.bytes
        << ", \"ops\": " << r.ops << ", \"queue\": {\"mean\": " << num(r.q_mean)
        << ", \"p95\": " << num(r.q_p95) << ", \"max\": " << num(r.q_max)
        << ", \"n\": " << q.n << ", \"sum\": " << num(q.sum)
        << ", \"buckets\": [";
    for (int k = 0; k < DelayHistogram::kBuckets; ++k)
      out << (k ? "," : "") << q.count[static_cast<std::size_t>(k)];
    out << "]}}";
  }
  out << (l.report.links.empty() ? "" : "\n") << "],\n";
  out << "\"counters\": {";
  for (std::size_t i = 0; i < l.counters.size(); ++i)
    out << (i ? ", " : "") << "\"" << trace::json_escape(l.counters[i].first)
        << "\": " << num(l.counters[i].second);
  out << "},\n";
  out << "\"flows\": " << l.report.flows << ",\n";
  out << "\"decisions\": [";
  for (std::size_t i = 0; i < l.decisions.size(); ++i) {
    const Decision& d = l.decisions[i];
    out << (i ? ",\n " : "\n ");
    out << "{\"t\": " << num(d.t) << ", \"handle\": " << d.handle
        << ", \"dst\": " << d.dst << ", \"pick\": \"" << to_string(d.pick)
        << "\", \"picked_dev\": " << d.picked_dev << ", \"forced\": "
        << (d.forced ? "true" : "false") << ", \"cands\": [";
    for (std::size_t c = 0; c < d.candidates.size(); ++c) {
      const Decision::Candidate& cd = d.candidates[c];
      out << (c ? "," : "") << "[" << cd.dev << "," << cd.rank << ","
          << (cd.in_flight ? 1 : 0) << "]";
    }
    out << "]}";
  }
  out << (l.decisions.empty() ? "" : "\n") << "]\n";
  out << "}\n";
  return out.str();
}

RunLedger ledger_from_json(const util::JsonValue& doc) {
  RunLedger l;
  const util::JsonValue& prov = doc.at("provenance");
  const std::string tag = prov.at("schema").as_string();
  const std::string want =
      std::string(RunLedger::kSchema) + "/" + std::to_string(RunLedger::kVersion);
  if (tag != want)
    throw std::runtime_error("ledger: schema mismatch: file has \"" + tag +
                             "\", this build reads \"" + want + "\"");
  l.prov.schema = RunLedger::kSchema;
  l.prov.version = RunLedger::kVersion;
  l.prov.git = prov.string_or("git", "unknown");
  l.prov.build_type = prov.string_or("build_type", "unknown");
  l.prov.date = prov.string_or("date", "unset");
  l.prov.seed = static_cast<std::uint64_t>(prov.number_or("seed", 0.0));

  const util::JsonValue& meta = doc.at("meta");
  l.meta.lib = meta.string_or("lib", "");
  l.meta.routine = meta.string_or("routine", "");
  l.meta.scenario = meta.string_or("scenario", "");
  l.meta.n = static_cast<std::size_t>(meta.number_or("n", 0.0));
  l.meta.tile = static_cast<std::size_t>(meta.number_or("tile", 0.0));
  l.meta.seed = static_cast<std::uint64_t>(meta.number_or("seed", 0.0));

  l.report.span = doc.at("span").as_number();
  l.event_hash = parse_hex64(doc.at("event_hash").as_string());
  const util::JsonValue& b = doc.at("breakdown");
  l.report.breakdown.kernel = b.at("kernel").as_number();
  l.report.breakdown.htod = b.at("htod").as_number();
  l.report.breakdown.dtoh = b.at("dtoh").as_number();
  l.report.breakdown.ptop = b.at("ptop").as_number();
  const util::JsonValue& cp = doc.at("critical_path");
  l.report.cp.kernel = cp.at("kernel").as_number();
  l.report.cp.nvlink2 = cp.at("nvlink2").as_number();
  l.report.cp.nvlink1 = cp.at("nvlink1").as_number();
  l.report.cp.pcie = cp.at("pcie").as_number();
  l.report.cp.host = cp.at("host").as_number();
  l.report.cp.idle = cp.at("idle").as_number();
  l.report.cp.span = cp.at("span").as_number();
  // The JSON keeps only the step *count* (the differ needs no more).
  // Preserve it as placeholder steps so serialize -> parse -> serialize is
  // a fixed point.
  l.report.cp.ops.resize(
      static_cast<std::size_t>(cp.at("ops").as_number()));

  for (const util::JsonValue& lk : doc.at("links").as_array()) {
    LinkRow r;
    r.name = lk.at("name").as_string();
    r.cls = lk.at("class").as_string();
    r.busy = lk.at("busy").as_number();
    r.util = lk.at("util").as_number();
    r.bytes = static_cast<std::size_t>(lk.at("bytes").as_number());
    r.ops = static_cast<std::uint64_t>(lk.at("ops").as_number());
    const util::JsonValue& q = lk.at("queue");
    r.q_mean = q.at("mean").as_number();
    r.q_p95 = q.at("p95").as_number();
    r.q_max = q.at("max").as_number();
    LinkQueue lq;
    lq.n = static_cast<std::uint64_t>(q.number_or("n", 0.0));
    lq.sum = q.number_or("sum", 0.0);
    lq.max = r.q_max;
    if (const util::JsonValue* bk = q.find("buckets")) {
      const util::JsonArray& arr = bk->as_array();
      for (std::size_t i = 0; i < arr.size() && i < lq.count.size(); ++i)
        lq.count[i] = static_cast<std::uint64_t>(arr[i].as_number());
    }
    l.report.links.push_back(std::move(r));
    l.link_queues.push_back(lq);
  }

  for (const auto& [k, v] : doc.at("counters").as_object())
    l.counters.emplace_back(k, v.as_number());

  l.report.flows = static_cast<std::size_t>(doc.number_or("flows", 0.0));

  for (const util::JsonValue& dv : doc.at("decisions").as_array()) {
    Decision d;
    d.t = dv.at("t").as_number();
    d.handle = static_cast<std::uint64_t>(dv.at("handle").as_number());
    d.dst = static_cast<int>(dv.at("dst").as_number());
    d.pick = pick_from_string(dv.at("pick").as_string());
    d.picked_dev = static_cast<int>(dv.at("picked_dev").as_number());
    d.forced = dv.at("forced").as_bool();
    for (const util::JsonValue& cv : dv.at("cands").as_array()) {
      const util::JsonArray& tup = cv.as_array();
      if (tup.size() != 3)
        throw std::runtime_error("ledger: malformed candidate tuple");
      Decision::Candidate c;
      c.dev = static_cast<int>(tup[0].as_number());
      c.rank = static_cast<int>(tup[1].as_number());
      c.in_flight = tup[2].as_number() != 0.0;
      d.candidates.push_back(c);
    }
    l.decisions.push_back(std::move(d));
  }
  l.report.decisions = l.decisions.size();
  return l;
}

RunLedger ledger_from_file(const std::string& path) {
  return ledger_from_json(util::json_parse_file(path));
}

LedgerDiff diff_ledgers(const RunLedger& a, const RunLedger& b) {
  LedgerDiff d;
  d.span_a = a.report.span;
  d.span_b = b.report.span;
  d.hashes_equal = a.event_hash == b.event_hash;

  double attributed = 0.0;
  for (int i = 0; i < 6; ++i) {
    CatDelta c;
    c.name = kCats[i];
    c.a = cat_of(a.report.cp, i);
    c.b = cat_of(b.report.cp, i);
    attributed += c.delta();
    d.cats.push_back(std::move(c));
  }
  const double dspan = d.dspan();
  if (dspan == 0.0) {
    d.coverage = 1.0;
  } else {
    const double cov = 1.0 - std::fabs(dspan - attributed) / std::fabs(dspan);
    d.coverage = std::clamp(cov, 0.0, 1.0);
  }

  // First diverging source decision.
  const std::size_t na = a.decisions.size(), nb = b.decisions.size();
  const std::size_t common = std::min(na, nb);
  auto same = [](const Decision& x, const Decision& y) {
    if (x.t != y.t || x.handle != y.handle || x.dst != y.dst ||
        x.pick != y.pick || x.picked_dev != y.picked_dev ||
        x.forced != y.forced ||
        x.candidates.size() != y.candidates.size())
      return false;
    for (std::size_t i = 0; i < x.candidates.size(); ++i) {
      const Decision::Candidate &cx = x.candidates[i], &cy = y.candidates[i];
      if (cx.dev != cy.dev || cx.rank != cy.rank ||
          cx.in_flight != cy.in_flight)
        return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < common; ++i) {
    if (!same(a.decisions[i], b.decisions[i])) {
      d.first_divergence = i;
      break;
    }
  }
  if (d.first_divergence == LedgerDiff::kNoDivergence && na != nb) {
    d.first_divergence = common;
    d.a_ended = na == common;
    d.b_ended = nb == common;
  }

  // Per-link deltas over the union of names, A's order first, then rows
  // only B has (sorted as B lists them).
  std::map<std::string, std::size_t> b_index;
  for (std::size_t i = 0; i < b.report.links.size(); ++i)
    b_index[b.report.links[i].name] = i;
  std::vector<bool> b_used(b.report.links.size(), false);
  for (const LinkRow& r : a.report.links) {
    LinkDelta ld;
    ld.name = r.name;
    ld.cls = r.cls;
    ld.busy_a = r.busy;
    ld.util_a = r.util;
    ld.bytes_a = static_cast<double>(r.bytes);
    ld.ops_a = static_cast<double>(r.ops);
    auto it = b_index.find(r.name);
    if (it != b_index.end()) {
      const LinkRow& rb = b.report.links[it->second];
      b_used[it->second] = true;
      ld.busy_b = rb.busy;
      ld.util_b = rb.util;
      ld.bytes_b = static_cast<double>(rb.bytes);
      ld.ops_b = static_cast<double>(rb.ops);
    }
    d.links.push_back(std::move(ld));
  }
  for (std::size_t i = 0; i < b.report.links.size(); ++i) {
    if (b_used[i]) continue;
    const LinkRow& rb = b.report.links[i];
    LinkDelta ld;
    ld.name = rb.name;
    ld.cls = rb.cls;
    ld.busy_b = rb.busy;
    ld.util_b = rb.util;
    ld.bytes_b = static_cast<double>(rb.bytes);
    ld.ops_b = static_cast<double>(rb.ops);
    d.links.push_back(std::move(ld));
  }
  return d;
}

std::string diff_text(const RunLedger& a, const RunLedger& b,
                      const LedgerDiff& d) {
  std::ostringstream out;
  auto side = [&](const char* tag, const RunLedger& l) {
    out << tag << ": lib=" << l.meta.lib << " routine=" << l.meta.routine
        << " scenario=" << l.meta.scenario << " n=" << l.meta.n
        << " tile=" << l.meta.tile << " span=" << num(l.report.span)
        << "s hash=" << hex64(l.event_hash) << " (" << l.prov.git << ", "
        << l.prov.build_type << ")\n";
  };
  out << "== run diff ==\n";
  side("A", a);
  side("B", b);
  out << "\nmakespan delta (B - A): " << num(d.dspan()) << " s ("
      << pct(d.span_a > 0.0 ? d.dspan() / d.span_a : 0.0) << " of A)\n";
  out << "event hashes: " << (d.hashes_equal ? "equal" : "differ") << "\n";

  out << "\nmakespan decomposition (critical-path attribution, s):\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-10s %16s %16s %16s\n", "category",
                "A", "B", "delta");
  out << line;
  double attributed = 0.0;
  for (const CatDelta& c : d.cats) {
    std::snprintf(line, sizeof line, "  %-10s %16.9f %16.9f %+16.9f\n",
                  c.name.c_str(), c.a, c.b, c.delta());
    out << line;
    attributed += c.delta();
  }
  std::snprintf(line, sizeof line,
                "  attributed %+.9f s of %+.9f s delta (coverage %s)\n",
                attributed, d.dspan(), pct(d.coverage).c_str());
  out << line;

  out << "\nsource decisions: A=" << a.decisions.size()
      << " B=" << b.decisions.size() << "\n";
  if (d.first_divergence == LedgerDiff::kNoDivergence) {
    out << "decision streams identical\n";
  } else {
    out << "first divergence at decision index " << d.first_divergence << ":\n";
    if (d.first_divergence < a.decisions.size())
      out << "  A: " << render_decision(a.decisions[d.first_divergence])
          << "\n";
    else
      out << "  A: (stream ended after " << a.decisions.size()
          << " decisions)\n";
    if (d.first_divergence < b.decisions.size())
      out << "  B: " << render_decision(b.decisions[d.first_divergence])
          << "\n";
    else
      out << "  B: (stream ended after " << b.decisions.size()
          << " decisions)\n";
  }

  out << "\nper-link deltas (B - A):\n";
  std::snprintf(line, sizeof line, "  %-10s %-9s %11s %8s %15s %9s\n", "name",
                "class", "dbusy(s)", "dutil", "dbytes", "dops");
  out << line;
  for (const LinkDelta& l : d.links) {
    std::snprintf(line, sizeof line,
                  "  %-10s %-9s %+11.6f %+8.4f %+15.0f %+9.0f\n",
                  l.name.c_str(), l.cls.c_str(), l.busy_b - l.busy_a,
                  l.util_b - l.util_a, l.bytes_b - l.bytes_a,
                  l.ops_b - l.ops_a);
    out << line;
  }
  return out.str();
}

std::string diff_json(const RunLedger& a, const RunLedger& b,
                      const LedgerDiff& d) {
  std::ostringstream out;
  Provenance p = Provenance::current("xkb.obs.rundiff", 1, a.meta.seed);
  out << "{\n";
  out << "\"provenance\": " << p.to_json() << ",\n";
  auto side = [&](const char* tag, const RunLedger& l) {
    out << "\"" << tag << "\": {\"lib\": \"" << trace::json_escape(l.meta.lib)
        << "\", \"routine\": \"" << trace::json_escape(l.meta.routine)
        << "\", \"scenario\": \"" << trace::json_escape(l.meta.scenario)
        << "\", \"n\": " << l.meta.n << ", \"tile\": " << l.meta.tile
        << ", \"span\": " << num(l.report.span) << ", \"event_hash\": \""
        << hex64(l.event_hash) << "\", \"decisions\": " << l.decisions.size()
        << "},\n";
  };
  side("a", a);
  side("b", b);
  out << "\"dspan\": " << num(d.dspan()) << ",\n";
  out << "\"coverage\": " << num(d.coverage) << ",\n";
  out << "\"hashes_equal\": " << (d.hashes_equal ? "true" : "false") << ",\n";
  out << "\"categories\": [";
  for (std::size_t i = 0; i < d.cats.size(); ++i) {
    const CatDelta& c = d.cats[i];
    out << (i ? ", " : "") << "{\"name\": \"" << c.name << "\", \"a\": "
        << num(c.a) << ", \"b\": " << num(c.b) << ", \"delta\": "
        << num(c.delta()) << "}";
  }
  out << "],\n";
  if (d.first_divergence == LedgerDiff::kNoDivergence) {
    out << "\"first_divergence\": null,\n";
  } else {
    out << "\"first_divergence\": {\"index\": " << d.first_divergence;
    if (d.first_divergence < a.decisions.size())
      out << ", \"a\": \""
          << trace::json_escape(render_decision(a.decisions[d.first_divergence]))
          << "\"";
    else
      out << ", \"a\": null";
    if (d.first_divergence < b.decisions.size())
      out << ", \"b\": \""
          << trace::json_escape(render_decision(b.decisions[d.first_divergence]))
          << "\"";
    else
      out << ", \"b\": null";
    out << "},\n";
  }
  out << "\"links\": [";
  for (std::size_t i = 0; i < d.links.size(); ++i) {
    const LinkDelta& l = d.links[i];
    out << (i ? ",\n " : "\n ") << "{\"name\": \"" << trace::json_escape(l.name)
        << "\", \"class\": \"" << trace::json_escape(l.cls)
        << "\", \"dbusy\": " << num(l.busy_b - l.busy_a) << ", \"dutil\": "
        << num(l.util_b - l.util_a) << ", \"dbytes\": "
        << num(l.bytes_b - l.bytes_a) << ", \"dops\": "
        << num(l.ops_b - l.ops_a) << "}";
  }
  out << (d.links.empty() ? "" : "\n") << "]\n";
  out << "}\n";
  return out.str();
}

}  // namespace xkb::obs
