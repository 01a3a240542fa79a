// xkb_lint -- the static-analysis driver of the xkb-tidy suite.
//
// Implements the five project checks as a comment/string-aware token
// scanner over the source text, so the determinism and hot-path rules are
// enforced by ctest on every toolchain (`ctest -R '^lint_'`: the fixture
// tests and the sweep over src/, bench/ and tools/).
//
// Checks (see DESIGN.md "Static analysis" for the full semantics):
//   xkb-unordered-observable  range-for / .begin() iteration over a
//                             std::unordered_{map,set} variable -- iteration
//                             order is address-dependent, so anything
//                             observable derived from it breaks run-to-run
//                             determinism.
//   xkb-address-ordering      reinterpret_cast of a pointer to
//                             [u]intptr_t, std::hash/std::less over pointer
//                             types, or std::map/std::set keyed on a
//                             pointer: ids or ordering minted from heap
//                             addresses.
//   xkb-wallclock-in-sim      wall-clock or ambient randomness (clock
//                             ::now(), std::time, rand/srand,
//                             std::random_device, clock_gettime, ...)
//                             outside bench/ and tools/ -- sim code may
//                             only draw from util::Rng substreams.
//   xkb-hot-path-alloc        heap allocation (non-placement new, the
//                             malloc family, make_unique/make_shared) or
//                             std::function construction inside a function
//                             annotated XKB_HOT.
//   xkb-silent-lane           observable-state mutators (observable-lane
//                             scheduling, trace records, metrics, the
//                             engine observer) inside a function annotated
//                             XKB_SILENT.
//
// Suppressions:
//   * `// NOLINT(<check>): why` on the finding's line, or
//     `// NOLINTNEXTLINE(<check>): why` on the line above.  A NOLINT
//     without justification text is itself reported
//     (xkb-suppression-justification).
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const char* const kChecks[] = {
    "xkb-unordered-observable", "xkb-address-ordering",
    "xkb-wallclock-in-sim",     "xkb-hot-path-alloc",
    "xkb-silent-lane",          "xkb-suppression-justification",
};

struct Finding {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string check;
  std::string message;
};

struct Suppression {
  std::set<std::string> checks;  // empty = all checks
  bool has_justification = false;
};

struct FileText {
  std::string path;                 // as given (normalized separators)
  std::vector<std::string> raw;     // original lines
  std::vector<std::string> code;    // comments and literals blanked
  std::map<std::size_t, Suppression> suppressions;  // by 1-based line
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Whole-word occurrence of `word` in `s` starting at `pos`?
bool word_at(const std::string& s, std::size_t pos, const std::string& word) {
  if (s.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && ident_char(s[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < s.size() && ident_char(s[end])) return false;
  return true;
}

std::size_t find_word(const std::string& s, const std::string& word,
                      std::size_t from = 0) {
  for (std::size_t p = s.find(word, from); p != std::string::npos;
       p = s.find(word, p + 1)) {
    if (word_at(s, p, word)) return p;
  }
  return std::string::npos;
}

/// Parse NOLINT-style directives out of a comment's text.
void parse_nolint(const std::string& comment, std::size_t line,
                  std::map<std::size_t, Suppression>& out) {
  static const char* kTokens[] = {"NOLINTNEXTLINE", "NOLINT"};
  for (const char* tok : kTokens) {
    std::size_t p = comment.find(tok);
    if (p == std::string::npos) continue;
    // "NOLINT" is a prefix of "NOLINTNEXTLINE"; make sure we attribute the
    // directive to the right token.
    if (std::strcmp(tok, "NOLINT") == 0 &&
        comment.compare(p, std::strlen("NOLINTNEXTLINE"),
                        "NOLINTNEXTLINE") == 0)
      continue;
    Suppression sup;
    std::size_t rest = p + std::strlen(tok);
    if (rest < comment.size() && comment[rest] == '(') {
      const std::size_t close = comment.find(')', rest);
      if (close != std::string::npos) {
        std::string list = comment.substr(rest + 1, close - rest - 1);
        std::istringstream ls(list);
        std::string name;
        while (std::getline(ls, name, ',')) {
          name.erase(0, name.find_first_not_of(" \t"));
          name.erase(name.find_last_not_of(" \t") + 1);
          if (!name.empty()) sup.checks.insert(name);
        }
        rest = close + 1;
      }
    }
    // Justification: any non-space text after the directive (": why",
    // "-- why", ...).
    sup.has_justification =
        comment.find_first_not_of(" \t:-)", rest) != std::string::npos;
    const std::size_t target =
        std::strcmp(tok, "NOLINTNEXTLINE") == 0 ? line + 1 : line;
    Suppression& slot = out[target];
    if (sup.checks.empty())
      slot.checks.clear();  // bare NOLINT: suppress everything
    else if (out[target].checks.empty() && out[target].has_justification)
      ;  // existing bare directive already covers all checks
    else
      slot.checks.insert(sup.checks.begin(), sup.checks.end());
    slot.has_justification |= sup.has_justification;
    return;  // one directive per comment
  }
}

/// Blank comments, string and char literals (preserving line structure and
/// column positions), collecting NOLINT directives from comments.
FileText preprocess(const std::string& path, const std::string& text) {
  FileText ft;
  ft.path = path;
  std::string cur_raw, cur_code, cur_comment;
  enum class St { kCode, kLine, kBlock, kStr, kChr, kRaw } st = St::kCode;
  std::string raw_delim;
  std::size_t line = 1;

  auto flush_line = [&] {
    ft.raw.push_back(cur_raw);
    ft.code.push_back(cur_code);
    if (!cur_comment.empty()) {
      parse_nolint(cur_comment, line, ft.suppressions);
      if (st != St::kBlock) cur_comment.clear();
    }
    cur_raw.clear();
    cur_code.clear();
    ++line;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      flush_line();
      if (st == St::kLine) st = St::kCode;
      continue;
    }
    cur_raw.push_back(c);
    switch (st) {
      case St::kCode:
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
          st = St::kLine;
          cur_code.append(2, ' ');
          cur_raw.push_back(text[++i]);
        } else if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
          st = St::kBlock;
          cur_code.append(2, ' ');
          cur_raw.push_back(text[++i]);
        } else if (c == '"' && i >= 1 && text[i - 1] == 'R') {
          st = St::kRaw;
          raw_delim.clear();
          cur_code.push_back(' ');
          for (std::size_t j = i + 1; j < text.size() && text[j] != '(';
               ++j)
            raw_delim.push_back(text[j]);
        } else if (c == '"') {
          st = St::kStr;
          cur_code.push_back(' ');
        } else if (c == '\'' && !(i > 0 && ident_char(text[i - 1]))) {
          // skip digit separators like 1'000'000 (preceded by ident char)
          st = St::kChr;
          cur_code.push_back(' ');
        } else {
          cur_code.push_back(c);
        }
        break;
      case St::kLine:
      case St::kBlock:
        cur_code.push_back(' ');
        cur_comment.push_back(c);
        if (st == St::kBlock && c == '/' && i > 0 && text[i - 1] == '*') {
          st = St::kCode;
          parse_nolint(cur_comment, line, ft.suppressions);
          cur_comment.clear();
        }
        break;
      case St::kStr:
        cur_code.push_back(' ');
        if (c == '\\' && i + 1 < text.size()) {
          cur_raw.push_back(text[++i]);
          cur_code.push_back(' ');
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChr:
        cur_code.push_back(' ');
        if (c == '\\' && i + 1 < text.size()) {
          cur_raw.push_back(text[++i]);
          cur_code.push_back(' ');
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
      case St::kRaw: {
        cur_code.push_back(' ');
        const std::string close = ")" + raw_delim + "\"";
        if (c == '"' && i + 1 >= close.size() &&
            text.compare(i + 1 - close.size(), close.size(), close) == 0)
          st = St::kCode;
        break;
      }
    }
  }
  if (!cur_raw.empty() || !cur_comment.empty()) flush_line();
  return ft;
}

/// Flattened view of the blanked code with a line index per character.
struct FlatCode {
  std::string text;
  std::vector<std::size_t> line;  // 1-based line of text[i]
};

FlatCode flatten(const FileText& ft) {
  FlatCode f;
  for (std::size_t i = 0; i < ft.code.size(); ++i) {
    for (char c : ft.code[i]) {
      f.text.push_back(c);
      f.line.push_back(i + 1);
    }
    f.text.push_back('\n');
    f.line.push_back(i + 1);
  }
  return f;
}

/// Skip a balanced <...> starting at `pos` (which must point at '<').
/// Returns the index just past the matching '>', or npos.
std::size_t skip_angles(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    else if (s[i] == '>') {
      if (--depth == 0) return i + 1;
    } else if (s[i] == ';') {
      return std::string::npos;  // statement ended: not a template arg list
    }
  }
  return std::string::npos;
}

std::string trim(std::string s) {
  s.erase(0, s.find_first_not_of(" \t\n"));
  s.erase(s.find_last_not_of(" \t\n") + 1);
  return s;
}

// ---------------------------------------------------------------------------
// Check 1: xkb-unordered-observable
// ---------------------------------------------------------------------------

void check_unordered(const FileText& ft, const FlatCode& f,
                     std::vector<Finding>& out) {
  // Pass 1: names of variables declared with an unordered container type.
  std::set<std::string> names;
  for (const char* kw : {"unordered_map", "unordered_set",
                         "unordered_multimap", "unordered_multiset"}) {
    for (std::size_t p = find_word(f.text, kw); p != std::string::npos;
         p = find_word(f.text, kw, p + 1)) {
      std::size_t q = p + std::strlen(kw);
      while (q < f.text.size() && std::isspace(static_cast<unsigned char>(
                                      f.text[q])))
        ++q;
      if (q < f.text.size() && f.text[q] == '<') {
        q = skip_angles(f.text, q);
        if (q == std::string::npos) continue;
      }
      while (q < f.text.size() &&
             (std::isspace(static_cast<unsigned char>(f.text[q])) ||
              f.text[q] == '&' || f.text[q] == '*'))
        ++q;
      std::string name;
      while (q < f.text.size() && ident_char(f.text[q]))
        name.push_back(f.text[q++]);
      if (!name.empty() && name != "const") names.insert(name);
    }
  }

  // Pass 2: range-for statements whose range expression names one of them
  // (or an unordered type directly).
  for (std::size_t p = find_word(f.text, "for"); p != std::string::npos;
       p = find_word(f.text, "for", p + 1)) {
    std::size_t q = f.text.find('(', p);
    if (q == std::string::npos) continue;
    int depth = 0;
    std::size_t colon = std::string::npos, close = std::string::npos;
    for (std::size_t i = q; i < f.text.size(); ++i) {
      const char c = f.text[i];
      if (c == '(') ++depth;
      else if (c == ')') {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (c == ':' && depth == 1 && colon == std::string::npos) {
        if (i + 1 < f.text.size() && f.text[i + 1] == ':') continue;
        if (i > 0 && f.text[i - 1] == ':') continue;
        colon = i;
      } else if (c == ';' && depth == 1) {
        colon = std::string::npos;  // classic for(;;), not a range-for
        break;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range =
        trim(f.text.substr(colon + 1, close - colon - 1));
    bool hit = range.find("unordered_") != std::string::npos;
    for (const std::string& n : names) {
      if (hit) break;
      if (find_word(range, n) != std::string::npos) hit = true;
    }
    if (hit)
      out.push_back({ft.path, f.line[p], "xkb-unordered-observable",
                     "iteration over unordered container '" + range +
                         "': visitation order is address-dependent and must "
                         "not feed observable state (sort a snapshot by a "
                         "stable key instead)"});
  }

  // Pass 3: explicit iterator walks (name.begin() / name.cbegin()).
  for (const std::string& n : names) {
    for (const char* meth : {".begin", ".cbegin"}) {
      const std::string pat = n + meth;
      for (std::size_t p = f.text.find(pat); p != std::string::npos;
           p = f.text.find(pat, p + 1)) {
        if (p > 0 && ident_char(f.text[p - 1])) continue;
        const std::size_t after = p + pat.size();
        if (after >= f.text.size() || f.text[after] != '(') continue;
        out.push_back({ft.path, f.line[p], "xkb-unordered-observable",
                       "iterator walk over unordered container '" + n +
                           "': visitation order is address-dependent"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: xkb-address-ordering
// ---------------------------------------------------------------------------

void check_address(const FileText& ft, const FlatCode& f,
                   std::vector<Finding>& out) {
  for (const char* cast :
       {"reinterpret_cast<std::uintptr_t>", "reinterpret_cast<uintptr_t>",
        "reinterpret_cast<std::intptr_t>", "reinterpret_cast<intptr_t>"}) {
    for (std::size_t p = f.text.find(cast); p != std::string::npos;
         p = f.text.find(cast, p + 1))
      out.push_back({ft.path, f.line[p], "xkb-address-ordering",
                     "pointer value converted to an integer: heap addresses "
                     "vary across runs and must never become ids, hash "
                     "inputs, or ordering keys (use a stable id field)"});
  }
  // std::hash / std::less specialized on a pointer type.
  for (const char* tmpl : {"std::hash", "std::less", "std::greater"}) {
    for (std::size_t p = f.text.find(tmpl); p != std::string::npos;
         p = f.text.find(tmpl, p + 1)) {
      std::size_t q = p + std::strlen(tmpl);
      if (q >= f.text.size() || f.text[q] != '<') continue;
      const std::size_t end = skip_angles(f.text, q);
      if (end == std::string::npos) continue;
      const std::string arg = trim(f.text.substr(q + 1, end - q - 2));
      if (!arg.empty() && arg.back() == '*')
        out.push_back({ft.path, f.line[p], "xkb-address-ordering",
                       std::string(tmpl) + "<" + arg +
                           ">: hashing or ordering raw pointer values is "
                           "address-dependent"});
    }
  }
  // Ordered containers keyed on a pointer type.
  for (const char* cont : {"std::map", "std::set", "std::multimap",
                           "std::multiset"}) {
    for (std::size_t p = f.text.find(cont); p != std::string::npos;
         p = f.text.find(cont, p + 1)) {
      const std::size_t q = p + std::strlen(cont);
      if (q >= f.text.size() || f.text[q] != '<') continue;
      if (p > 0 && ident_char(f.text[p - 1])) continue;
      const std::size_t end = skip_angles(f.text, q);
      if (end == std::string::npos) continue;
      const std::string args = f.text.substr(q + 1, end - q - 2);
      // First top-level template argument = the key type.
      int depth = 0;
      std::size_t cut = args.size();
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == '<' || args[i] == '(') ++depth;
        else if (args[i] == '>' || args[i] == ')') --depth;
        else if (args[i] == ',' && depth == 0) {
          cut = i;
          break;
        }
      }
      const std::string key = trim(args.substr(0, cut));
      if (!key.empty() && key.back() == '*')
        out.push_back({ft.path, f.line[p], "xkb-address-ordering",
                       std::string(cont) + " keyed on pointer type '" + key +
                           "': in-order iteration follows heap addresses "
                           "(key on a stable id instead)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: xkb-wallclock-in-sim
// ---------------------------------------------------------------------------

bool wallclock_exempt_path(const std::string& path) {
  const std::string p = "/" + path;
  return p.find("/bench/") != std::string::npos ||
         p.find("/tools/") != std::string::npos;
}

void check_wallclock(const FileText& ft, const FlatCode& f,
                     std::vector<Finding>& out) {
  if (wallclock_exempt_path(ft.path)) return;
  struct Pat {
    const char* pat;
    bool word;
    const char* what;
  };
  static const Pat kPats[] = {
      {"steady_clock::now", false, "wall-clock read"},
      {"system_clock::now", false, "wall-clock read"},
      {"high_resolution_clock::now", false, "wall-clock read"},
      {"random_device", true, "ambient randomness"},
      {"rand", true, "ambient randomness"},
      {"srand", true, "ambient randomness"},
      {"std::time(", false, "wall-clock read"},
      {"::time(", false, "wall-clock read"},
      {"time(nullptr", false, "wall-clock read"},
      {"time(NULL", false, "wall-clock read"},
      {"clock_gettime", true, "wall-clock read"},
      {"gettimeofday", true, "wall-clock read"},
      {"localtime", true, "wall-clock read"},
      {"gmtime", true, "wall-clock read"},
  };
  for (const Pat& pt : kPats) {
    const std::string pat = pt.pat;
    for (std::size_t p = pt.word ? find_word(f.text, pat) : f.text.find(pat);
         p != std::string::npos;
         p = pt.word ? find_word(f.text, pat, p + 1)
                     : f.text.find(pat, p + 1)) {
      if (pt.word) {
        // rand/srand must be a call to count (not e.g. a member named rand).
        const std::size_t after = p + pat.size();
        if ((pat == "rand" || pat == "srand") &&
            (after >= f.text.size() || f.text[after] != '('))
          continue;
        if (p >= 2 && f.text[p - 1] == '.') continue;  // member access
        if (p >= 2 && f.text[p - 1] == '>' && f.text[p - 2] == '-') continue;
      }
      out.push_back(
          {ft.path, f.line[p], "xkb-wallclock-in-sim",
           std::string(pt.what) + " '" + trim(pat) +
               "' in simulation code: runs must be reproducible from their "
               "seed; draw from util::Rng::substream instead (bench/ and "
               "tools/ are exempt)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Checks 4 and 5: annotated-function body scans
// ---------------------------------------------------------------------------

struct Span {
  std::size_t begin = 0, end = 0;  // [begin, end) into FlatCode::text
};

std::vector<Span> annotated_bodies(const FileText& ft, const FlatCode& f,
                                   const std::string& marker) {
  std::vector<Span> spans;
  for (std::size_t p = find_word(f.text, marker); p != std::string::npos;
       p = find_word(f.text, marker, p + 1)) {
    // Skip the macro's own definition (and any other preprocessor use):
    // `#define XKB_HOT ...` is not an annotated function.
    const std::string& line = ft.code[f.line[p] - 1];
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    // Find the function body: first '{' at paren depth 0 after the marker.
    std::size_t i = p + marker.size();
    int paren = 0;
    std::size_t open = std::string::npos;
    for (; i < f.text.size(); ++i) {
      const char c = f.text[i];
      if (c == '(') ++paren;
      else if (c == ')') --paren;
      else if (c == ';' && paren == 0) break;  // declaration only
      else if (c == '{' && paren == 0) {
        open = i;
        break;
      }
    }
    if (open == std::string::npos) continue;
    int depth = 0;
    for (i = open; i < f.text.size(); ++i) {
      if (f.text[i] == '{') ++depth;
      else if (f.text[i] == '}' && --depth == 0) {
        spans.push_back({open, i + 1});
        break;
      }
    }
  }
  return spans;
}

void check_hot(const FileText& ft, const FlatCode& f,
               std::vector<Finding>& out) {
  for (const Span& sp : annotated_bodies(ft, f, "XKB_HOT")) {
    const std::string body = f.text.substr(sp.begin, sp.end - sp.begin);
    // Non-placement new: `new` NOT immediately followed by '(' (placement
    // form `::new (slot) T{...}` constructs into arena storage).
    for (std::size_t p = find_word(body, "new"); p != std::string::npos;
         p = find_word(body, "new", p + 1)) {
      std::size_t q = p + 3;
      while (q < body.size() &&
             std::isspace(static_cast<unsigned char>(body[q])))
        ++q;
      if (q < body.size() && body[q] == '(') continue;  // placement new
      out.push_back({ft.path, f.line[sp.begin + p], "xkb-hot-path-alloc",
                     "heap allocation ('new') inside an XKB_HOT function: "
                     "the engine hot loop must never touch the allocator "
                     "(arena-allocate, or move the work off the hot path)"});
    }
    for (const char* fn : {"malloc", "calloc", "realloc", "strdup",
                           "aligned_alloc", "make_unique", "make_shared"}) {
      for (std::size_t p = find_word(body, fn); p != std::string::npos;
           p = find_word(body, fn, p + 1)) {
        std::size_t q = p + std::strlen(fn);
        if (body.compare(q, 1, "<") == 0) {
          const std::size_t e = skip_angles(body, q);
          if (e != std::string::npos) q = e;
        }
        if (q >= body.size() || body[q] != '(') continue;
        out.push_back({ft.path, f.line[sp.begin + p], "xkb-hot-path-alloc",
                       std::string("heap allocation ('") + fn +
                           "') inside an XKB_HOT function"});
      }
    }
    for (std::size_t p = body.find("std::function<"); p != std::string::npos;
         p = body.find("std::function<", p + 1))
      out.push_back({ft.path, f.line[sp.begin + p], "xkb-hot-path-alloc",
                     "std::function inside an XKB_HOT function: closures "
                     "over two words heap-allocate; use sim::SmallFn"});
  }
}

void check_silent(const FileText& ft, const FlatCode& f,
                  std::vector<Finding>& out) {
  struct Mut {
    const char* pat;
    bool word;
    const char* what;
  };
  static const Mut kMuts[] = {
      {"schedule_at", true, "observable-lane scheduling"},
      {"schedule_after", true, "observable-lane scheduling"},
      {"observer_", false, "direct engine-observer access"},
      {"set_observer", true, "engine-observer mutation"},
      {".inc(", false, "metrics mutation"},
      {"->inc(", false, "metrics mutation"},
      {"set_gauge", true, "metrics mutation"},
      {"count_fault", true, "metrics mutation"},
      {"series(", false, "metrics mutation"},
      {"trace_->add", false, "trace record emission"},
      {"trace_.add", false, "trace record emission"},
      // rt::Platform's instrumentation stream: each call reports a fact to
      // the op trace, obs and the checker.  The ctest
      // lint_silent_lane_covers_platform fails when a report_* member
      // declared in src/runtime/platform.hpp is missing here.
      {"transfer", true, "instrumentation report"},
      {"launch_kernel", true, "instrumentation report"},
      {"report_source", true, "instrumentation report"},
      {"report_cache_ref", true, "instrumentation report"},
      {"report_evict", true, "instrumentation report"},
      {"report_abort", true, "instrumentation report"},
      {"report_fault", true, "instrumentation report"},
      {"report_retry", true, "instrumentation report"},
      {"report_waiter_replan", true, "instrumentation report"},
      {"report_oom_deferral", true, "instrumentation report"},
      {"report_arrival", true, "instrumentation report"},
      {"report_written", true, "instrumentation report"},
      {"report_host_write", true, "instrumentation report"},
      {"report_flush_done", true, "instrumentation report"},
      {"report_replica_lost", true, "instrumentation report"},
      {"report_promote", true, "instrumentation report"},
      {"report_replay", true, "instrumentation report"},
      {"report_remap", true, "instrumentation report"},
  };
  for (const Span& sp : annotated_bodies(ft, f, "XKB_SILENT")) {
    const std::string body = f.text.substr(sp.begin, sp.end - sp.begin);
    for (const Mut& m : kMuts) {
      const std::string pat = m.pat;
      for (std::size_t p =
               m.word ? find_word(body, pat) : body.find(pat);
           p != std::string::npos;
           p = m.word ? find_word(body, pat, p + 1)
                      : body.find(pat, p + 1)) {
        if (m.word) {
          const std::size_t after = p + pat.size();
          if (after >= body.size() || body[after] != '(') continue;
        }
        out.push_back(
            {ft.path, f.line[sp.begin + p], "xkb-silent-lane",
             std::string(m.what) + " ('" + trim(pat) +
                 "') inside an XKB_SILENT function: silent-lane callbacks "
                 "must be bit-invisible when the fault is a no-op "
                 "(schedule_silent_*, and mutate observable state only "
                 "through bound hooks at the runtime layer)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression-hygiene check
// ---------------------------------------------------------------------------

void check_suppressions(const FileText& ft, std::vector<Finding>& out) {
  for (const auto& [line, sup] : ft.suppressions) {
    if (!sup.has_justification)
      out.push_back({ft.path, line, "xkb-suppression-justification",
                     "NOLINT without a justification: every suppression "
                     "must say why (\"// NOLINT(<check>): <reason>\")"});
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void collect(const fs::path& p, std::vector<std::string>& files) {
  if (fs::is_directory(p)) {
    std::vector<std::string> here;
    for (const auto& e : fs::recursive_directory_iterator(p)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc")
        here.push_back(e.path().generic_string());
    }
    std::sort(here.begin(), here.end());  // deterministic report order
    files.insert(files.end(), here.begin(), here.end());
  } else {
    files.push_back(p.generic_string());
  }
}

int usage(int code) {
  std::cerr <<
      "usage: xkb_lint [--check <name>] [--quiet] [--list-checks]\n"
      "                <file-or-dir>...\n"
      "exit: 0 clean, 1 findings, 2 bad invocation\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only_check;
  bool quiet = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      if (++i >= argc) return usage(2);
      only_check = argv[i];
      bool known = false;
      for (const char* c : kChecks) known |= (only_check == c);
      if (!known) {
        std::cerr << "xkb_lint: unknown check '" << only_check << "'\n";
        return 2;
      }
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--list-checks") {
      for (const char* c : kChecks) std::cout << c << "\n";
      return 0;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "xkb_lint: unknown flag '" << a << "'\n";
      return usage(2);
    } else {
      collect(a, files);
    }
  }
  if (files.empty()) return usage(2);

  std::vector<Finding> reported;
  std::size_t suppressed = 0;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "xkb_lint: cannot read '" << path << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const FileText ft = preprocess(path, buf.str());
    const FlatCode f = flatten(ft);

    std::vector<Finding> found;
    check_unordered(ft, f, found);
    check_address(ft, f, found);
    check_wallclock(ft, f, found);
    check_hot(ft, f, found);
    check_silent(ft, f, found);
    check_suppressions(ft, found);

    for (Finding& fd : found) {
      if (!only_check.empty() && fd.check != only_check) continue;
      // Inline suppression?
      const auto it = ft.suppressions.find(fd.line);
      if (fd.check != "xkb-suppression-justification" &&
          it != ft.suppressions.end() && it->second.has_justification &&
          (it->second.checks.empty() ||
           it->second.checks.count(fd.check))) {
        ++suppressed;
        continue;
      }
      reported.push_back(std::move(fd));
    }
  }

  std::stable_sort(reported.begin(), reported.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     return a.check < b.check;
                   });
  // Overlapping patterns (e.g. `std::time(` and `::time(`) may hit the
  // same call; one (line, check) pair is one finding.
  reported.erase(std::unique(reported.begin(), reported.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.path == b.path && a.line == b.line &&
                                      a.check == b.check;
                             }),
                 reported.end());
  for (const Finding& fd : reported)
    std::cout << fd.path << ":" << fd.line << ": [" << fd.check << "] "
              << fd.message << "\n";
  if (!quiet)
    std::cerr << "xkb_lint: " << reported.size() << " finding(s), "
              << suppressed << " suppressed, " << files.size()
              << " file(s) scanned\n";
  return reported.empty() ? 0 : 1;
}
