// Table rendering for the tools: aligned columns for a terminal, or a
// GitHub markdown table for the generated blocks of EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace xkb {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 2);

  /// Aligned fixed-width rendering.
  std::string to_text() const;
  /// GitHub-flavoured markdown: header, `|---|` rule, one line per row;
  /// a `|` inside a cell is escaped.
  std::string to_markdown() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace xkb
