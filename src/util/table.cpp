#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace xkb {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::to_text() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "  " << row[c]
          << std::string(width[c] - row[c].size(), ' ');
    }
    out << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::to_markdown() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    out << '|';
    for (const std::string& cell : row) {
      out << ' ';
      for (char c : cell) {
        if (c == '|') out << '\\';
        out << c;
      }
      out << " |";
    }
    out << '\n';
  };
  emit(header_);
  out << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) out << "---|";
  out << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace xkb
