// Strict numeric flag values for the command-line tools: the whole string
// must parse, so "12abc", "-3", "" and out-of-range values throw a
// std::invalid_argument naming the flag (std::stoul would accept the first
// silently, wrap the second and throw an unnamed error for the rest).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace xkb::cli {

/// A non-negative integer no larger than `max`.
inline std::size_t parse_size(const std::string& flag, const std::string& v,
                              std::size_t max = SIZE_MAX) {
  std::size_t pos = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (v.empty() || v[0] < '0' || v[0] > '9' || pos != v.size())
    throw std::invalid_argument(flag + ": '" + v +
                                "' is not a non-negative integer");
  if (x > max)
    throw std::invalid_argument(flag + ": '" + v + "' exceeds " +
                                std::to_string(max));
  return static_cast<std::size_t>(x);
}

inline double parse_double(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (v.empty() || pos != v.size() || !std::isfinite(x))
    throw std::invalid_argument(flag + ": '" + v + "' is not a number");
  return x;
}

}  // namespace xkb::cli
