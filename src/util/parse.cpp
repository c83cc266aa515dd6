#include "util/parse.hpp"

#include <cmath>
#include <stdexcept>

#include "util/error.hpp"

namespace rfsp {

std::uint64_t parse_u64(const std::string& what, const std::string& text,
                        std::uint64_t max) {
  if (text.empty()) throw ConfigError(what + " is empty");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw ConfigError(what + " is not a number: '" + text + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      throw ConfigError(what + " overflows: '" + text + "'");
    }
    value = value * 10 + digit;
  }
  if (value > max) {
    throw ConfigError(what + " exceeds " + std::to_string(max) + ": '" +
                      text + "'");
  }
  return value;
}

double parse_double(const std::string& what, const std::string& text) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || !std::isfinite(value)) {
    throw ConfigError(what + " is not a number: '" + text + "'");
  }
  return value;
}

}  // namespace rfsp
