// Strict number parsing for text that arrives from outside the program:
// schedule/checkpoint meta values and command-line flags.
#pragma once

#include <cstdint>
#include <string>

namespace rfsp {

// Decimal unsigned integer no larger than `max`; every character of `text`
// must be a digit. Throws ConfigError naming `what` (e.g. "schedule meta
// 'n'" or "--n") when the text is empty, holds a non-digit, overflows 64
// bits, or exceeds `max`.
std::uint64_t parse_u64(const std::string& what, const std::string& text,
                        std::uint64_t max = UINT64_MAX);

// Finite floating-point value that consumes all of `text`. Throws
// ConfigError naming `what` otherwise.
double parse_double(const std::string& what, const std::string& text);

}  // namespace rfsp
