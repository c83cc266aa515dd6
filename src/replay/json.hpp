// Minimal JSON reader/writer for the resilience artifacts (fault-schedule
// JSONL files and engine checkpoint headers — docs/resilience.md). Internal to
// src/replay: hand-rolled so the library keeps zero external dependencies.
//
// Supported surface: objects, arrays, strings (with \" \\ \/ \b \f \n \r \t
// and \uXXXX escapes on input; control characters escaped on output),
// integers (signed 64-bit magnitude), booleans, null. No floats — every
// number in our artifacts is an integer (words, slots, PIDs, counters).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rfsp::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;  // keeps order

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::uint64_t magnitude = 0;  // |number|
  bool negative = false;
  std::string string;
  Array array;
  Object object;

  std::uint64_t as_u64() const {
    require(Kind::kNumber, "number");
    if (negative) throw ConfigError("JSON number out of uint64 range");
    return magnitude;
  }

  const std::string& as_string() const {
    require(Kind::kString, "string");
    return string;
  }

  const Array& as_array() const {
    require(Kind::kArray, "array");
    return array;
  }

  const Object& as_object() const {
    require(Kind::kObject, "object");
    return object;
  }

  // Object member lookup; nullptr when absent.
  const Value* find(std::string_view key) const {
    require(Kind::kObject, "object");
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  // Object member lookup; throws when absent.
  const Value& at(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) {
      throw ConfigError("missing JSON field '" + std::string(key) + "'");
    }
    return *v;
  }

 private:
  void require(Kind k, const char* what) const {
    if (kind != k) {
      throw ConfigError(std::string("JSON value is not a ") + what);
    }
  }
};

// Parse one JSON document; throws ConfigError on malformed input or
// trailing non-whitespace.
Value parse(std::string_view text);

// --- Writing ----------------------------------------------------------------

// Append `s` as a JSON string literal (quotes + escapes) to `out`.
void append_string(std::string& out, std::string_view s);

inline void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}
inline void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace rfsp::json
