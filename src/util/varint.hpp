// LEB128 varints: 7 payload bits per byte, low group first, high bit set on
// every byte but the last, so a 64-bit value takes 1-10 bytes. One codec
// for every byte format in the library: the binary trace
// (obs/binary_trace.hpp) and the checkpoint body (replay/checkpoint.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rfsp {

inline constexpr std::size_t kMaxVarintBytes = 10;

inline void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Raw-cursor form for encoders that size their buffer for the worst case up
// front: writes at `p`, which must have kMaxVarintBytes of room, and
// returns the new end.
inline char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Reads one varint at data[p]: true with `p` advanced when a full varint was
// available, false (and `p` untouched) when the data ran out mid-varint.
// Over-long or overflowing varints are corruption, not starvation: those
// throw `Error`, the caller's malformed-input type.
template <typename Error>
bool try_varint(std::string_view data, std::size_t& p, std::uint64_t& value) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  std::size_t q = p;
  while (true) {
    if (q >= data.size()) return false;
    const auto b = static_cast<unsigned char>(data[q++]);
    if (shift >= 64) throw Error("varint longer than 10 bytes");
    if (shift == 63 && (b & 0x7f) > 1) throw Error("varint overflows 64 bits");
    v |= std::uint64_t(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  p = q;
  value = v;
  return true;
}

// Zigzag: signed words of small magnitude, either sign, stay short
// (0, -1, 1, -2, ... map to 0, 1, 2, 3, ...).
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

}  // namespace rfsp
