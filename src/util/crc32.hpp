// CRC-32 (the IEEE 802.3 / zlib polynomial, reflected 0xEDB88320), sliced
// eight bytes at a time. Guards the checkpoint body (replay/checkpoint.hpp):
// it detects every single-bit error and every burst of up to 32 bits.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace rfsp {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

// CRC-32 of `data`; pass the previous result as `crc` to continue a
// checksum across pieces (crc32(b, crc32(a)) == crc32(a ‖ b)).
inline std::uint32_t crc32(std::string_view data, std::uint32_t crc = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo =
        crc ^ (std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
               std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return ~crc;
}

}  // namespace rfsp
