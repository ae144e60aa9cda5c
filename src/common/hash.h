/// \file hash.h
/// \brief Hashing utilities: 64-bit FNV-1a, integer finalizers, hash
/// combining for composite keys, and the CRC-32 frame checksum.

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace gisql {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// \brief 64-bit FNV-1a over an arbitrary byte span.
inline uint64_t HashBytes(const void* data, size_t n,
                          uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t HashString(std::string_view s, uint64_t seed = kFnvOffset) {
  return HashBytes(s.data(), s.size(), seed);
}

/// \brief Murmur3-style 64-bit integer finalizer (good avalanche).
inline uint64_t HashInt(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Combines two hashes (boost::hash_combine recipe, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// \brief Reflected CRC-32 (IEEE 802.3 polynomial), used as the wire
/// frame checksum. Slicing-by-8: eight 256-entry tables, built once on
/// first use, fold eight input bytes per step; a byte loop takes the
/// tail. The eight bytes are assembled little-endian explicitly, so the
/// value does not depend on the host's byte order.
inline uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0) {
  static const auto t = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (size_t s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[s - 1][i];
        tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xff];
      }
    }
    return tables;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    const uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                        uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace gisql
