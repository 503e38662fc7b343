// Copyright 2026 The GraphRARE Authors.
//
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the per-section
// checksum of the model-artifact format. Incremental: a running value can
// be fed chunk by chunk; 0 is the empty-input CRC.

#ifndef GRAPHRARE_COMMON_CRC32_H_
#define GRAPHRARE_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace graphrare {

class Crc32 {
 public:
  /// Extends a running CRC with `n` more bytes. Start from 0.
  static uint32_t Update(uint32_t crc, const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    crc = ~crc;
    const uint32_t* table = Table();
    for (size_t i = 0; i < n; ++i) {
      crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
    }
    return ~crc;
  }

 private:
  static const uint32_t* Table() {
    static const std::array<uint32_t, 256> table = [] {
      std::array<uint32_t, 256> t{};
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[i] = c;
      }
      return t;
    }();
    return table.data();
  }
};

}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_CRC32_H_
