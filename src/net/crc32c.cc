#include "src/net/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace flexrpc::crc32c_internal {

namespace {
constexpr uint32_t kPoly = 0x82F63B78u;  // Castagnoli, bit-reflected
constexpr uint32_t kInit = 0xFFFFFFFFu;  // also the final XOR

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();
}  // namespace

uint32_t Crc32cPortable(ByteSpan data) {
  uint32_t crc = kInit;
  for (uint8_t b : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ b) & 0xFFu];
  }
  return crc ^ kInit;
}

#if defined(__x86_64__)

bool Crc32cHardwareSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 without raising the baseline of the rest of the
// build; only reached after Crc32cHardwareSupported() said yes.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(ByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = kInit;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return crc32 ^ kInit;
}

#else

bool Crc32cHardwareSupported() { return false; }

uint32_t Crc32cHardware(ByteSpan data) { return Crc32cPortable(data); }

#endif

}  // namespace flexrpc::crc32c_internal
