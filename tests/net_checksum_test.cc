// Unit tests for the datagram frame checksum (src/net/datagram.h,
// src/net/crc32c.h): CRC32C known answers, the SSE4.2 path held bit-for-bit
// to the portable table path, and an exhaustive proof that every single-byte
// and single-bit corruption the fault model can apply changes the checksum.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/crc32c.h"
#include "src/net/datagram.h"
#include "src/support/rng.h"

namespace flexrpc {
namespace {

using crc32c_internal::Crc32cHardware;
using crc32c_internal::Crc32cHardwareSupported;
using crc32c_internal::Crc32cPortable;

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return bytes;
}

struct KnownAnswer {
  std::vector<uint8_t> input;
  uint32_t crc;
};

// RFC 3720 §B.4 test vectors plus the customary "123456789" check value.
std::vector<KnownAnswer> KnownAnswers() {
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  const std::string check = "123456789";
  return {
      {std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {std::vector<uint8_t>(check.begin(), check.end()), 0xE3069283u},
  };
}

TEST(Crc32cTest, DatagramChecksumMatchesRfc3720Vectors) {
  for (const KnownAnswer& ka : KnownAnswers()) {
    EXPECT_EQ(DatagramChecksum(ka.input), ka.crc)
        << "input size " << ka.input.size();
  }
}

TEST(Crc32cTest, PortablePathMatchesRfc3720Vectors) {
  for (const KnownAnswer& ka : KnownAnswers()) {
    EXPECT_EQ(Crc32cPortable(ka.input), ka.crc)
        << "input size " << ka.input.size();
  }
  EXPECT_EQ(Crc32cPortable(ByteSpan()), 0u);
}

TEST(Crc32cTest, HardwarePathMatchesPortableAtEveryLengthAndAlignment) {
  if (!Crc32cHardwareSupported()) {
    GTEST_SKIP() << "CPU lacks SSE4.2; only the portable CRC32C path runs "
                    "on this host";
  }
  constexpr size_t kMaxOffset = 7;
  constexpr size_t kFrameSize = 8208;  // 8 KB read reply + NFS/RPC headers
  const std::vector<uint8_t> buffer =
      RandomBytes(kFrameSize + kMaxOffset, /*seed=*/3720);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(kFrameSize);
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t len : lengths) {
      ByteSpan span(buffer.data() + offset, len);
      ASSERT_EQ(Crc32cHardware(span), Crc32cPortable(span))
          << "offset " << offset << " length " << len;
    }
  }
}

// The fault model corrupts a frame by flipping one byte (^0xFF). CRC32C
// detects every burst of 32 bits or less, so this must hold at every
// position; checked exhaustively rather than trusted.
TEST(DatagramChecksumTest, EveryByteAndBitFlipIsDetected) {
  for (size_t len : {1u, 7u, 8u, 9u, 1024u, 8208u}) {
    std::vector<uint8_t> payload = RandomBytes(len, /*seed=*/len);
    const uint32_t clean = DatagramChecksum(payload);
    for (size_t pos = 0; pos < len; ++pos) {
      payload[pos] ^= 0xFF;
      ASSERT_NE(DatagramChecksum(payload), clean)
          << "byte flip undetected: length " << len << " position " << pos;
      payload[pos] ^= 0xFF;
      for (int bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<uint8_t>(1u << bit);
        payload[pos] ^= mask;
        ASSERT_NE(DatagramChecksum(payload), clean)
            << "bit flip undetected: length " << len << " position " << pos
            << " bit " << bit;
        payload[pos] ^= mask;
      }
    }
  }
}

}  // namespace
}  // namespace flexrpc
