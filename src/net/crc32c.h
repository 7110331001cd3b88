// CRC32C (Castagnoli) — the two implementations behind DatagramChecksum.
//
// Internal to src/net: callers checksum frames through DatagramChecksum
// (src/net/datagram.h), which picks one of these once per process. Both are
// declared here so the tests can run each path directly and check the
// hardware one against the portable reference.
//
// Parameters: reflected polynomial 0x82F63B78, initial value and final XOR
// 0xFFFFFFFF (iSCSI, RFC 3720 §B.4).

#ifndef FLEXRPC_SRC_NET_CRC32C_H_
#define FLEXRPC_SRC_NET_CRC32C_H_

#include <cstdint>

#include "src/support/bytes.h"

namespace flexrpc::crc32c_internal {

// Table-driven, one byte per step; runs on every host.
uint32_t Crc32cPortable(ByteSpan data);

// True when this CPU executes the SSE4.2 `crc32` instruction; always false
// off x86-64.
bool Crc32cHardwareSupported();

// SSE4.2 `crc32q` over 8-byte words, `crc32b` over the tail. Call only when
// Crc32cHardwareSupported(); off x86-64 it is the portable path.
uint32_t Crc32cHardware(ByteSpan data);

}  // namespace flexrpc::crc32c_internal

#endif  // FLEXRPC_SRC_NET_CRC32C_H_
