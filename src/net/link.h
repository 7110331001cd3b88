// Link and remote-host time model for the Figure 2 experiment.
//
// The paper measured an NFS read over a real 10 Mbit/s Ethernet from a BSD
// file server. Neither the wire nor the server CPU is the object of study —
// the paper itself notes the "network and server processing time ... is the
// same in each case". We therefore account for them on a virtual clock
// (bandwidth + per-packet latency + fixed per-RPC server time), while all
// *client-side* work (marshaling, copies, protocol processing) executes for
// real and is measured with a real clock. EXPERIMENTS.md documents this
// substitution.

#ifndef FLEXRPC_SRC_NET_LINK_H_
#define FLEXRPC_SRC_NET_LINK_H_

#include <cstdint>

#include "src/support/timing.h"

namespace flexrpc {

class LinkModel {
 public:
  // Defaults model the paper's testbed: 10 Mbit/s Ethernet, 1500-byte MTU,
  // ~0.2 ms per-packet overhead (media access + interrupt handling).
  struct Config {
    double bandwidth_bits_per_sec = 10e6;
    uint32_t mtu_bytes = 1500;
    uint32_t per_packet_overhead_bytes = 58;  // eth + IP + UDP headers
    double per_packet_latency_sec = 200e-6;
  };

  LinkModel();
  explicit LinkModel(Config config);

  // Charges the transfer of `payload_bytes` in one direction to `clock`.
  void Transfer(uint64_t payload_bytes, VirtualClock* clock) const;

  // Seconds one transfer of `payload_bytes` takes (without a clock).
  double TransferSeconds(uint64_t payload_bytes) const;

  // The two components of TransferSeconds, in nanoseconds, for
  // scheduled-delivery channels that pipeline transfers: occupancy is the
  // interval the shared medium is busy serializing the frame (back-to-back
  // transfers queue behind it), latency is per-packet propagation and
  // handling delay (overlaps between transfers).
  uint64_t OccupancyNanos(uint64_t payload_bytes) const;
  uint64_t LatencyNanos(uint64_t payload_bytes) const;

  // Trace-counts one transfer (packets, bytes on wire, virtual nanos)
  // without advancing any clock — scheduled-delivery channels charge time
  // through delivery timestamps instead of Transfer.
  void CountTransfer(uint64_t payload_bytes) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

// Fixed per-RPC processing time of the (unmodified) remote file server.
class RemoteServerModel {
 public:
  struct Config {
    double per_call_sec = 500e-6;       // request parse + fs lookup
    double per_byte_sec = 50e-9;        // buffer cache copy on the server
  };

  RemoteServerModel();
  explicit RemoteServerModel(Config config);

  void Process(uint64_t bytes, VirtualClock* clock) const {
    clock->AdvanceSeconds(config_.per_call_sec +
                          config_.per_byte_sec * static_cast<double>(bytes));
  }

  // Nanoseconds one call of `bytes` occupies the server CPU (no clock) —
  // event-driven transports serialize executions on a busy-until horizon.
  uint64_t ProcessNanos(uint64_t bytes) const {
    return static_cast<uint64_t>(
        (config_.per_call_sec +
         config_.per_byte_sec * static_cast<double>(bytes)) *
        1e9);
  }

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_NET_LINK_H_
