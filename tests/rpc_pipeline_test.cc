// Unit tests for the sliding-window pipelined transport
// (src/rpc/pipeline.h): window admission, out-of-order completion,
// per-call RTO timers, at-most-once semantics, graceful degradation, and
// the virtual-time speedup the window buys on the NFS read path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/pipeline.h"
#include "src/support/event_queue.h"

namespace flexrpc {
namespace {

std::vector<uint8_t> XidRequest(uint32_t xid) {
  return {static_cast<uint8_t>(xid >> 24), static_cast<uint8_t>(xid >> 16),
          static_cast<uint8_t>(xid >> 8), static_cast<uint8_t>(xid), 0x5A};
}

// Echo rig, pipelined flavor: the handler echoes the request datagram back
// and counts executions per xid; completions record status and order.
struct PipeRig {
  explicit PipeRig(FaultPlan to_server, FaultPlan to_client,
                   PipelinePolicy policy = PipelinePolicy{})
      : channel(LinkModel(), std::move(to_server), std::move(to_client),
                &clock),
        events(&clock),
        transport(
            &channel,
            [this](ByteSpan request, std::vector<uint8_t>* reply) {
              auto xid = PeekXid(request);
              if (!xid.ok()) {
                return xid.status();
              }
              ++executions[*xid];
              reply->assign(request.begin(), request.end());
              return Status::Ok();
            },
            RemoteServerModel(), policy, &events) {}

  void Submit(uint32_t xid) {
    std::vector<uint8_t> request = XidRequest(xid);
    transport.Submit(
        xid, ByteSpan(request.data(), request.size()),
        [this, xid](Status st, std::vector<uint8_t> reply) {
          results[xid] = std::move(st);
          completion_order.push_back(xid);
          if (results[xid].ok()) {
            replies[xid] = std::move(reply);
          }
        });
  }

  VirtualClock clock;
  DatagramChannel channel;
  EventQueue events;
  PipelinedTransport transport;
  std::map<uint32_t, int> executions;
  std::map<uint32_t, Status> results;
  std::map<uint32_t, std::vector<uint8_t>> replies;
  std::vector<uint32_t> completion_order;
};

TEST(PipelinedTransportTest, PerfectWireCompletesEverySubmission) {
  PipelinePolicy policy;
  policy.window = 4;
  PipeRig rig{FaultPlan(), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 16; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  for (uint32_t xid = 1; xid <= 16; ++xid) {
    ASSERT_TRUE(rig.results[xid].ok()) << rig.results[xid].ToString();
    EXPECT_EQ(rig.executions[xid], 1);
    EXPECT_EQ(PeekXid(ByteSpan(rig.replies[xid].data(),
                               rig.replies[xid].size()))
                  .value(),
              xid);
  }
  const auto& stats = rig.transport.stats();
  EXPECT_EQ(stats.calls, 16u);
  EXPECT_EQ(stats.retransmits, 0u);
  EXPECT_EQ(stats.max_in_flight, 4u);
  EXPECT_GE(stats.window_stalls, 12u);  // submissions 5..16 found it full
  EXPECT_EQ(stats.dup_cache_misses, 16u);
}

TEST(PipelinedTransportTest, WindowOneIsStopAndWait) {
  PipelinePolicy policy;
  policy.window = 0;  // clamped to 1
  PipeRig rig{FaultPlan(), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 4; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  EXPECT_EQ(rig.transport.stats().max_in_flight, 1u);
  EXPECT_EQ(rig.completion_order, (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(PipelinedTransportTest, SlowCallIsOvertakenByYoungerOnes) {
  // Drop call 1's first request frame: while its RTO runs, calls 2..4
  // complete — out-of-order completion, matched purely by xid.
  FaultPlan to_server;
  to_server.DropExactly(0, 0);
  PipelinePolicy policy;
  policy.window = 4;
  policy.retry.initial_rto_nanos = 5'000'000;  // recover quickly
  PipeRig rig{std::move(to_server), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 4; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  for (uint32_t xid = 1; xid <= 4; ++xid) {
    ASSERT_TRUE(rig.results[xid].ok()) << rig.results[xid].ToString();
    EXPECT_EQ(rig.executions[xid], 1);
  }
  EXPECT_EQ(rig.completion_order.back(), 1u);  // the dropped call finishes last
  EXPECT_GE(rig.transport.stats().retransmits, 1u);
}

TEST(PipelinedTransportTest, DroppedReplyHitsDupCacheNotTheWorkFunction) {
  // The at-most-once proof on the pipelined path: reply 0 is lost, the
  // retransmit must be answered from the shared reply cache.
  FaultPlan to_client;
  to_client.DropExactly(0, 0);
  PipelinePolicy policy;
  policy.retry.initial_rto_nanos = 5'000'000;
  PipeRig rig{FaultPlan(), std::move(to_client), policy};
  rig.Submit(9);
  ASSERT_TRUE(rig.transport.Drive().ok());
  ASSERT_TRUE(rig.results[9].ok()) << rig.results[9].ToString();
  EXPECT_EQ(rig.executions[9], 1);  // executed exactly once
  EXPECT_GE(rig.transport.stats().retransmits, 1u);
  EXPECT_EQ(rig.transport.stats().dup_cache_hits, 1u);
  EXPECT_EQ(rig.transport.stats().dup_cache_misses, 1u);
}

TEST(PipelinedTransportTest, DuplicatedRequestsExecuteOncePerXid) {
  FaultConfig dupper;
  dupper.dup_prob = 1.0;  // every request frame arrives twice
  PipelinePolicy policy;
  policy.window = 4;
  PipeRig rig{FaultPlan(dupper), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    ASSERT_TRUE(rig.results[xid].ok());
    EXPECT_EQ(rig.executions[xid], 1);  // duplicates suppressed
  }
  EXPECT_EQ(rig.transport.stats().dup_cache_hits, 8u);
  EXPECT_EQ(rig.transport.stats().dup_cache_misses, 8u);
}

TEST(PipelinedTransportTest, TotalLossDegradesToUnavailable) {
  FaultConfig black_hole;
  black_hole.drop_prob = 1.0;
  PipelinePolicy policy;
  policy.retry.max_attempts = 3;
  policy.retry.initial_rto_nanos = 1'000'000;
  PipeRig rig{FaultPlan(black_hole), FaultPlan(), policy};
  rig.Submit(11);
  ASSERT_TRUE(rig.transport.Drive().ok());  // degrades, never stalls
  EXPECT_EQ(rig.results[11].code(), StatusCode::kUnavailable);
  EXPECT_EQ(rig.executions.count(11), 0u);
  EXPECT_EQ(rig.transport.stats().retransmits, 2u);
  EXPECT_EQ(rig.transport.stats().unavailable_failures, 1u);
}

TEST(PipelinedTransportTest, DeadlineShorterThanARoundTripExpires) {
  // A deadline shorter than one round trip must surface
  // kDeadlineExceeded even though the wire is perfect and a reply is
  // (eventually) on its way.
  PipelinePolicy policy;
  policy.retry.deadline_nanos = 1'000;  // 1 µs
  PipeRig rig{FaultPlan(), FaultPlan(), policy};
  rig.Submit(12);
  ASSERT_TRUE(rig.transport.Drive().ok());
  EXPECT_EQ(rig.results[12].code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rig.transport.stats().deadline_expiries, 1u);
}

TEST(PipelinedTransportTest, CallConvenienceMatchesSubmitDrive) {
  PipeRig rig{FaultPlan(), FaultPlan()};
  std::vector<uint8_t> request = XidRequest(77);
  std::vector<uint8_t> reply;
  ASSERT_TRUE(rig.transport
                  .Call(77, ByteSpan(request.data(), request.size()), &reply)
                  .ok());
  EXPECT_EQ(PeekXid(ByteSpan(reply.data(), reply.size())).value(), 77u);
  EXPECT_EQ(rig.executions[77], 1);
}

// --- the speedup the window exists for ----------------------------------

// Runs the pipelined NFS read at the given window and returns the virtual
// nanoseconds the whole file took. Contents are verified inside ReadFile
// against the server's bytes, which are identical to what the serial
// paths deliver (same server, same seed).
uint64_t PipelinedReadNanos(uint32_t window, size_t chunk_bytes,
                            uint64_t* bytes_read) {
  constexpr size_t kFileSize = 64 * 1024;
  NfsFileServer server(kFileSize, /*seed=*/77);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  EventQueue events(&clock);
  PipelinePolicy policy;
  policy.window = window;
  PipelinedTransport rpc(&channel, NfsFileServer::MakeHandler(&server),
                         RemoteServerModel(), policy, &events);
  auto stats = client.ReadFile(NfsClient::StubKind::kHandUserBuffer, &rpc,
                               chunk_bytes);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (bytes_read != nullptr) {
    *bytes_read = stats.ok() ? stats->bytes_read : 0;
  }
  return clock.now_nanos();
}

TEST(PipelinedNfsTest, WindowEightIsAtLeastTwiceWindowOne) {
  // 512-byte chunks make the read latency/server-bound, which is where
  // overlapping calls pays: the pipeline is limited by the busiest single
  // resource instead of the sum of request+server+reply legs.
  uint64_t serial_bytes = 0;
  uint64_t pipelined_bytes = 0;
  uint64_t serial = PipelinedReadNanos(1, 512, &serial_bytes);
  uint64_t pipelined = PipelinedReadNanos(8, 512, &pipelined_bytes);
  EXPECT_EQ(serial_bytes, 64u * 1024u);
  EXPECT_EQ(pipelined_bytes, serial_bytes);  // same bytes, same file
  EXPECT_GE(serial, 2 * pipelined)
      << "window=8 took " << pipelined << "ns vs window=1 " << serial
      << "ns — expected at least 2x";
}

TEST(PipelinedNfsTest, SpeedupIsDeterministic) {
  uint64_t a = PipelinedReadNanos(8, 512, nullptr);
  uint64_t b = PipelinedReadNanos(8, 512, nullptr);
  EXPECT_EQ(a, b);  // virtual time is a pure function of the inputs
}

// --- the adaptive transport (ISSUE 7 tentpole) --------------------------

struct NfsRunOutcome {
  uint64_t virtual_nanos = 0;
  uint64_t bytes_read = 0;
  PipelinedTransport::Stats stats;
  uint32_t final_window = 0;
};

// The congestion-collapse rig from the bench: 8 KB chunks at the default
// 20 ms RTO, where a fixed window > ~3 queues more reply wire time than
// the RTO covers and spuriously retransmits.
NfsRunOutcome CollapseRun(uint32_t window, bool adaptive) {
  constexpr size_t kFileSize = 128 * 1024;  // 16 full-size chunks
  NfsFileServer server(kFileSize, /*seed=*/77);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  EventQueue events(&clock);
  PipelinePolicy policy;
  policy.window = window;
  policy.retry.deadline_nanos = 60'000'000'000;
  policy.retry.adaptive.enabled = adaptive;
  PipelinedTransport rpc(&channel, NfsFileServer::MakeHandler(&server),
                         RemoteServerModel(), policy, &events);
  auto stats = client.ReadFile(NfsClient::StubKind::kHandUserBuffer, &rpc,
                               kNfsMaxData);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  NfsRunOutcome outcome;
  outcome.virtual_nanos = clock.now_nanos();
  outcome.bytes_read = stats.ok() ? stats->bytes_read : 0;
  outcome.stats = rpc.stats();
  outcome.final_window = rpc.current_window();
  return outcome;
}

TEST(AdaptivePipelineTest, CollapseRecoveryBeatsEveryFixedWindow) {
  // The acceptance bar: with zero hand tuning the adaptive transport must
  // recover at least the best fixed window's throughput — while the fixed
  // windows above the collapse knee burn spurious retransmits.
  uint64_t best_fixed_nanos = UINT64_MAX;
  uint64_t worst_fixed_retransmits = 0;
  for (uint32_t window : {1u, 2u, 4u, 8u, 16u}) {
    NfsRunOutcome fixed = CollapseRun(window, /*adaptive=*/false);
    best_fixed_nanos = std::min(best_fixed_nanos, fixed.virtual_nanos);
    worst_fixed_retransmits =
        std::max(worst_fixed_retransmits, fixed.stats.retransmits);
  }
  EXPECT_GT(worst_fixed_retransmits, 0u)
      << "the scenario no longer collapses — tighten it";

  NfsRunOutcome adaptive = CollapseRun(16, /*adaptive=*/true);
  // Same throughput or better (allow 1% for the ramp-up window).
  EXPECT_LE(adaptive.virtual_nanos, best_fixed_nanos + best_fixed_nanos / 100)
      << "adaptive " << adaptive.virtual_nanos << "ns vs best fixed "
      << best_fixed_nanos << "ns";
  // And it got there without a single spurious retransmit.
  EXPECT_EQ(adaptive.stats.retransmits, 0u);
  EXPECT_GT(adaptive.stats.rtt_samples, 0u);
  EXPECT_GT(adaptive.stats.cwnd_increases, 0u);
}

TEST(AdaptivePipelineTest, CleanRunSamplesEveryReplyAndGrowsWindow) {
  PipelinePolicy policy;
  policy.retry.adaptive.enabled = true;
  PipeRig rig{FaultPlan(), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 16; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  const auto& stats = rig.transport.stats();
  EXPECT_EQ(stats.rtt_samples, 16u);  // every reply was unambiguous
  EXPECT_EQ(stats.karn_skips, 0u);
  EXPECT_EQ(stats.cwnd_decreases, 0u);
  EXPECT_GT(stats.cwnd_increases, 0u);  // AIMD ramped from the initial 2
  EXPECT_GT(rig.transport.current_window(),
            rig.transport.cwnd().config().initial_window - 1);
  EXPECT_TRUE(rig.transport.rtt().has_sample());
  EXPECT_EQ(rig.transport.rtt().samples(), 16u);
}

TEST(AdaptivePipelineTest, RetransmitIsKarnSkippedAndHalvesWindow) {
  // Drop call 1's first request: its reply answers the retransmission, so
  // the sample is ambiguous (Karn skip), and the RTO fire is a loss signal
  // that must halve the AIMD window (2 -> 1).
  FaultPlan to_server;
  to_server.DropExactly(0, 0);
  PipelinePolicy policy;
  policy.retry.adaptive.enabled = true;
  policy.retry.adaptive.rtt.initial_rto_nanos = 5'000'000;
  PipeRig rig{std::move(to_server), FaultPlan(), policy};
  rig.Submit(1);
  ASSERT_TRUE(rig.transport.Drive().ok());
  ASSERT_TRUE(rig.results[1].ok()) << rig.results[1].ToString();
  const auto& stats = rig.transport.stats();
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.karn_skips, 1u);
  EXPECT_EQ(stats.rtt_samples, 0u);  // the only reply was ambiguous
  EXPECT_EQ(stats.cwnd_decreases, 1u);  // halved 2 -> 1 on the RTO fire
  // The eventual completion still counts as an ack (delivery evidence,
  // even though its RTT is ambiguous), and at a window of 1 a single ack
  // is a full window — so AIMD immediately grew back to 2.
  EXPECT_EQ(stats.cwnd_increases, 1u);
  EXPECT_EQ(rig.transport.current_window(), 2u);
}

TEST(AdaptivePipelineTest, EstimatorRtoTracksTheActualRoundTrip) {
  // After a clean run the RTO must sit near the measured round trip —
  // far below the 20 ms pre-sample seed — which is the whole mechanism
  // that avoids both spurious retransmits and sluggish recovery.
  PipelinePolicy policy;
  policy.retry.adaptive.enabled = true;
  PipeRig rig{FaultPlan(), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  const RttEstimator& rtt = rig.transport.rtt();
  ASSERT_TRUE(rtt.has_sample());
  EXPECT_GT(rtt.srtt_nanos(), 0u);
  EXPECT_LT(rtt.rto_nanos(), 20'000'000u);  // adapted below the seed
  EXPECT_GE(rtt.rto_nanos(), rtt.config().min_rto_nanos);
}

TEST(AdaptivePipelineTest, AdaptiveRunIsDeterministic) {
  auto run = [] {
    NfsRunOutcome outcome = CollapseRun(16, /*adaptive=*/true);
    return outcome;
  };
  NfsRunOutcome a = run();
  NfsRunOutcome b = run();
  EXPECT_EQ(a.virtual_nanos, b.virtual_nanos);
  EXPECT_EQ(a.stats.rtt_samples, b.stats.rtt_samples);
  EXPECT_EQ(a.stats.cwnd_increases, b.stats.cwnd_increases);
  EXPECT_EQ(a.stats.cwnd_decreases, b.stats.cwnd_decreases);
  EXPECT_EQ(a.final_window, b.final_window);
}

TEST(AdaptivePipelineTest, DisabledSwitchLeavesFixedBehaviorUntouched) {
  // The A/B contract: adaptive off (the default) must reproduce the
  // pre-adaptive transport exactly, so fixed-window numbers stay benchable.
  PipelinePolicy policy;
  policy.window = 4;
  PipeRig rig{FaultPlan(), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.transport.Drive().ok());
  const auto& stats = rig.transport.stats();
  EXPECT_EQ(stats.rtt_samples, 0u);
  EXPECT_EQ(stats.karn_skips, 0u);
  EXPECT_EQ(stats.cwnd_increases, 0u);
  EXPECT_EQ(stats.cwnd_decreases, 0u);
  EXPECT_EQ(rig.transport.current_window(), 4u);
  EXPECT_FALSE(rig.transport.rtt().has_sample());
}

}  // namespace
}  // namespace flexrpc
