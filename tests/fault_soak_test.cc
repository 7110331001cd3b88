// Seeded randomized soak of the lossy NFS read path (ISSUE 3, satellite 3).
//
// For each seed we derive a fault mix (drop/dup/reorder/corrupt/extra
// delay), run the Figure-2 NFS read through serial at-most-once RPC (the
// call engine with a window of one), and assert the robustness contract:
//   * every call terminates with OK or a documented degradation code —
//     never a hang (the virtual clock bounds every wait);
//   * the server work function runs at most once per xid, even under
//     duplicated and retransmitted requests;
//   * trace counters are identical across two runs of the same seed
//     (the whole substrate is deterministic given the seed).
//
// Registered under the `fault` ctest label via the flexrpc_fault_tests
// binary; tools/ci.sh runs the label in every sanitizer configuration.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/analysis/flexrec.h"
#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/pipeline.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

constexpr size_t kSoakFileSize = 64 * 1024;  // 8 chunks of kNfsMaxData

// Fault mix derived deterministically from the seed: moderate enough that
// most seeds finish OK, harsh enough that retransmits and dup-cache hits
// actually happen.
FaultConfig MixForSeed(uint64_t seed, uint64_t direction_salt) {
  Rng rng(seed * 2654435761u + direction_salt);
  FaultConfig config;
  config.drop_prob = rng.NextDouble() * 0.25;
  config.dup_prob = rng.NextDouble() * 0.15;
  config.reorder_prob = rng.NextDouble() * 0.15;
  config.corrupt_prob = rng.NextDouble() * 0.08;
  config.extra_delay_prob = rng.NextDouble() * 0.20;
  config.seed = seed ^ direction_salt;
  return config;
}

struct SoakOutcome {
  Status status = Status::Ok();
  NfsClient::ReadStats stats;
  int max_executions_per_xid = 0;
  TraceSnapshot trace;
};

// One full soak iteration, built from scratch so a repeat with the same
// seed replays the identical event sequence.
SoakOutcome RunSoak(uint64_t seed) {
  TraceSession session;

  NfsFileServer server(kSoakFileSize, /*seed=*/seed);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan(MixForSeed(seed, 0xA2B)),
                          FaultPlan(MixForSeed(seed, 0xB2A)), &clock);

  std::map<uint32_t, int> executions;
  DatagramHandler inner = NfsFileServer::MakeHandler(&server);
  DatagramHandler counting = [&executions, inner](
                                 ByteSpan request,
                                 std::vector<uint8_t>* reply) {
    auto xid = PeekXid(request);
    if (xid.ok()) {
      ++executions[*xid];
    }
    return inner(request, reply);
  };

  EventQueue events(&clock);
  PipelinePolicy policy;
  policy.window = 1;
  policy.retry.max_attempts = 12;
  policy.retry.deadline_nanos = 8'000'000'000;  // 8 virtual seconds per call
  policy.retry.jitter_seed = seed + 1;
  PipelinedTransport transport(&channel, counting, RemoteServerModel(),
                               policy, &events);

  SoakOutcome outcome;
  auto stats = client.ReadFile(
      NfsClient::StubKind::kGeneratedUserBuffer, &transport);
  if (stats.ok()) {
    outcome.stats = *stats;
  } else {
    outcome.status = stats.status();
  }
  for (const auto& [xid, count] : executions) {
    outcome.max_executions_per_xid =
        std::max(outcome.max_executions_per_xid, count);
  }
  outcome.trace = session.Report();
  return outcome;
}

bool IsDocumentedOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

TEST(FaultSoakTest, EverySeedTerminatesWithDocumentedCode) {
  int ok_runs = 0;
  uint64_t total_retransmits = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SoakOutcome outcome = RunSoak(seed);
    EXPECT_TRUE(IsDocumentedOutcome(outcome.status))
        << "seed " << seed << ": " << outcome.status.ToString();
    EXPECT_LE(outcome.max_executions_per_xid, 1)
        << "seed " << seed << " executed some xid more than once";
    if (outcome.status.ok()) {
      ++ok_runs;
      EXPECT_EQ(outcome.stats.bytes_read, kSoakFileSize) << "seed " << seed;
      total_retransmits += outcome.stats.retransmits;
    }
  }
  // The mix is tuned so the soak exercises both success and recovery: most
  // seeds should finish, and the wire should have actually misbehaved.
  EXPECT_GE(ok_runs, 6);
  EXPECT_GT(total_retransmits, 0u);
}

TEST(FaultSoakTest, SameSeedTwiceYieldsIdenticalTraceCounters) {
  for (uint64_t seed : {3u, 7u}) {
    SoakOutcome first = RunSoak(seed);
    SoakOutcome second = RunSoak(seed);
    EXPECT_EQ(first.status.code(), second.status.code()) << "seed " << seed;
    for (size_t i = 0; i < kTraceCounterCount; ++i) {
      EXPECT_EQ(first.trace.counters[i], second.trace.counters[i])
          << "seed " << seed << " counter "
          << TraceCounterName(static_cast<TraceCounter>(i));
    }
  }
}

TEST(FaultSoakTest, NfsDroppedReplyProvesAtMostOnce) {
  // The acceptance scenario at the NFS layer: a single-chunk read whose
  // reply datagram is dropped. The retransmitted request must be answered
  // from the reply cache — one server execution, one dup-cache hit, OK.
  NfsFileServer server(kNfsMaxData, /*seed=*/21);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  FaultPlan reply_eater;
  reply_eater.DropExactly(0, 0);
  DatagramChannel channel(LinkModel(), FaultPlan(), std::move(reply_eater),
                          &clock);
  EventQueue events(&clock);
  PipelinedTransport transport(&channel, NfsFileServer::MakeHandler(&server),
                               RemoteServerModel(),
                               PipelinePolicy{RetryPolicy{}, /*window=*/1},
                               &events);

  auto stats = client.ReadFile(
      NfsClient::StubKind::kGeneratedUserBuffer, &transport);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes_read, kNfsMaxData);
  EXPECT_EQ(stats->retransmits, 1u);
  EXPECT_EQ(stats->dup_cache_hits, 1u);
  EXPECT_EQ(stats->server_executions, 1u);
}

TEST(FaultSoakTest, NfsBlackHoleDegradesWithinDeadline) {
  // 100% loss: the read must come back with kUnavailable (attempt budget)
  // or kDeadlineExceeded (virtual deadline) without hanging — the whole
  // wait is charged to the virtual clock.
  NfsFileServer server(kNfsMaxData, /*seed=*/22);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  FaultConfig black_hole;
  black_hole.drop_prob = 1.0;
  DatagramChannel channel(LinkModel(), FaultPlan{black_hole},
                          FaultPlan{black_hole}, &clock);
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.deadline_nanos = 2'000'000'000;
  EventQueue events(&clock);
  PipelinedTransport transport(&channel, NfsFileServer::MakeHandler(&server),
                               RemoteServerModel(),
                               PipelinePolicy{policy, /*window=*/1}, &events);

  auto stats = client.ReadFile(
      NfsClient::StubKind::kGeneratedUserBuffer, &transport);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().code() == StatusCode::kUnavailable ||
              stats.status().code() == StatusCode::kDeadlineExceeded)
      << stats.status().ToString();
  EXPECT_LE(clock.now_nanos(), policy.deadline_nanos + 100'000'000);
}

// --- pipelined-path interaction matrix (ISSUE 4, satellite 5) -----------
//
// The sliding-window transport multiplexes several xids over the same
// lossy wire, so fault interactions the serial path never sees (a stale
// reply for an already-completed call racing a fresh one, a reordered
// duplicate landing mid-retransmit) are exercised here explicitly.

struct PipelinedOutcome {
  Status status = Status::Ok();
  NfsClient::ReadStats stats;
  int max_executions_per_xid = 0;
  PipelinedTransport::Stats rpc;
  TraceSnapshot trace;
  uint64_t virtual_nanos = 0;
};

PipelinedOutcome RunPipelinedSoak(uint64_t seed, const FaultConfig& to_server,
                                  const FaultConfig& to_client,
                                  uint32_t window = 8,
                                  size_t chunk_bytes = 2048,
                                  bool adaptive = false) {
  TraceSession session;

  NfsFileServer server(kSoakFileSize, /*seed=*/seed);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan(to_server),
                          FaultPlan(to_client), &clock);
  EventQueue events(&clock);

  std::map<uint32_t, int> executions;
  DatagramHandler inner = NfsFileServer::MakeHandler(&server);
  DatagramHandler counting = [&executions, inner](
                                 ByteSpan request,
                                 std::vector<uint8_t>* reply) {
    auto xid = PeekXid(request);
    if (xid.ok()) {
      ++executions[*xid];
    }
    return inner(request, reply);
  };

  PipelinePolicy policy;
  policy.window = window;
  policy.retry.max_attempts = 12;
  policy.retry.deadline_nanos = 8'000'000'000;
  policy.retry.jitter_seed = seed + 1;
  policy.retry.adaptive.enabled = adaptive;
  PipelinedTransport transport(&channel, counting, RemoteServerModel(),
                               policy, &events);

  PipelinedOutcome outcome;
  auto stats = client.ReadFile(
      NfsClient::StubKind::kGeneratedUserBuffer, &transport, chunk_bytes);
  if (stats.ok()) {
    outcome.stats = *stats;
  } else {
    outcome.status = stats.status();
  }
  for (const auto& [xid, count] : executions) {
    outcome.max_executions_per_xid =
        std::max(outcome.max_executions_per_xid, count);
  }
  outcome.rpc = transport.stats();
  outcome.trace = session.Report();
  outcome.virtual_nanos = clock.now_nanos();
  return outcome;
}

TEST(PipelinedFaultMatrixTest, ReorderPlusDuplicateKeepsAtMostOnce) {
  // Reordering shuffles which in-flight xid's reply lands first;
  // duplication makes the shuffled frames arrive twice. The window must
  // still match every reply by xid and the dup cache must absorb the rest.
  FaultConfig mix;
  mix.reorder_prob = 0.5;
  mix.dup_prob = 0.5;
  mix.seed = 1001;
  PipelinedOutcome outcome = RunPipelinedSoak(31, mix, mix);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.bytes_read, kSoakFileSize);
  EXPECT_LE(outcome.max_executions_per_xid, 1);
  EXPECT_GT(outcome.rpc.dup_cache_hits, 0u);   // duplicates were absorbed
  EXPECT_EQ(outcome.rpc.dup_cache_misses, outcome.stats.rpc_calls);
}

TEST(PipelinedFaultMatrixTest, StaleReplyFloodIsCountedAndIgnored) {
  // Duplicate every reply frame: the first copy completes the call, the
  // second finds no in-flight entry and must be dropped as stale — never
  // delivered to a different call's completion.
  FaultConfig reply_dupper;
  reply_dupper.dup_prob = 1.0;
  reply_dupper.seed = 1002;
  PipelinedOutcome outcome =
      RunPipelinedSoak(32, FaultConfig{}, reply_dupper);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.bytes_read, kSoakFileSize);
  EXPECT_LE(outcome.max_executions_per_xid, 1);
  EXPECT_GT(outcome.rpc.stale_replies, 0u);
  // Duplicated frames double the reply wire's occupancy, so queueing delay
  // can push some replies past the RTO — retransmits are allowed, but every
  // one of them must have been answered from the cache, not re-executed.
  EXPECT_EQ(outcome.rpc.dup_cache_misses, outcome.stats.rpc_calls);
}

TEST(PipelinedFaultMatrixTest, CorruptThenRetransmitRecoversViaDupCache) {
  // Corrupt a good fraction of reply frames. The pipelined path treats a
  // checksum failure as a drop, so the RTO retransmits and the server's
  // reply cache answers without re-executing the work function.
  FaultConfig corruptor;
  corruptor.corrupt_prob = 0.5;
  corruptor.seed = 1003;
  PipelinedOutcome outcome =
      RunPipelinedSoak(33, FaultConfig{}, corruptor);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.bytes_read, kSoakFileSize);
  EXPECT_LE(outcome.max_executions_per_xid, 1);
  EXPECT_GT(outcome.rpc.corrupt_replies, 0u);
  EXPECT_GT(outcome.rpc.retransmits, 0u);
  EXPECT_GT(outcome.rpc.dup_cache_hits, 0u);
}

TEST(PipelinedFaultMatrixTest, SameSeedTwiceMatchesPipelineCounters) {
  // Two-run determinism, including the call engine's counters: the event
  // queue's FIFO tie-break plus seeded fault plans make the whole pipelined
  // soak a pure function of the seed.
  FaultConfig mix = MixForSeed(5, 0xA2B);
  FaultConfig reply_mix = MixForSeed(5, 0xB2A);
  PipelinedOutcome first = RunPipelinedSoak(5, mix, reply_mix);
  PipelinedOutcome second = RunPipelinedSoak(5, mix, reply_mix);
  EXPECT_EQ(first.status.code(), second.status.code());
  EXPECT_EQ(first.virtual_nanos, second.virtual_nanos);
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    EXPECT_EQ(first.trace.counters[i], second.trace.counters[i])
        << "counter " << TraceCounterName(static_cast<TraceCounter>(i));
  }
  EXPECT_GT(first.trace.counters[static_cast<size_t>(
                TraceCounter::kRpcMuxCalls)],
            0u);
  EXPECT_GT(first.rpc.events, 0u);
  EXPECT_EQ(first.rpc.events, second.rpc.events);
}

TEST(PipelinedFaultMatrixTest, SameSeedRecordingsAreByteIdentical) {
  // The flight-recorder determinism gate (ISSUE 5): the serialized
  // recording omits host wall stamps by default, so two runs of the same
  // seeded lossy workload must produce *byte-identical* artifacts — the
  // contract that makes recordings diffable across CI runs and machines.
  FaultConfig mix = MixForSeed(5, 0xA2B);
  FaultConfig reply_mix = MixForSeed(5, 0xB2A);
  std::string first;
  {
    RecorderSession recorder;
    RunPipelinedSoak(5, mix, reply_mix);
    first = RecordingToJson(recorder.Stop());
  }
  std::string second;
  {
    RecorderSession recorder;
    RunPipelinedSoak(5, mix, reply_mix);
    second = RecordingToJson(recorder.Stop());
  }
  EXPECT_GT(first.size(), 1024u);  // the run actually recorded a timeline
  EXPECT_EQ(first, second);
}

// --- adaptive transport under faults (ISSUE 7) --------------------------
//
// The adaptive acceptance bar from the issue: across the fault matrix the
// flight-recorder classification must attribute (essentially) every
// retransmit to a recorded loss — a spurious RTO means the estimator
// under-timed a healthy round trip, the failure mode the whole subsystem
// exists to eliminate.

TEST(AdaptiveFaultMatrixTest, SpuriousRetransmitsStayZeroAcrossMatrix) {
  struct Case {
    const char* name;
    FaultConfig to_server;
    FaultConfig to_client;
  };
  std::vector<Case> matrix;
  matrix.push_back({"clean", FaultConfig{}, FaultConfig{}});
  {
    FaultConfig mix;  // shuffled + doubled frames, nothing lost
    mix.reorder_prob = 0.5;
    mix.dup_prob = 0.5;
    mix.seed = 2001;
    matrix.push_back({"reorder+dup", mix, mix});
  }
  {
    FaultConfig dropper;  // real loss: retransmits must all be drop-induced
    dropper.drop_prob = 0.10;
    dropper.seed = 2002;
    matrix.push_back({"drop10", dropper, dropper});
  }
  {
    FaultConfig corruptor;  // checksum failures count as losses too
    corruptor.corrupt_prob = 0.30;
    corruptor.seed = 2003;
    matrix.push_back({"corrupt30", FaultConfig{}, corruptor});
  }

  for (const Case& c : matrix) {
    RecorderSession recorder;
    PipelinedOutcome outcome =
        RunPipelinedSoak(41, c.to_server, c.to_client, /*window=*/16,
                         /*chunk_bytes=*/kNfsMaxData, /*adaptive=*/true);
    RecordingAnalysis analysis = AnalyzeRecording(recorder.Stop());
    ASSERT_TRUE(outcome.status.ok())
        << c.name << ": " << outcome.status.ToString();
    EXPECT_LE(outcome.max_executions_per_xid, 1) << c.name;
    EXPECT_EQ(analysis.spurious_retransmits, 0u)
        << c.name << ": " << analysis.total_retransmits
        << " retransmits, " << analysis.drop_induced_retransmits
        << " drop-induced";
    EXPECT_EQ(analysis.total_retransmits,
              analysis.drop_induced_retransmits)
        << c.name;
    EXPECT_GT(analysis.rtt_samples, 0u) << c.name;
  }
}

TEST(AdaptiveFaultMatrixTest, FixedWindowCollapsesWhereAdaptiveDoesNot) {
  // Control for the test above: the same full-size-chunk workload with a
  // fixed window of 16 at the default 20 ms RTO DOES retransmit
  // spuriously — proving the matrix would catch an estimator regression.
  RecorderSession recorder;
  PipelinedOutcome outcome =
      RunPipelinedSoak(41, FaultConfig{}, FaultConfig{}, /*window=*/16,
                       /*chunk_bytes=*/kNfsMaxData, /*adaptive=*/false);
  RecordingAnalysis analysis = AnalyzeRecording(recorder.Stop());
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GT(analysis.spurious_retransmits, 0u)
      << "the collapse scenario stopped collapsing — the adaptive matrix "
         "has lost its control";
}

TEST(AdaptiveFaultMatrixTest, SameSeedAdaptiveRecordingsAreByteIdentical) {
  // Determinism extends to the adaptive control loop: estimator state,
  // AIMD moves, and their kRttSample/kCwndChange events are pure
  // functions of the seed, so two adaptive runs serialize identically.
  FaultConfig mix = MixForSeed(5, 0xA2B);
  FaultConfig reply_mix = MixForSeed(5, 0xB2A);
  std::string first;
  {
    RecorderSession recorder;
    RunPipelinedSoak(5, mix, reply_mix, /*window=*/16,
                     /*chunk_bytes=*/2048, /*adaptive=*/true);
    first = RecordingToJson(recorder.Stop());
  }
  std::string second;
  {
    RecorderSession recorder;
    RunPipelinedSoak(5, mix, reply_mix, /*window=*/16,
                     /*chunk_bytes=*/2048, /*adaptive=*/true);
    second = RecordingToJson(recorder.Stop());
  }
  EXPECT_GT(first.size(), 1024u);
  EXPECT_EQ(first, second);
  // The recording really carries the adaptive timeline.
  EXPECT_NE(first.find("rtt_sample"), std::string::npos);
  EXPECT_NE(first.find("cwnd_change"), std::string::npos);
}

TEST(PipelinedFaultMatrixTest, NfsDroppedReplyProvesAtMostOncePipelined) {
  // The serial acceptance scenario, replayed through the window: one reply
  // datagram eaten, one retransmit, one dup-cache hit, one execution.
  TraceSession session;
  NfsFileServer server(kNfsMaxData, /*seed=*/23);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  FaultPlan eater;
  eater.DropExactly(0, 0);
  DatagramChannel channel(LinkModel(), FaultPlan(), std::move(eater),
                          &clock);
  EventQueue events(&clock);
  PipelinedTransport transport(&channel, NfsFileServer::MakeHandler(&server),
                               RemoteServerModel(), PipelinePolicy{},
                               &events);

  auto stats = client.ReadFile(
      NfsClient::StubKind::kGeneratedUserBuffer, &transport);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes_read, kNfsMaxData);
  EXPECT_EQ(stats->retransmits, 1u);
  EXPECT_EQ(stats->dup_cache_hits, 1u);
  EXPECT_EQ(stats->server_executions, 1u);
}

}  // namespace
}  // namespace flexrpc
