// Unit tests for the lossy-wire substrate (src/net/fault.h,
// src/net/datagram.h), the at-most-once building blocks (src/rpc/retry.h),
// and serial RPC — the call engine with a window of one: deterministic
// fault decisions, checksum framing, xid-keyed retransmission, duplicate
// suppression, and graceful degradation (kUnavailable / kDeadlineExceeded
// — never a hang, never a double execution).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/pipeline.h"
#include "src/rpc/retry.h"
#include "src/support/event_queue.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

FaultConfig MixedFaults(uint64_t seed) {
  FaultConfig config;
  config.drop_prob = 0.2;
  config.dup_prob = 0.1;
  config.reorder_prob = 0.1;
  config.corrupt_prob = 0.1;
  config.extra_delay_prob = 0.2;
  config.seed = seed;
  return config;
}

TEST(FaultPlanTest, SameSeedSameDecisions) {
  FaultPlan a(MixedFaults(7));
  FaultPlan b(MixedFaults(7));
  for (int i = 0; i < 500; ++i) {
    FaultPlan::Decision da = a.Next();
    FaultPlan::Decision db = b.Next();
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.reorder, db.reorder);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.extra_delay_nanos, db.extra_delay_nanos);
    EXPECT_EQ(da.corrupt_salt, db.corrupt_salt);
  }
  EXPECT_EQ(a.packets_decided(), 500u);
}

TEST(FaultPlanTest, PerfectWireByDefault) {
  FaultPlan plan;
  for (int i = 0; i < 100; ++i) {
    FaultPlan::Decision d = plan.Next();
    EXPECT_FALSE(d.drop || d.duplicate || d.reorder || d.corrupt);
    EXPECT_EQ(d.extra_delay_nanos, 0u);
  }
}

TEST(FaultPlanTest, ScriptedDropRange) {
  FaultPlan plan;  // no probabilistic faults
  plan.DropExactly(2, 4);
  bool expected[] = {false, false, true, true, true, false, false};
  for (bool want : expected) {
    EXPECT_EQ(plan.Next().drop, want);
  }
}

TEST(FaultPlanTest, DropSuppressesOtherFaults) {
  FaultConfig config;
  config.dup_prob = 1.0;
  config.corrupt_prob = 1.0;
  config.extra_delay_prob = 1.0;
  FaultPlan plan(config);
  plan.DropExactly(0, 0);
  FaultPlan::Decision d = plan.Next();
  EXPECT_TRUE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_FALSE(d.corrupt);
  EXPECT_EQ(d.extra_delay_nanos, 0u);
}

ByteSpan Span(const char* s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s), std::strlen(s));
}

TEST(DatagramChannelTest, RoundTripChargesTheClock) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("hello wire"));
  EXPECT_GT(clock.now_nanos(), 0u);
  ASSERT_TRUE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(std::string(got->begin(), got->end()), "hello wire");
  EXPECT_FALSE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  EXPECT_EQ(ch.stats().sent, 1u);
  EXPECT_EQ(ch.stats().delivered, 1u);
}

TEST(DatagramChannelTest, DirectionsAreIndependent) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("request"));
  EXPECT_FALSE(ch.HasPending(DatagramChannel::Dir::kBtoA));
  ch.Send(DatagramChannel::Dir::kBtoA, Span("reply"));
  auto reply = ch.Receive(DatagramChannel::Dir::kBtoA);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::string(reply->begin(), reply->end()), "reply");
}

TEST(DatagramChannelTest, DroppedFrameNeverArrives) {
  VirtualClock clock;
  FaultPlan drops;
  drops.DropExactly(0, 0);
  DatagramChannel ch(LinkModel(), std::move(drops), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("gone"));
  EXPECT_FALSE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  EXPECT_EQ(ch.stats().dropped, 1u);
  EXPECT_GT(clock.now_nanos(), 0u);  // it still occupied the wire
}

TEST(DatagramChannelTest, DuplicateArrivesTwice) {
  VirtualClock clock;
  FaultConfig config;
  config.dup_prob = 1.0;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("twice"));
  EXPECT_EQ(ch.stats().duplicated, 1u);
  int arrivals = 0;
  while (ch.HasPending(DatagramChannel::Dir::kAtoB)) {
    auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(got->begin(), got->end()), "twice");
    ++arrivals;
  }
  EXPECT_EQ(arrivals, 2);
}

TEST(DatagramChannelTest, ReorderOvertakesQueuedFrame) {
  VirtualClock clock;
  FaultConfig config;
  config.reorder_prob = 1.0;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("first"));
  ch.Send(DatagramChannel::Dir::kAtoB, Span("second"));
  EXPECT_EQ(ch.stats().reordered, 1u);  // first send had nothing to pass
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->begin(), got->end()), "second");
}

TEST(DatagramChannelTest, ChecksumCatchesCorruption) {
  // An 8 KB payload sent as many frames, each with one byte flipped by the
  // scripted schedule at a different position: every one must be caught.
  constexpr uint64_t kFrames = 96;
  constexpr size_t kPayloadSize = 8192;
  std::vector<uint8_t> payload(kPayloadSize);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  FaultPlan plan;
  plan.CorruptExactly(0, kFrames - 1);
  // The flip positions are spread over the frame: a replica of the plan
  // yields one distinct salt-derived position per frame (the channel flips
  // byte 8 + salt % (frame size - 8), past the magic and sequence words).
  FaultPlan replica;
  replica.CorruptExactly(0, kFrames - 1);
  std::set<uint64_t> positions;
  for (uint64_t i = 0; i < kFrames; ++i) {
    positions.insert(replica.Next().corrupt_salt % (16 + kPayloadSize - 8));
  }
  EXPECT_EQ(positions.size(), kFrames);

  VirtualClock clock;
  DatagramChannel ch(LinkModel(), std::move(plan), FaultPlan(), &clock);
  for (uint64_t i = 0; i < kFrames; ++i) {
    ch.Send(DatagramChannel::Dir::kAtoB, payload);
    ASSERT_TRUE(ch.HasPending(DatagramChannel::Dir::kAtoB));
    auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
    ASSERT_FALSE(got.ok()) << "corrupted frame " << i << " was delivered";
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
  EXPECT_EQ(ch.stats().corrupted, kFrames);
  EXPECT_EQ(ch.stats().checksum_failures, ch.stats().corrupted);
  EXPECT_EQ(ch.stats().delivered, 0u);
}

TEST(DatagramChannelTest, EveryCorruptibleOffsetIsCaughtInBothDirections) {
  // The header is stored apart from the payload, so a flip may land in
  // either. Send a small frame until the scripted salts have hit every
  // wire offset in [8, 16 + len) — the length and checksum words and each
  // payload byte — in each direction; every flip must be a counted
  // kDataLoss.
  constexpr size_t kPayloadSize = 6;
  constexpr size_t kWireSize = 16 + kPayloadSize;
  constexpr uint64_t kMaxFrames = 4096;
  const uint8_t payload[kPayloadSize] = {1, 2, 3, 4, 5, 6};
  for (auto dir :
       {DatagramChannel::Dir::kAtoB, DatagramChannel::Dir::kBtoA}) {
    FaultPlan a_to_b;
    FaultPlan b_to_a;
    FaultPlan replica;
    (dir == DatagramChannel::Dir::kAtoB ? a_to_b : b_to_a)
        .CorruptExactly(0, kMaxFrames - 1);
    replica.CorruptExactly(0, kMaxFrames - 1);
    VirtualClock clock;
    DatagramChannel ch(LinkModel(), std::move(a_to_b), std::move(b_to_a),
                       &clock);
    std::set<size_t> hit;
    uint64_t frames = 0;
    while (hit.size() < kWireSize - 8 && frames < kMaxFrames) {
      hit.insert(8 + replica.Next().corrupt_salt % (kWireSize - 8));
      ch.Send(dir, ByteSpan(payload, kPayloadSize));
      ++frames;
      auto got = ch.Receive(dir);
      ASSERT_FALSE(got.ok()) << "corrupted frame " << frames
                             << " was delivered";
      EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
    }
    EXPECT_EQ(hit.size(), kWireSize - 8) << "salts never covered an offset";
    EXPECT_EQ(ch.stats().corrupted, frames);
    EXPECT_EQ(ch.stats().checksum_failures, frames);
    EXPECT_EQ(ch.stats().delivered, 0u);
  }
}

TEST(DatagramChannelTest, ExtraDelayChargedAtDelivery) {
  VirtualClock clock;
  FaultConfig config;
  config.extra_delay_prob = 1.0;
  config.extra_delay_max_nanos = 5'000'000;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("late"));
  uint64_t after_send = clock.now_nanos();
  ASSERT_TRUE(ch.Receive(DatagramChannel::Dir::kAtoB).ok());
  EXPECT_GT(clock.now_nanos(), after_send);
}

TEST(DatagramChannelTest, EmptyReceiveIsFailedPrecondition) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReplyCacheTest, FindInsertAndLruEviction) {
  ReplyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Insert(1, {0xAA});
  cache.Insert(2, {0xBB});
  // The lookup marks xid 1 recently used — a retransmit is probing it.
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ((*cache.Find(1))[0], 0xAA);
  cache.Insert(3, {0xCC});  // evicts xid 2, the least recently used
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(2), nullptr);
  ASSERT_NE(cache.Find(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ReplyCacheTest, InsertOverwriteRefreshesSlot) {
  ReplyCache cache(/*capacity=*/2);
  cache.Insert(1, {0xAA});
  cache.Insert(2, {0xBB});
  // Overwriting xid 1 must refresh its LRU slot, not leave it the oldest.
  cache.Insert(1, {0xA1});
  cache.Insert(3, {0xCC});  // evicts xid 2
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ((*cache.Find(1))[0], 0xA1);
  EXPECT_EQ(cache.Find(2), nullptr);
  ASSERT_NE(cache.Find(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

// Builds a minimal request datagram: big-endian xid plus a marker byte.
std::vector<uint8_t> XidRequest(uint32_t xid) {
  return {static_cast<uint8_t>(xid >> 24), static_cast<uint8_t>(xid >> 16),
          static_cast<uint8_t>(xid >> 8), static_cast<uint8_t>(xid), 0x5A};
}

TEST(AtMostOnceEndpointTest, LruKeepsRetransmittedXidExactlyOnce) {
  // Capacity 2 with three live xids: the endpoint must keep the xid that
  // is still being retransmitted (touched by every duplicate probe) and
  // evict the idle one. With FIFO eviction xid 1 would age out mid-flight
  // and its retransmit would re-execute the handler — at-most-once broken.
  std::map<uint32_t, int> executions;
  AtMostOnceEndpoint endpoint(
      [&executions](ByteSpan request, std::vector<uint8_t>* reply) {
        auto xid = PeekXid(request);
        if (!xid.ok()) {
          return xid.status();
        }
        ++executions[*xid];
        reply->assign(request.begin(), request.end());
        return Status::Ok();
      },
      /*cache_capacity=*/2);
  auto handle = [&endpoint](uint32_t xid) {
    std::vector<uint8_t> request = XidRequest(xid);
    return endpoint.Handle(ByteSpan(request.data(), request.size()));
  };

  ASSERT_TRUE(handle(1).ok());  // executes
  ASSERT_TRUE(handle(2).ok());  // executes; cache now full
  auto dup1 = handle(1);        // retransmit of 1 mid-flight: cache hit
  ASSERT_TRUE(dup1.ok());
  EXPECT_TRUE(dup1->dup_hit);
  ASSERT_TRUE(handle(3).ok());  // overflows capacity: must evict idle 2
  auto dup1_again = handle(1);  // 1 must STILL be suppressed
  ASSERT_TRUE(dup1_again.ok());
  EXPECT_TRUE(dup1_again->dup_hit);
  EXPECT_EQ(executions[1], 1);  // exactly once, despite the overflow
  EXPECT_EQ(executions[3], 1);
  EXPECT_EQ(endpoint.hits(), 2u);
  EXPECT_EQ(endpoint.misses(), 3u);
}

// --- (connection, xid)-keyed at-most-once (the mux-era bugfixes) ---------

// Builds a mux-framed request: [xid u32 BE][conn u32 BE][marker].
std::vector<uint8_t> ConnRequest(uint32_t conn, uint32_t xid,
                                 uint8_t marker) {
  return {static_cast<uint8_t>(xid >> 24),  static_cast<uint8_t>(xid >> 16),
          static_cast<uint8_t>(xid >> 8),   static_cast<uint8_t>(xid),
          static_cast<uint8_t>(conn >> 24), static_cast<uint8_t>(conn >> 16),
          static_cast<uint8_t>(conn >> 8),  static_cast<uint8_t>(conn),
          marker};
}

// An endpoint whose handler echoes the request and counts executions per
// (conn, xid) key — the evidence for every at-most-once claim below.
struct ConnEndpointRig {
  explicit ConnEndpointRig(size_t cache_capacity = 256)
      : endpoint(
            [this](ByteSpan request, std::vector<uint8_t>* reply) {
              auto xid = PeekXid(request);
              if (!xid.ok()) {
                return xid.status();
              }
              ++executions[(static_cast<uint64_t>(last_conn) << 32) | *xid];
              reply->assign(request.begin(), request.end());
              return Status::Ok();
            },
            cache_capacity) {}

  Result<AtMostOnceEndpoint::Handled> Handle(uint32_t conn, uint32_t xid,
                                             uint8_t marker) {
    last_conn = conn;
    std::vector<uint8_t> request = ConnRequest(conn, xid, marker);
    return endpoint.Handle(conn, ByteSpan(request.data(), request.size()));
  }

  AtMostOnceEndpoint endpoint;
  std::map<uint64_t, int> executions;
  uint32_t last_conn = 0;
};

TEST(AtMostOnceEndpointTest, ConnectionsDoNotShareXidSpace) {
  // Bugfix regression. At-most-once state used to be keyed by bare xid;
  // under the mux every connection allocates xids from 1, so two clients
  // collide immediately: the second connection's FIRST request on xid 1
  // matched the first connection's cached reply — answered with another
  // client's bytes and never executed. Keying by (conn, xid) makes both
  // first requests execute, each with its own reply.
  ConnEndpointRig rig;
  auto first = rig.Handle(/*conn=*/1, /*xid=*/1, /*marker=*/0xA1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->dup_hit);
  std::vector<uint8_t> first_reply = *first->reply;

  auto second = rig.Handle(/*conn=*/2, /*xid=*/1, /*marker=*/0xB2);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->dup_hit);  // pre-fix: dup_hit, handler skipped
  EXPECT_NE(*second->reply, first_reply);
  EXPECT_EQ(second->reply->back(), 0xB2);

  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 1);
  EXPECT_EQ(rig.executions[(2ull << 32) | 1], 1);
  // Each connection's retransmit still hits its own cache.
  auto dup = rig.Handle(/*conn=*/2, /*xid=*/1, /*marker=*/0xB2);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->dup_hit);
  EXPECT_EQ(rig.executions[(2ull << 32) | 1], 1);
}

TEST(AtMostOnceEndpointTest, PerConnectionCachesIsolateEviction) {
  // Bugfix regression. With one shared fixed-capacity cache, a burst on
  // one connection evicted other connections' in-flight entries — the
  // noisy-neighbor at-most-once hazard. Capacity is per connection now:
  // conn 2 churning through 3x capacity cannot touch conn 1's entry.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 1, 0x11).ok());
  for (uint32_t xid = 1; xid <= 6; ++xid) {
    ASSERT_TRUE(rig.Handle(2, xid, 0x22).ok());  // evicts only conn 2's
  }
  auto dup = rig.Handle(1, 1, 0x11);  // retransmit mid-flight
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->dup_hit);  // pre-fix: evicted, re-executed
  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 1);
  EXPECT_GE(rig.endpoint.CacheFor(2).evictions(), 4u);
  EXPECT_EQ(rig.endpoint.CacheFor(1).evictions(), 0u);
}

TEST(AtMostOnceEndpointTest, EvictionDuringRetransmitIsCountedExactly) {
  // The detector itself: when capacity pressure DOES evict an xid that is
  // still being retransmitted, the re-execution cannot be prevented (the
  // reply bytes are gone) but it must be counted — the endpoint keeps an
  // exact executed-xid memory per connection, so the violation shows up
  // as evicted_reexecs() == 1, which the fleet soak gates at zero.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 1, 0x01).ok());
  ASSERT_TRUE(rig.Handle(1, 2, 0x02).ok());
  ASSERT_TRUE(rig.Handle(1, 3, 0x03).ok());  // evicts xid 1
  EXPECT_EQ(rig.endpoint.evictions(), 1u);
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 0u);
  auto re = rig.Handle(1, 1, 0x01);  // late retransmit of the evicted xid
  ASSERT_TRUE(re.ok());
  EXPECT_FALSE(re->dup_hit);                      // cache cannot help
  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 2);  // violation happened...
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 1u);   // ...and was counted
}

TEST(AtMostOnceEndpointTest, ReorderedFirstDeliveryIsNotAReexec) {
  // No false positives: out-of-order FIRST deliveries (wire reorder) are
  // first executions, not re-executions — the detector tracks the exact
  // executed set, not a high-water mark.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 3, 0x03).ok());  // arrives first
  ASSERT_TRUE(rig.Handle(1, 1, 0x01).ok());  // delayed below the max xid
  ASSERT_TRUE(rig.Handle(1, 2, 0x02).ok());
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 0u);
}

TEST(PeekXidTest, BigEndianAndTruncation) {
  uint8_t bytes[] = {0x01, 0x02, 0x03, 0x04, 0xFF};
  auto xid = PeekXid(ByteSpan(bytes, sizeof(bytes)));
  ASSERT_TRUE(xid.ok());
  EXPECT_EQ(*xid, 0x01020304u);
  auto bad = PeekXid(ByteSpan(bytes, 3));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

// --- serial RPC: the call engine with a window of one -------------------

// An at-most-once test rig: a window-1 PipelinedTransport whose handler
// echoes the request datagram back (xid stays in front) and counts
// executions per xid.
struct SerialRig {
  explicit SerialRig(FaultPlan to_server, FaultPlan to_client,
                     RetryPolicy retry = RetryPolicy{})
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
            RemoteServerModel(), PipelinePolicy{retry, /*window=*/1},
            &events) {}

  Status Call(uint32_t xid, std::vector<uint8_t>* reply) {
    uint8_t request[8] = {
        static_cast<uint8_t>(xid >> 24), static_cast<uint8_t>(xid >> 16),
        static_cast<uint8_t>(xid >> 8),  static_cast<uint8_t>(xid),
        0xDE,                            0xAD,
        0xBE,                            0xEF};
    return transport.Call(xid, ByteSpan(request, sizeof(request)), reply);
  }

  VirtualClock clock;
  DatagramChannel channel;
  EventQueue events;
  PipelinedTransport transport;
  std::map<uint32_t, int> executions;
};

TEST(SerialRpcTest, PerfectWireFirstAttemptSucceeds) {
  SerialRig rig{FaultPlan(), FaultPlan()};
  std::vector<uint8_t> reply;
  ASSERT_TRUE(rig.Call(100, &reply).ok());
  EXPECT_EQ(reply.size(), 8u);
  EXPECT_EQ(rig.executions[100], 1);
  EXPECT_EQ(rig.transport.stats().retransmits, 0u);
  EXPECT_EQ(rig.transport.stats().dup_cache_misses, 1u);
}

TEST(SerialRpcTest, DroppedRequestRetransmits) {
  FaultPlan to_server;
  to_server.DropExactly(0, 0);  // lose the first request frame
  SerialRig rig{std::move(to_server), FaultPlan()};
  std::vector<uint8_t> reply;
  ASSERT_TRUE(rig.Call(7, &reply).ok());
  EXPECT_EQ(rig.executions[7], 1);  // never executed for the lost frame
  EXPECT_EQ(rig.transport.stats().retransmits, 1u);
  EXPECT_EQ(rig.transport.stats().dup_cache_hits, 0u);
  // The retransmit waited out at least one initial RTO.
  EXPECT_GE(rig.clock.now_nanos(), RetryPolicy{}.initial_rto_nanos);
}

TEST(SerialRpcTest, DroppedReplyHitsDupCacheNotTheWorkFunction) {
  // The at-most-once acceptance case: the request executes, the reply is
  // lost, the retransmit must be answered from the reply cache.
  FaultPlan to_client;
  to_client.DropExactly(0, 0);  // lose the first reply frame
  SerialRig rig{FaultPlan(), std::move(to_client)};
  std::vector<uint8_t> reply;
  ASSERT_TRUE(rig.Call(9, &reply).ok());
  EXPECT_EQ(rig.executions[9], 1);  // executed exactly once
  EXPECT_EQ(rig.transport.stats().retransmits, 1u);
  EXPECT_EQ(rig.transport.stats().dup_cache_hits, 1u);
  EXPECT_EQ(rig.transport.stats().dup_cache_misses, 1u);
}

TEST(SerialRpcTest, TotalLossReturnsUnavailableWithinDeadline) {
  FaultConfig black_hole;
  black_hole.drop_prob = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  SerialRig rig{FaultPlan(black_hole), FaultPlan(), policy};
  std::vector<uint8_t> reply;
  uint64_t start = rig.clock.now_nanos();
  Status st = rig.Call(11, &reply);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rig.executions.count(11), 0u);
  EXPECT_EQ(rig.transport.stats().retransmits, 3u);
  EXPECT_LE(rig.clock.now_nanos() - start, policy.deadline_nanos);
}

TEST(SerialRpcTest, DeadlineExceededOnTheVirtualClock) {
  FaultConfig black_hole;
  black_hole.drop_prob = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 1000;           // budget will not bind
  policy.deadline_nanos = 100'000'000;  // 100 ms virtual deadline
  SerialRig rig{FaultPlan(black_hole), FaultPlan(), policy};
  std::vector<uint8_t> reply;
  uint64_t start = rig.clock.now_nanos();
  Status st = rig.Call(12, &reply);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // The last RTO wait is clipped at the deadline, so the call gives up
  // exactly there on the virtual clock.
  EXPECT_EQ(rig.clock.now_nanos() - start, policy.deadline_nanos);
  EXPECT_GE(rig.transport.stats().deadline_expiries, 1u);
}

TEST(SerialRpcTest, LateReplyPastDeadlineIsDeadlineExceeded) {
  // A deadline shorter than one wire round trip: even a perfect wire
  // delivers the reply too late. The call fails with kDeadlineExceeded,
  // the late reply is never handed to the caller, and when it does land
  // it is discarded as stale — the server still executed the call once.
  RetryPolicy policy;
  policy.deadline_nanos = 1'000;  // 1 µs: less than any transfer takes
  SerialRig rig{FaultPlan(), FaultPlan(), policy};
  std::vector<uint8_t> reply;
  Status st = rig.Call(40, &reply);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(reply.empty());  // the late reply must not be delivered
  EXPECT_GE(rig.transport.stats().deadline_expiries, 1u);
  rig.events.RunUntilIdle();  // let the request land and the reply return
  EXPECT_EQ(rig.executions[40], 1);  // the server did execute it
  EXPECT_EQ(rig.transport.stats().stale_replies, 1u);
  EXPECT_TRUE(reply.empty());
}

TEST(SerialRpcTest, CorruptRepliesAreRetried) {
  FaultConfig mangler;
  mangler.corrupt_prob = 1.0;  // every reply fails its checksum
  RetryPolicy policy;
  policy.max_attempts = 3;
  SerialRig rig{FaultPlan(), FaultPlan(mangler), policy};
  std::vector<uint8_t> reply;
  Status st = rig.Call(13, &reply);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);  // degraded, not hung
  EXPECT_GE(rig.transport.stats().corrupt_replies, 3u);
  EXPECT_EQ(rig.executions[13], 1);  // dup cache absorbed the retransmits
  EXPECT_EQ(rig.transport.stats().dup_cache_hits, 2u);
}

TEST(SerialRpcTest, StaleDuplicateRepliesAreDiscarded) {
  FaultConfig dupper;
  dupper.dup_prob = 1.0;  // every reply arrives twice
  SerialRig rig{FaultPlan(), FaultPlan(dupper)};
  std::vector<uint8_t> reply;
  ASSERT_TRUE(rig.Call(20, &reply).ok());
  // Call 20's duplicate reply is still in flight; call 21 must skip it.
  ASSERT_TRUE(rig.Call(21, &reply).ok());
  EXPECT_EQ(PeekXid(ByteSpan(reply.data(), reply.size())).value(), 21u);
  EXPECT_GE(rig.transport.stats().stale_replies, 1u);
  EXPECT_EQ(rig.executions[20], 1);
  EXPECT_EQ(rig.executions[21], 1);
}

// Records the virtual time of every RTO fire.
struct RtoTimes : PipelineObserver {
  explicit RtoTimes(VirtualClock* c) : clock(c) {}
  void OnRtoFired(uint32_t, uint32_t) override {
    fires.push_back(clock->now_nanos());
  }
  void OnReplyMatched(uint32_t) override {}
  VirtualClock* clock;
  std::vector<uint64_t> fires;
};

TEST(SerialRpcTest, BackoffWaitsGrowExponentially) {
  FaultConfig black_hole;
  black_hole.drop_prob = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_rto_nanos = 1'000'000;
  policy.max_rto_nanos = 1'000'000'000;
  SerialRig rig{FaultPlan(black_hole), FaultPlan(), policy};
  RtoTimes rto(&rig.clock);
  rig.transport.set_observer(&rto);
  std::vector<uint8_t> reply;
  EXPECT_EQ(rig.Call(30, &reply).code(), StatusCode::kUnavailable);
  // One timer per transmission: waits of ~1, ~2, ~4, ~8 ms, each plus at
  // most 25% jitter.
  ASSERT_EQ(rto.fires.size(), 4u);
  uint64_t previous = 0;
  uint64_t rto_nanos = policy.initial_rto_nanos;
  for (uint64_t fire : rto.fires) {
    EXPECT_GE(fire - previous, rto_nanos);
    EXPECT_LE(fire - previous, rto_nanos + rto_nanos / 4);
    previous = fire;
    rto_nanos *= 2;
  }
}

TEST(SerialRpcTest, ServerExecSpanRecordsExactVirtualDuration) {
  SetTraceEnabled(false);
  ResetTrace();
  {
    TraceSession session;
    SerialRig rig{FaultPlan(), FaultPlan()};
    std::vector<uint8_t> reply;
    ASSERT_TRUE(rig.Call(1, &reply).ok());
    TraceSnapshot snap = session.Report();
    const auto& h = snap.histogram(TraceHistogram::kRpcDispatchNanos);
    // The dispatch loop observes the worker's modeled CPU window, exactly
    // ProcessNanos(reply size) — the histogram sum must equal that
    // modeled duration, not some host-dependent elapsed time.
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.sum, RemoteServerModel().ProcessNanos(reply.size()));
  }
  SetTraceEnabled(false);
  ResetTrace();
}

TEST(SerialRpcTest, TraceSnapshotIsByteIdenticalAcrossRuns) {
  // The server-exec path once timed itself with a wall-clock TraceSpan,
  // leaking host nanos into rpc.dispatch_nanos and breaking same-seed
  // byte identity of trace artifacts. Two identical seeded lossy
  // workloads must serialize identical snapshots, histograms included.
  auto run = []() {
    TraceSession session;
    FaultConfig mixed = MixedFaults(/*seed=*/17);
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.deadline_nanos = 4'000'000'000;
    policy.jitter_seed = 18;
    SerialRig rig{FaultPlan(mixed), FaultPlan(mixed), policy};
    std::vector<uint8_t> reply;
    for (uint32_t xid = 1; xid <= 24; ++xid) {
      (void)rig.Call(xid, &reply);
    }
    return session.ReportJson();
  };
  SetTraceEnabled(false);
  ResetTrace();
  std::string first = run();
  std::string second = run();
  SetTraceEnabled(false);
  ResetTrace();
  EXPECT_EQ(first, second);
  // The workload actually exercised the histograms being compared.
  EXPECT_NE(first.find("rpc.dispatch_nanos"), std::string::npos);
}

}  // namespace
}  // namespace flexrpc
