// Unit tests for the client call engine (src/rpc/mux.h) wired to the
// dispatch loop (src/rpc/dispatch.h) over an echo server: per-connection
// Cancel, the rule that a corrupt reply is a loss signal only when it is
// attributable to a connection, connections opened from inside a
// completion, and the dispatch loop reading the channel's framing instead
// of assuming mux frames (and keeping no state for rejected frames).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/mux.h"
#include "src/support/event_queue.h"

namespace flexrpc {
namespace {

// A mux and a one-worker dispatch on one channel; the handler echoes the
// request (so the [xid][conn] prefix comes back) and counts executions
// per (conn, xid).
struct MuxRig {
  MuxRig(FaultPlan to_server, FaultPlan to_client, MuxPolicy policy)
      : channel(LinkModel(), std::move(to_server), std::move(to_client),
                &clock),
        events(&clock),
        mux(&channel, policy, &events),
        dispatch(
            &channel,
            [this](ByteSpan request, std::vector<uint8_t>* reply) {
              ByteReader r(request);
              auto xid = r.ReadU32Be();
              auto conn = r.ReadU32Be();
              if (!xid.ok() || !conn.ok()) {
                return InvalidArgumentError("short request");
              }
              ++executions[{*conn, *xid}];
              reply->assign(request.begin(), request.end());
              return Status::Ok();
            },
            DispatchPolicy{}, &events) {
    mux.set_request_listener([this]() { dispatch.Poke(); });
    dispatch.set_reply_listener([this]() { mux.Poke(); });
  }

  // Submits a one-byte body on `conn` and records its outcome under its
  // xid — the mux numbers each connection's calls 1, 2, ...
  uint32_t Submit(uint32_t conn) {
    uint8_t body = 0x5A;
    uint32_t xid = ++submitted[conn];
    EXPECT_EQ(mux.Submit(conn, ByteSpan(&body, 1),
                         [this, conn, xid](Status st, std::vector<uint8_t>) {
                           results[{conn, xid}] = st.code();
                         }),
              xid);
    return xid;
  }

  bool Completed(uint32_t conn, uint32_t xid) const {
    return results.count({conn, xid}) > 0;
  }
  StatusCode Outcome(uint32_t conn, uint32_t xid) const {
    return results.at({conn, xid});
  }
  int Runs(uint32_t conn, uint32_t xid) const {
    auto it = executions.find({conn, xid});
    return it == executions.end() ? 0 : it->second;
  }

  VirtualClock clock;
  DatagramChannel channel;
  EventQueue events;
  ConnectionMux mux;
  ServerDispatch dispatch;
  std::map<uint32_t, uint32_t> submitted;
  std::map<std::pair<uint32_t, uint32_t>, int> executions;
  std::map<std::pair<uint32_t, uint32_t>, StatusCode> results;
};

TEST(MuxCancelTest, CancelFreesThatConnectionsSlotAndStartsItsQueue) {
  MuxPolicy policy;
  policy.per_conn_window = 1;
  MuxRig rig{FaultPlan(), FaultPlan(), policy};
  uint32_t a = rig.mux.OpenConnection();
  uint32_t b = rig.mux.OpenConnection();
  uint32_t a1 = rig.Submit(a);  // in flight
  uint32_t a2 = rig.Submit(a);  // queued behind a1
  uint32_t b1 = rig.Submit(b);  // in flight on its own window
  EXPECT_EQ(rig.mux.in_flight_calls(), 2u);
  EXPECT_EQ(rig.mux.stats().flow_stalls, 1u);

  EXPECT_TRUE(rig.mux.Cancel(a, a1));
  // a's slot went to its queued call; b is untouched.
  EXPECT_EQ(rig.mux.in_flight_calls(), 2u);
  EXPECT_EQ(rig.mux.outstanding(), 2u);
  EXPECT_FALSE(rig.mux.Cancel(a, a1));  // already withdrawn
  EXPECT_FALSE(rig.mux.Cancel(b, a2));  // that xid lives on a, not b
  EXPECT_FALSE(rig.mux.Cancel(99, 1));  // no such connection

  ASSERT_TRUE(rig.mux.Drive().ok());
  EXPECT_EQ(rig.mux.outstanding(), 0u);
  EXPECT_FALSE(rig.Completed(a, a1));  // never completed
  EXPECT_EQ(rig.Outcome(a, a2), StatusCode::kOk);
  EXPECT_EQ(rig.Outcome(b, b1), StatusCode::kOk);
  EXPECT_EQ(rig.Runs(a, a2), 1);
  EXPECT_EQ(rig.Runs(b, b1), 1);
}

TEST(MuxCancelTest, CancelQueuedCallNeverTransmits) {
  MuxPolicy policy;
  policy.per_conn_window = 1;
  MuxRig rig{FaultPlan(), FaultPlan(), policy};
  uint32_t a = rig.mux.OpenConnection();
  uint32_t b = rig.mux.OpenConnection();
  uint32_t a1 = rig.Submit(a);
  uint32_t a2 = rig.Submit(a);  // queued
  rig.Submit(b);
  EXPECT_TRUE(rig.mux.Cancel(a, a2));
  ASSERT_TRUE(rig.mux.Drive().ok());
  EXPECT_EQ(rig.Outcome(a, a1), StatusCode::kOk);
  EXPECT_FALSE(rig.Completed(a, a2));
  EXPECT_EQ(rig.Runs(a, a2), 0);
  EXPECT_EQ(rig.channel.stats().sent, 4u);  // two requests, two replies
}

// Every reply frame is duplicated and corrupted: the channel transmits
// the clean duplicate first and the corrupted original second, so each
// call completes off the clean copy and no RTO ever fires. The corrupt
// frames are the only loss evidence.
FaultPlan DupThenCorruptReplies() {
  FaultConfig mangler;
  mangler.dup_prob = 1.0;
  mangler.corrupt_prob = 1.0;
  mangler.seed = 4242;
  return FaultPlan(mangler);
}

MuxPolicy AdaptivePolicy() {
  MuxPolicy policy;
  policy.retry.adaptive.enabled = true;
  policy.retry.adaptive.rtt.initial_rto_nanos = 200'000'000;
  return policy;
}

TEST(MuxCorruptLossTest, OneConnectionHalvesItsWindowOnACorruptReply) {
  MuxRig rig{FaultPlan(), DupThenCorruptReplies(), AdaptivePolicy()};
  uint32_t conn = rig.mux.OpenConnection();
  ASSERT_EQ(rig.mux.conn_window(conn), 2u);  // AimdConfig initial window
  uint32_t xid = rig.Submit(conn);
  ASSERT_TRUE(rig.mux.Drive().ok());
  rig.events.RunUntilIdle();  // let the corrupt duplicate land
  EXPECT_EQ(rig.Outcome(conn, xid), StatusCode::kOk);
  EXPECT_EQ(rig.mux.stats().retransmits, 0u);
  EXPECT_EQ(rig.mux.stats().corrupt_replies, 1u);
  // The one connection owns the corrupt frame: AIMD halves its window.
  EXPECT_EQ(rig.mux.stats().cwnd_decreases, 1u);
  EXPECT_EQ(rig.mux.conn_window(conn), 1u);
}

TEST(MuxCorruptLossTest, TwoConnectionsLeaveWindowsAloneOnCorruptReplies) {
  MuxRig rig{FaultPlan(), DupThenCorruptReplies(), AdaptivePolicy()};
  uint32_t a = rig.mux.OpenConnection();
  uint32_t b = rig.mux.OpenConnection();
  uint32_t a1 = rig.Submit(a);
  uint32_t b1 = rig.Submit(b);
  ASSERT_TRUE(rig.mux.Drive().ok());
  rig.events.RunUntilIdle();
  EXPECT_EQ(rig.Outcome(a, a1), StatusCode::kOk);
  EXPECT_EQ(rig.Outcome(b, b1), StatusCode::kOk);
  EXPECT_EQ(rig.mux.stats().retransmits, 0u);
  EXPECT_EQ(rig.mux.stats().corrupt_replies, 2u);
  // A corrupt frame cannot say which connection it belonged to, so no
  // connection's window pays for it.
  EXPECT_EQ(rig.mux.stats().cwnd_decreases, 0u);
  EXPECT_EQ(rig.mux.conn_window(a), 2u);
  EXPECT_EQ(rig.mux.conn_window(b), 2u);
}

TEST(MuxReentryTest, CompletionMayOpenAConnectionAndSubmitOnIt) {
  // Every completion on the two original connections opens a fresh
  // connection and submits on it while other calls are still in flight,
  // so the connection table grows under the engine's feet. Every call
  // must still complete exactly once and execute exactly once.
  MuxPolicy policy;
  policy.per_conn_window = 2;
  MuxRig rig{FaultPlan(), FaultPlan(), policy};
  std::map<std::pair<uint32_t, uint32_t>, int> completions;
  uint8_t body = 0x5A;
  std::function<void(uint32_t, bool)> submit = [&](uint32_t conn,
                                                   bool spawn) {
    uint32_t xid = ++rig.submitted[conn];
    rig.mux.Submit(conn, ByteSpan(&body, 1),
                   [&, conn, xid, spawn](Status st, std::vector<uint8_t>) {
                     EXPECT_TRUE(st.ok()) << st.ToString();
                     ++completions[{conn, xid}];
                     if (spawn) {
                       submit(rig.mux.OpenConnection(), /*spawn=*/false);
                     }
                   });
  };
  uint32_t a = rig.mux.OpenConnection();
  uint32_t b = rig.mux.OpenConnection();
  constexpr int kPerConn = 40;  // several calls queue behind each window
  for (int i = 0; i < kPerConn; ++i) {
    submit(a, /*spawn=*/true);
    submit(b, /*spawn=*/true);
  }
  ASSERT_TRUE(rig.mux.Drive().ok());
  EXPECT_EQ(rig.mux.stats().conns_opened, 2u + 2 * kPerConn);
  EXPECT_EQ(completions.size(), 4u * kPerConn);
  for (const auto& [call, n] : completions) {
    EXPECT_EQ(n, 1) << "conn " << call.first << " xid " << call.second;
    EXPECT_EQ(rig.Runs(call.first, call.second), 1);
  }
}

TEST(DispatchFramingTest, RejectedFramesOnUnopenedConnectionsKeepNoState) {
  // Connection ids on a tagged channel come off the wire. Frames the
  // handler rejects must not leave at-most-once state behind, or a stream
  // of made-up ids grows server memory without bound.
  VirtualClock clock;
  EventQueue events(&clock);
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  channel.set_conn_tagging(true);
  int attempts = 0;
  ServerDispatch dispatch(
      &channel,
      [&attempts](ByteSpan, std::vector<uint8_t>*) {
        ++attempts;
        return InvalidArgumentError("rejected");
      },
      DispatchPolicy{}, &events);
  constexpr uint32_t kFrames = 1000;
  for (uint32_t i = 0; i < kFrames; ++i) {
    ByteWriter w;
    w.WriteU32Be(1);             // xid
    w.WriteU32Be(1'000'000 + i); // a connection nobody opened
    w.WriteU32Be(0xBAD);         // body
    channel.Send(DatagramChannel::Dir::kAtoB, w.span());
    dispatch.Poke();
    events.RunUntilIdle();
  }
  EXPECT_EQ(attempts, static_cast<int>(kFrames));
  EXPECT_EQ(dispatch.stats().executions, 0u);
  EXPECT_EQ(dispatch.endpoint().connections(), 0u);
}

TEST(DispatchFramingTest, UntaggedChannelKeysAtMostOnceByXidAlone) {
  // On an untagged channel a datagram's second word is payload (a SunRPC
  // call's msg_type, say), not a connection id: two datagrams with the
  // same xid are the same call, whatever follows the xid.
  VirtualClock clock;
  EventQueue events(&clock);
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  int executions = 0;
  ServerDispatch dispatch(
      &channel,
      [&executions](ByteSpan request, std::vector<uint8_t>* reply) {
        ++executions;
        reply->assign(request.begin(), request.end());
        return Status::Ok();
      },
      DispatchPolicy{}, &events);
  const uint8_t first[] = {0, 0, 0, 5, 0, 0, 0, 1};
  const uint8_t second[] = {0, 0, 0, 5, 0, 0, 0, 2};
  for (ByteSpan request : {ByteSpan(first, 8), ByteSpan(second, 8)}) {
    channel.Send(DatagramChannel::Dir::kAtoB, request);
    dispatch.Poke();
    events.RunUntilIdle();
  }
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(dispatch.stats().dup_replies, 1u);
  EXPECT_EQ(dispatch.endpoint().connections(), 1u);
}

}  // namespace
}  // namespace flexrpc
