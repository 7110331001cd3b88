#include "src/rpc/mux.h"

#include <algorithm>
#include <utility>

#include "src/support/recorder.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr auto kAtoB = DatagramChannel::Dir::kAtoB;
constexpr auto kBtoA = DatagramChannel::Dir::kBtoA;
}  // namespace

Result<uint32_t> PeekMuxConn(ByteSpan datagram) {
  if (datagram.size() < 8) {
    return DataLossError("datagram too short to carry a connection id");
  }
  ByteReader r(ByteSpan(datagram.data() + 4, 4));
  return r.ReadU32Be();
}

void DeliveryPoll::Arm() {
  auto next = channel_->NextDeliveryNanos(dir_);
  if (!next) {
    return;
  }
  if (armed_ && at_ <= *next) {
    return;  // an earlier (or equal) wakeup already covers this frame
  }
  if (armed_) {
    events_->Cancel(event_);
  }
  armed_ = true;
  at_ = *next;
  event_ = ScheduleInScope(events_, *next, dispatches_, [this]() {
    armed_ = false;
    on_arrival_();
  });
}

ConnectionMux::ConnectionMux(DatagramChannel* channel, MuxPolicy policy,
                             EventQueue* events)
    : channel_(channel), policy_(policy), events_(events),
      jitter_(policy.retry.jitter_seed),
      reply_poll_(channel, kBtoA, events, &stats_.events,
                  [this]() { DrainReplies(); }) {
  if (policy_.per_conn_window == 0) {
    policy_.per_conn_window = 1;
  }
  channel_->set_scheduled_delivery(true);
}

ConnectionMux::Conn& ConnectionMux::AppendConn() {
  return conns_.emplace_back(policy_.retry.adaptive.rtt,
                             policy_.retry.adaptive.window);
}

uint32_t ConnectionMux::OpenConnection() {
  channel_->set_conn_tagging(true);
  if (conns_.empty()) {
    AppendConn();  // id 0 belongs to the untagged connection
  }
  uint32_t conn = static_cast<uint32_t>(conns_.size());
  AppendConn().open = true;
  ++open_conns_;
  ++stats_.conns_opened;
  TraceAdd(TraceCounter::kRpcMuxConnsOpened);
  return conn;
}

void ConnectionMux::OpenUntaggedConnection() {
  if (conns_.empty()) {
    AppendConn();
  }
  if (!conns_[kUntaggedConn].open) {
    conns_[kUntaggedConn].open = true;
    ++open_conns_;
  }
}

uint64_t ConnectionMux::total_window() const {
  uint64_t total = 0;
  for (const Conn& c : conns_) {
    if (c.open) {
      total += WindowFor(c);
    }
  }
  return total;
}

const RttEstimator* ConnectionMux::conn_rtt(uint32_t conn) const {
  const Conn* c = FindConn(conn);
  return c == nullptr ? nullptr : &c->rtt;
}

const AimdController* ConnectionMux::conn_cwnd(uint32_t conn) const {
  const Conn* c = FindConn(conn);
  return c == nullptr ? nullptr : &c->cwnd;
}

uint32_t ConnectionMux::conn_window(uint32_t conn) const {
  const Conn* c = FindConn(conn);
  return c == nullptr ? 0 : WindowFor(*c);
}

uint32_t ConnectionMux::Submit(uint32_t conn_id, ByteSpan body,
                               Completion done) {
  Conn* c = FindConn(conn_id);
  if (c == nullptr) {
    done(InvalidArgumentError(
             StrFormat("submit on unopened connection %u", conn_id)),
         {});
    return 0;
  }
  uint32_t xid = c->next_xid++;
  ByteWriter w;
  w.Reserve(8 + body.size());
  w.WriteU32Be(xid);
  w.WriteU32Be(conn_id);
  w.WriteSpan(body);
  Enqueue(conn_id, xid, w.TakeBuffer(), std::move(done));
  return xid;
}

void ConnectionMux::Enqueue(uint32_t conn_id, uint32_t xid,
                            std::vector<uint8_t> request, Completion done) {
  Conn& c = conns_[conn_id];
  RecorderConnScope conn_scope(conn_id);
  ++stats_.calls;
  TraceAdd(TraceCounter::kRpcMuxCalls);
  PendingCall pending;
  pending.call.xid = xid;
  pending.call.request = std::move(request);
  // The deadline starts at submission: time queued behind this
  // connection's window counts against it, like a kernel send queue.
  pending.call.Arm(policy_.retry, events_->clock()->now_nanos());
  pending.done = std::move(done);
  RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, xid,
              events_->clock()->now_nanos(),
              /*a=*/pending.call.request.size());
  ++outstanding_;
  // StartNext leaves the queue empty whenever the window has room, so a
  // call that fits starts at once without a trip through the queue.
  if (c.in_flight >= WindowFor(c)) {
    ++stats_.flow_stalls;
    TraceAdd(TraceCounter::kRpcMuxFlowStalls);
    c.pending.push_back(std::move(pending));
    return;
  }
  Launch(conn_id, c, std::move(pending));
}

void ConnectionMux::StartNext(uint32_t conn_id) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr) {
    return;
  }
  Conn& c = *conn;
  while (c.in_flight < WindowFor(c) && !c.pending.empty()) {
    PendingCall next = std::move(c.pending.front());
    c.pending.pop_front();
    Launch(conn_id, c, std::move(next));
  }
}

void ConnectionMux::Launch(uint32_t conn_id, Conn& c, PendingCall next) {
  InFlight& f = in_flight_[Key(conn_id, next.call.xid)];
  f.conn = conn_id;
  f.call = std::move(next.call);
  f.done = std::move(next.done);
  ++c.in_flight;
  stats_.max_in_flight =
      std::max<uint64_t>(stats_.max_in_flight, in_flight_.size());
  TransmitCall(f);
}

void ConnectionMux::TransmitCall(InFlight& f) {
  RecorderConnScope conn_scope(f.conn);
  ++f.call.attempts;
  if (f.call.attempts > 1) {
    ++stats_.retransmits;
    TraceAdd(TraceCounter::kRpcMuxRetransmits);
    RecordEvent(RecEvent::kRetransmit, RecEndpoint::kClient, f.call.xid,
                events_->clock()->now_nanos(), /*a=*/f.call.attempts);
  }
  f.call.last_tx_nanos = events_->clock()->now_nanos();
  channel_->Send(kAtoB,
                 ByteSpan(f.call.request.data(), f.call.request.size()));
  if (request_listener_) {
    request_listener_();
  }
  uint64_t now = events_->clock()->now_nanos();
  bool expires = false;
  uint64_t wait;
  const Conn* conn = FindConn(f.conn);
  if (policy_.retry.adaptive.enabled && conn != nullptr) {
    // This connection's estimator owns the RTO (and its Karn backoff —
    // see OnRto); samples never cross connections, so a slow peer cannot
    // inflate this one's timer.
    wait = ClipRtoWait(conn->rtt.rto_nanos(),
                       f.call.deadline_nanos, &jitter_, now, &expires);
  } else {
    wait = f.call.NextBackoffWait(policy_.retry, &jitter_, now, &expires);
  }
  // When the wait was clipped the timer fires at the deadline and OnRto
  // fails the call; no special case needed here.
  uint64_t key = Key(f.conn, f.call.xid);
  f.rto_event = Schedule(now + wait, [this, key]() { OnRto(key); });
}

void ConnectionMux::OnRto(uint64_t key) {
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    return;  // completed after this timer was already popped
  }
  InFlight& f = it->second;
  f.rto_event = EventQueue::kInvalidEvent;
  uint64_t now = events_->clock()->now_nanos();
  RecordEvent(RecEvent::kRtoFire, RecEndpoint::kClient, f.call.xid, now,
              /*a=*/f.call.attempts);
  if (observer_ != nullptr) {
    observer_->OnRtoFired(f.call.xid, f.call.attempts);
  }
  Conn* conn = FindConn(f.conn);
  if (policy_.retry.adaptive.enabled && conn != nullptr &&
      !f.call.DeadlinePassed(now)) {
    // A genuine timeout on this connection: Karn-backoff its RTO until
    // the next clean sample, and signal its AIMD loss. OnLoss holds off
    // repeat decreases for one RTO, so a burst of timeouts from one
    // congestion episode halves this connection's window once.
    Conn& c = *conn;
    c.rtt.Backoff();
    if (c.cwnd.OnLoss(now, c.rtt.rto_nanos())) {
      ++stats_.cwnd_decreases;
      RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient, f.call.xid,
                  now, /*a=*/c.cwnd.window(), /*b=*/1);
    }
  }
  if (f.call.AttemptsExhausted(policy_.retry)) {
    Complete(key, UnavailableError(StrFormat(
                      "no reply for conn %u xid %u after %u attempts",
                      f.conn, f.call.xid, f.call.attempts)),
             {});
    return;
  }
  if (f.call.DeadlinePassed(now)) {
    Complete(key, DeadlineExceededError(StrFormat(
                      "deadline passed after %u attempts for conn %u xid %u",
                      f.call.attempts, f.conn, f.call.xid)),
             {});
    return;
  }
  TransmitCall(f);
}

void ConnectionMux::Poke() { reply_poll_.Arm(); }

void ConnectionMux::DrainReplies() {
  while (channel_->HasPending(kBtoA)) {
    auto datagram = channel_->Receive(kBtoA);
    if (!datagram.ok()) {
      // A corrupt reply carries no readable identity; the owning call's
      // RTO covers it. With one connection it is still attributable, so
      // it is a loss signal for that connection's window.
      ++stats_.corrupt_replies;
      TraceAdd(TraceCounter::kRpcCorruptReplies);
      if (policy_.retry.adaptive.enabled && open_conns_ == 1) {
        // Connections never close, so the only open one is the newest.
        Conn& c = conns_.back();
        uint64_t now = events_->clock()->now_nanos();
        if (c.cwnd.OnLoss(now, c.rtt.rto_nanos())) {
          ++stats_.cwnd_decreases;
          RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient,
                      /*xid=*/0, now, /*a=*/c.cwnd.window(), /*b=*/1);
        }
      }
      continue;
    }
    ByteSpan reply_span(datagram->data(), datagram->size());
    auto xid = PeekXid(reply_span);
    Result<uint32_t> conn = kUntaggedConn;
    if (channel_->conn_tagging()) {
      conn = PeekMuxConn(reply_span);
    }
    if (!xid.ok() || !conn.ok()) {
      ++stats_.stale_replies;  // too short to carry (conn, xid)
      TraceAdd(TraceCounter::kRpcMuxStaleReplies);
      continue;
    }
    RecorderConnScope conn_scope(*conn);
    uint64_t now = events_->clock()->now_nanos();
    uint64_t key = Key(*conn, *xid);
    auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      // A late duplicate of a call that already completed (or failed) on
      // this connection — or a reply whose conn half does not match any
      // open call, which the per-connection keying rejects here.
      ++stats_.stale_replies;
      TraceAdd(TraceCounter::kRpcMuxStaleReplies);
      RecordEvent(RecEvent::kReplyStale, RecEndpoint::kClient, *xid, now);
      continue;
    }
    if (it->second.call.DeadlinePassed(now)) {
      RecordEvent(RecEvent::kReplyLate, RecEndpoint::kClient, *xid, now);
      Complete(key, DeadlineExceededError(StrFormat(
                        "reply for conn %u xid %u arrived after the "
                        "deadline",
                        *conn, *xid)),
               {});
      continue;
    }
    if (policy_.retry.adaptive.enabled) {
      if (Conn* conn_state = FindConn(*conn)) {
        Conn& c = *conn_state;
        if (it->second.call.attempts == 1) {
          // Karn's rule, per connection: only a reply to this
          // connection's never-retransmitted request is an unambiguous
          // measurement of *its* path.
          uint64_t sample = now - it->second.call.last_tx_nanos;
          c.rtt.Sample(sample);
          ++stats_.rtt_samples;
          RecordEvent(RecEvent::kRttSample, RecEndpoint::kClient, *xid,
                      now, /*a=*/sample, /*b=*/c.rtt.rto_nanos());
        } else {
          ++stats_.karn_skips;
          TraceAdd(TraceCounter::kRpcRttKarnSkips);
        }
        if (c.cwnd.OnAck()) {
          ++stats_.cwnd_increases;
          RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient, *xid,
                      now, /*a=*/c.cwnd.window(), /*b=*/0);
        }
      }
    }
    RecordEvent(RecEvent::kReplyMatch, RecEndpoint::kClient, *xid, now,
                /*a=*/datagram->size());
    if (observer_ != nullptr) {
      observer_->OnReplyMatched(*xid);
    }
    Complete(key, Status::Ok(), std::move(*datagram));
  }
  reply_poll_.Arm();  // more replies may still be in flight
}

void ConnectionMux::Complete(uint64_t key, Status status,
                             std::vector<uint8_t> reply) {
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    return;
  }
  InFlight& f = it->second;
  RecorderConnScope conn_scope(f.conn);
  if (f.rto_event != EventQueue::kInvalidEvent) {
    events_->Cancel(f.rto_event);
  }
  if (status.ok()) {
    ++stats_.completed;
    // flexwatch: per-connection submit-to-complete latency (queued time
    // behind the window included, exactly like the deadline accounting).
    WatchObserve(WatchSeries::kCallLatency, f.conn,
                 events_->clock()->now_nanos() - f.call.submit_nanos);
  } else if (status.code() == StatusCode::kUnavailable) {
    ++stats_.unavailable_failures;
    TraceAdd(TraceCounter::kRpcUnavailableFailures);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_expiries;
    TraceAdd(TraceCounter::kRpcDeadlineExpiries);
  }
  RecordEvent(RecEvent::kCallComplete, RecEndpoint::kClient, f.call.xid,
              events_->clock()->now_nanos(),
              /*a=*/static_cast<uint64_t>(status.code()));
  uint32_t conn_id = f.conn;
  Completion done = std::move(f.done);
  in_flight_.erase(it);
  --conns_[conn_id].in_flight;
  --outstanding_;
  StartNext(conn_id);  // the freed window slot admits the next queued call
  done(std::move(status), std::move(reply));
}

bool ConnectionMux::Cancel(uint32_t conn_id, uint32_t xid) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr) {
    return false;
  }
  Conn& c = *conn;
  auto it = in_flight_.find(Key(conn_id, xid));
  if (it != in_flight_.end()) {
    if (it->second.rto_event != EventQueue::kInvalidEvent) {
      events_->Cancel(it->second.rto_event);
    }
    in_flight_.erase(it);
    --c.in_flight;
    --outstanding_;
    StartNext(conn_id);  // the freed slot admits the next queued call
    return true;
  }
  for (auto p = c.pending.begin(); p != c.pending.end(); ++p) {
    if (p->call.xid == xid) {
      c.pending.erase(p);
      --outstanding_;
      return true;
    }
  }
  return false;
}

Status ConnectionMux::Drive() {
  while (outstanding_ > 0) {
    if (!events_->RunNext()) {
      return InternalError(StrFormat(
          "connection mux stalled: %zu calls outstanding, no events "
          "pending",
          outstanding_));
    }
  }
  return Status::Ok();
}

}  // namespace flexrpc
