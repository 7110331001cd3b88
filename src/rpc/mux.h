// ConnectionMux — the client call engine: every at-most-once call, serial,
// pipelined, or multiplexed, runs on it.
//
// The engine runs logical connections over a single DatagramChannel, each
// with its own xid namespace, its own flow-control window, and its own
// stream of interleaved calls. The demux key — on the wire and in every
// table — is the (connection-id, xid) pair.
//
// Framing is one per-channel decision, read from the channel's conn-
// tagging bit by both the engine's reply demux and ServerDispatch:
//
//   tagged    OpenConnection() turns tagging on. The engine allocates
//             each connection's xids and frames every datagram as
//               [xid u32 BE][conn u32 BE][body...]
//             The xid stays the FIRST word — the SunRPC layout every layer
//             below assumes — and the connection id rides in the second.
//             Replies come back with the same prefix; completions hand the
//             caller the full datagram (prefix included).
//   untagged  PipelinedTransport's single connection (id 0): the caller's
//             own SunRPC datagram carrying the caller's xid, unchanged on
//             the wire. Tagging is never turned on.
//
// Per call the engine keeps a ClientCallState: an attempt budget, a per-
// call RTO timer with exponential backoff and deterministic jitter, and an
// absolute deadline armed at submission (time queued behind a full window
// counts against it). Replies are drained from coalesced poll events armed
// on the channel's NextDeliveryNanos. At most per_conn_window calls of one
// connection are in flight; the rest queue (counted as flow stalls).
// Serial RPC is a window of one.
//
// When policy.retry.adaptive.enabled, every connection carries its own
// RttEstimator + AimdController: the estimator RTO replaces the fixed
// doubling schedule and the AIMD window replaces per_conn_window, keyed
// per connection so one slow connection's samples can never inflate
// another's RTO. A corrupt reply is a loss signal only when it is
// attributable — the engine has exactly one connection — and then feeds
// that connection's AIMD OnLoss like an RTO fire does (the RTT estimator is
// not backed off: the frame arrived, so the path's timing is not in
// question). With several connections the owning call's RTO covers it.
//
// The server side is ServerDispatch (src/rpc/dispatch.h); the two halves
// share the channel and the EventQueue and wake each other through
// listener hooks (request_listener -> dispatch.Poke, reply_listener ->
// mux.Poke).

#ifndef FLEXRPC_SRC_RPC_MUX_H_
#define FLEXRPC_SRC_RPC_MUX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/net/datagram.h"
#include "src/rpc/retry.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"
#include "src/support/status.h"

namespace flexrpc {

// Health-evidence taps for a control plane above the engine. The binder
// (src/rpc/binder.h) listens to per-replica transports through this
// interface: RTO fires are failure evidence, matched replies are success
// evidence. Callbacks run synchronously inside the engine's event
// handling — implementations must not call back into the engine from them
// (defer via the shared EventQueue; Submit/Cancel on a *different* engine
// is fine).
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;
  virtual void OnRtoFired(uint32_t xid, uint32_t attempts) = 0;
  virtual void OnReplyMatched(uint32_t xid) = 0;
};

// Schedules `fn` at `at_nanos` on `events`. The event reopens the recorder
// connection and replica scopes active at scheduling time, so record
// points downstream of timers inherit the right tags, and bumps
// `*dispatches` when it runs. The scope wrapper holds `fn` by value, so a
// small capture stays inside the event's inline callback storage.
template <typename F>
EventQueue::EventId ScheduleInScope(EventQueue* events, uint64_t at_nanos,
                                    uint64_t* dispatches, F fn) {
  // Timer events fire with no ambient identity; capture the scopes active
  // at scheduling time and reopen them inside the event, so retransmits
  // and reply sends downstream of timers record under the right
  // connection and replica.
  uint32_t conn_tag = RecorderConnScope::Current();
  uint32_t replica_tag = RecorderReplicaScope::Current();
  return events->ScheduleAt(at_nanos, [dispatches, conn_tag, replica_tag,
                                       fn = std::move(fn)]() mutable {
    RecorderReplicaScope replica_scope(replica_tag);
    RecorderConnScope conn_scope(conn_tag);
    ++*dispatches;
    fn();
  });
}

// A coalesced wakeup for frames arriving in one channel direction: at most
// one poll event is scheduled, at the earliest pending delivery time, and
// it runs `on_arrival`.
class DeliveryPoll {
 public:
  DeliveryPoll(DatagramChannel* channel, DatagramChannel::Dir dir,
               EventQueue* events, uint64_t* dispatches,
               std::function<void()> on_arrival)
      : channel_(channel), dir_(dir), events_(events),
        dispatches_(dispatches), on_arrival_(std::move(on_arrival)) {}

  // Schedules the poll at the head frame's delivery time unless an
  // earlier (or equal) poll already covers it.
  void Arm();

 private:
  DatagramChannel* channel_;
  DatagramChannel::Dir dir_;
  EventQueue* events_;
  uint64_t* dispatches_;
  std::function<void()> on_arrival_;
  bool armed_ = false;
  uint64_t at_ = 0;
  EventQueue::EventId event_ = EventQueue::kInvalidEvent;
};

struct MuxPolicy {
  RetryPolicy retry;
  // Per-connection flow-control window: calls of one connection in flight
  // at once. Submissions beyond it queue on that connection (time spent
  // there counts against the deadline and shows up as queued phase).
  uint32_t per_conn_window = 4;
};

class ConnectionMux {
 public:
  // Invoked exactly once per submitted call (unless it is cancelled): with
  // the full reply datagram on OK, or a terminal kUnavailable /
  // kDeadlineExceeded status and an empty vector.
  using Completion = std::function<void(Status, std::vector<uint8_t>)>;

  struct Stats {
    uint64_t conns_opened = 0;
    uint64_t calls = 0;
    uint64_t completed = 0;        // ok completions
    uint64_t retransmits = 0;
    uint64_t stale_replies = 0;    // matched no in-flight (conn, xid)
    uint64_t corrupt_replies = 0;
    uint64_t flow_stalls = 0;      // queued behind a full per-conn window
    uint64_t deadline_expiries = 0;
    uint64_t unavailable_failures = 0;
    uint64_t max_in_flight = 0;    // across all connections
    uint64_t events = 0;           // event-queue dispatches
    // Adaptive-mode accounting (all zero when adaptive is disabled).
    uint64_t rtt_samples = 0;      // clean per-connection RTT measurements
    uint64_t karn_skips = 0;       // retransmit-ambiguous replies skipped
    uint64_t cwnd_increases = 0;   // per-connection additive growth
    uint64_t cwnd_decreases = 0;   // per-connection halvings
  };

  // `channel` and `events` must outlive the mux (and share the clock).
  // Puts the channel into scheduled-delivery mode.
  ConnectionMux(DatagramChannel* channel, MuxPolicy policy,
                EventQueue* events);

  // Opens a new tagged connection and returns its id (1-based and dense;
  // ids never reuse, and id 0 is the untagged connection). Turns the
  // channel's conn tagging on.
  uint32_t OpenConnection();

  // Submits one call on `conn` (which must be open). The mux allocates
  // the per-connection xid, frames [xid][conn][body], and returns the
  // xid (0 when `conn` is not open; `done` then fires at once with
  // kInvalidArgument).
  uint32_t Submit(uint32_t conn, ByteSpan body, Completion done);

  // Withdraws a submitted call without completing it: the RTO timer is
  // cancelled, the window slot freed (admitting the connection's next
  // queued call), and the completion never invoked. A reply already in
  // flight for it arrives as a stale reply. Returns false when the call
  // is neither queued nor in flight.
  bool Cancel(uint32_t conn, uint32_t xid);

  // Arms the reply poll — the server side calls this (via its
  // reply_listener hook) after sending so the mux wakes when the frame
  // lands.
  void Poke();

  // Invoked after every request transmission; wire it to
  // ServerDispatch::Poke so the server polls the arrival.
  void set_request_listener(std::function<void()> fn) {
    request_listener_ = std::move(fn);
  }

  // Health-evidence tap (see PipelineObserver). Null disables the tap.
  void set_observer(PipelineObserver* observer) { observer_ = observer; }

  // Runs the event queue until every submitted call completed. Errors if
  // the simulation stalls with calls outstanding.
  Status Drive();

  size_t outstanding() const { return outstanding_; }
  const Stats& stats() const { return stats_; }

  // Calls currently in flight across all connections — the flexwatch
  // in-flight gauge.
  size_t in_flight_calls() const { return in_flight_.size(); }

  // Sum of every open connection's effective window (AIMD when adaptive,
  // the fixed per_conn_window otherwise) — the flexwatch cwnd gauge.
  uint64_t total_window() const;

  // Per-connection adaptive state and effective window; nullptr (or 0)
  // for an unknown connection. The estimator and controller are
  // meaningful when policy.retry.adaptive.enabled.
  const RttEstimator* conn_rtt(uint32_t conn) const;
  const AimdController* conn_cwnd(uint32_t conn) const;
  uint32_t conn_window(uint32_t conn) const;

 private:
  friend class PipelinedTransport;

  struct PendingCall {
    ClientCallState call;
    Completion done;
  };
  struct InFlight {
    uint32_t conn = 0;
    ClientCallState call;
    Completion done;
    EventQueue::EventId rto_event = EventQueue::kInvalidEvent;
  };
  struct Conn {
    bool open = false;       // slot 0 stays closed on a tagged engine
    uint32_t next_xid = 1;   // per-connection namespace
    uint32_t in_flight = 0;  // window occupancy
    std::deque<PendingCall> pending;
    // Per-connection adaptive state; idle unless adaptive.enabled.
    RttEstimator rtt;
    AimdController cwnd;
    Conn(const RttConfig& rtt_config, const AimdConfig& window_config)
        : rtt(rtt_config), cwnd(window_config) {}
  };

  // The untagged connection (id 0): requests are the caller's own
  // datagrams, xid first, sent unframed.
  static constexpr uint32_t kUntaggedConn = 0;
  void OpenUntaggedConnection();
  // Appends the connection slot with the next id.
  Conn& AppendConn();
  // The open connection `id`, or nullptr.
  Conn* FindConn(uint32_t id) {
    return id < conns_.size() && conns_[id].open ? &conns_[id] : nullptr;
  }
  const Conn* FindConn(uint32_t id) const {
    return id < conns_.size() && conns_[id].open ? &conns_[id] : nullptr;
  }
  void Enqueue(uint32_t conn_id, uint32_t xid, std::vector<uint8_t> request,
               Completion done);

  // Effective flow-control window for one connection.
  uint32_t WindowFor(const Conn& c) const {
    return policy_.retry.adaptive.enabled ? c.cwnd.window()
                                          : policy_.per_conn_window;
  }

  static uint64_t Key(uint32_t conn, uint32_t xid) {
    return (static_cast<uint64_t>(conn) << 32) | xid;
  }

  template <typename F>
  EventQueue::EventId Schedule(uint64_t at_nanos, F fn) {
    return ScheduleInScope(events_, at_nanos, &stats_.events, std::move(fn));
  }
  void StartNext(uint32_t conn_id);
  // Moves a call into flight on `c` (which has window room) and sends it.
  void Launch(uint32_t conn_id, Conn& c, PendingCall next);
  void TransmitCall(InFlight& f);
  void OnRto(uint64_t key);
  void DrainReplies();
  void Complete(uint64_t key, Status status, std::vector<uint8_t> reply);

  DatagramChannel* channel_;
  MuxPolicy policy_;
  EventQueue* events_;
  Rng jitter_;
  std::function<void()> request_listener_;
  PipelineObserver* observer_ = nullptr;

  // Indexed by connection id. A deque, so opening a connection (a
  // completion may) never moves an existing Conn.
  std::deque<Conn> conns_;
  size_t open_conns_ = 0;
  std::unordered_map<uint64_t, InFlight> in_flight_;  // by Key(conn, xid)
  size_t outstanding_ = 0;  // submitted, not yet completed or cancelled

  Stats stats_;
  DeliveryPoll reply_poll_;
};

// Reads the second big-endian word of a mux-framed datagram — the
// connection id slot. kDataLoss when the datagram is too short.
Result<uint32_t> PeekMuxConn(ByteSpan datagram);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_MUX_H_
