// PipelinedTransport — sliding-window at-most-once SunRPC over one channel.
//
// A small composition of the two halves every lossy-wire call runs on:
//
//   client  one untagged ConnectionMux connection (src/rpc/mux.h): each
//           call is the caller's own SunRPC datagram with the caller's
//           xid, sent unframed; up to `window` calls are in flight, each
//           with its own attempt budget, RTO timer and deadline, and
//           replies are matched by xid, so they may complete out of
//           order. A window of one is serial stop-and-wait RPC.
//   server  one ServerDispatch (src/rpc/dispatch.h) with a single worker,
//           unbounded accept and run queues, and a 256-entry reply cache:
//           duplicate suppression and exactly-once execution hold no
//           matter how the window interleaves retransmits, and executions
//           serialize on the worker's busy-until horizon.
//
// Time is discrete-event: the channel runs in scheduled-delivery mode
// (frames carry delivery timestamps; wire occupancy serializes per
// direction, latency pipelines). Neither half advances the clock itself —
// they only schedule callbacks, and EventQueue::RunNext moves the clock to
// the next deadline. Throughput is therefore bounded by the busiest
// resource (a wire direction or the server CPU) instead of the sum of all
// three, which is exactly the speedup the window buys.
//
// A corrupt reply cannot be read, but with one connection it is
// attributable: it is treated as a drop (the RTO covers it) and, in
// adaptive mode, feeds the same AIMD OnLoss path an RTO fire does
// (DESIGN.md §11).

#ifndef FLEXRPC_SRC_RPC_PIPELINE_H_
#define FLEXRPC_SRC_RPC_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/link.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/mux.h"
#include "src/rpc/retry.h"
#include "src/rpc/rtt.h"
#include "src/support/event_queue.h"
#include "src/support/status.h"

namespace flexrpc {

struct PipelinePolicy {
  RetryPolicy retry;   // per-call budget, RTO, deadline, jitter — and the
                       // adaptive A/B switch (retry.adaptive): when
                       // enabled, the per-call RTO comes from a shared
                       // Jacobson/Karels estimator and the window below is
                       // replaced by an AIMD controller clamped to
                       // [retry.adaptive.window.min_window, .max_window]
  uint32_t window = 8; // fixed mode: max calls in flight; 0 clamped to 1
};

class PipelinedTransport {
 public:
  // Invoked exactly once per submitted call, from inside Drive. On OK the
  // reply datagram is passed (xid still in front); on failure the vector
  // is empty and the status is kUnavailable (attempt budget spent) or
  // kDeadlineExceeded (virtual deadline passed, including a reply that
  // lands after it).
  using Completion = ConnectionMux::Completion;

  struct Stats {
    uint64_t calls = 0;
    uint64_t retransmits = 0;
    uint64_t stale_replies = 0;
    uint64_t corrupt_replies = 0;
    uint64_t dup_cache_hits = 0;
    uint64_t dup_cache_misses = 0;     // == server work executions
    uint64_t deadline_expiries = 0;
    uint64_t unavailable_failures = 0;
    uint64_t window_stalls = 0;        // submissions that had to queue
    uint64_t max_in_flight = 0;
    uint64_t events = 0;               // event-queue dispatches
    uint64_t rtt_samples = 0;          // clean samples fed the estimator
    uint64_t karn_skips = 0;           // ambiguous replies excluded
    uint64_t cwnd_increases = 0;       // additive window growth steps
    uint64_t cwnd_decreases = 0;       // multiplicative halvings
  };

  // Switches `channel` into scheduled-delivery mode. `events` must run on
  // the same VirtualClock as the channel. All referenced objects must
  // outlive the transport.
  PipelinedTransport(DatagramChannel* channel, DatagramHandler handler,
                     RemoteServerModel server_model, PipelinePolicy policy,
                     EventQueue* events);

  // Queues one call. `xid` must be the first (big-endian) word of
  // `request` — the SunRPC layout — and unique among outstanding calls;
  // reply matching and duplicate suppression key on it. Starts
  // transmitting immediately if a window slot is free; otherwise waits for
  // one (counted as a window stall). `done` runs during a later Drive.
  void Submit(uint32_t xid, ByteSpan request, Completion done);

  // Runs the event queue until every submitted call has completed.
  // Returns non-OK only if the machine stalls (calls outstanding with no
  // scheduled event) — a bug, not a degradation.
  Status Drive() { return mux_.Drive(); }

  // Convenience: Submit one call and Drive to completion (also drains any
  // other outstanding calls). Returns that call's status.
  Status Call(uint32_t xid, ByteSpan request, std::vector<uint8_t>* reply);

  // Withdraws a submitted call without completing it: the RTO timer is
  // cancelled, the window slot freed, and the completion never invoked.
  // A reply already in flight for the xid arrives as a stale reply. Used
  // by the binder's live cutover to re-issue an in-flight xid on another
  // replica. Returns false when the xid is not pending or in flight.
  bool Cancel(uint32_t xid);

  // Health-evidence tap (see PipelineObserver). Null disables the tap.
  void set_observer(PipelineObserver* observer) {
    mux_.set_observer(observer);
  }

  // Replica identity for flight-recorder attribution: every event this
  // transport (and the channel/server work it drives) records carries the
  // tag, giving each replica its own tracks in the Chrome export. 0 (the
  // default) means unreplicated. Tags are 1-based (ReplicaGroup assigns
  // index + 1).
  void set_replica_tag(uint32_t tag) { replica_tag_ = tag; }

  // Client and server counters, combined.
  Stats stats() const;
  VirtualClock* clock() { return clock_; }

  // Adaptive-mode introspection (meaningful when retry.adaptive.enabled).
  const RttEstimator& rtt() const { return *mux_.conn_rtt(kConn); }
  const AimdController& cwnd() const { return *mux_.conn_cwnd(kConn); }
  // The admission limit in force right now: the AIMD window in adaptive
  // mode, the fixed policy window otherwise.
  uint32_t current_window() const { return mux_.conn_window(kConn); }

 private:
  static constexpr uint32_t kConn = ConnectionMux::kUntaggedConn;

  VirtualClock* clock_;
  ConnectionMux mux_;
  ServerDispatch dispatch_;
  uint32_t replica_tag_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_PIPELINE_H_
