#include "src/rpc/pipeline.h"

#include <cstddef>
#include <utility>

#include "src/support/recorder.h"

namespace flexrpc {

namespace {

MuxPolicy EnginePolicy(const PipelinePolicy& policy) {
  MuxPolicy mux;
  mux.retry = policy.retry;
  mux.per_conn_window = policy.window;
  return mux;
}

DispatchPolicy ServerPolicy(const RemoteServerModel& server_model) {
  DispatchPolicy dispatch;
  dispatch.workers = 1;
  dispatch.accept_limit = SIZE_MAX;
  dispatch.run_queue_limit = SIZE_MAX;
  dispatch.cache_capacity = 256;
  dispatch.service = server_model.config();
  return dispatch;
}

}  // namespace

PipelinedTransport::PipelinedTransport(DatagramChannel* channel,
                                       DatagramHandler handler,
                                       RemoteServerModel server_model,
                                       PipelinePolicy policy,
                                       EventQueue* events)
    : clock_(channel->clock()),
      mux_(channel, EnginePolicy(policy), events),
      dispatch_(channel, std::move(handler), ServerPolicy(server_model),
                events) {
  mux_.OpenUntaggedConnection();
  mux_.set_request_listener([this]() { dispatch_.Poke(); });
  dispatch_.set_reply_listener([this]() { mux_.Poke(); });
}

void PipelinedTransport::Submit(uint32_t xid, ByteSpan request,
                                Completion done) {
  RecorderReplicaScope replica_scope(replica_tag_);
  mux_.Enqueue(kConn, xid, std::vector<uint8_t>(request.begin(), request.end()),
               std::move(done));
}

bool PipelinedTransport::Cancel(uint32_t xid) {
  RecorderReplicaScope replica_scope(replica_tag_);
  return mux_.Cancel(kConn, xid);
}

PipelinedTransport::Stats PipelinedTransport::stats() const {
  const ConnectionMux::Stats& m = mux_.stats();
  const ServerDispatch::Stats& d = dispatch_.stats();
  Stats s;
  s.calls = m.calls;
  s.retransmits = m.retransmits;
  s.stale_replies = m.stale_replies;
  s.corrupt_replies = m.corrupt_replies;
  s.dup_cache_hits = d.dup_replies;
  s.dup_cache_misses = d.executions;
  s.deadline_expiries = m.deadline_expiries;
  s.unavailable_failures = m.unavailable_failures;
  s.window_stalls = m.flow_stalls;
  s.max_in_flight = m.max_in_flight;
  s.events = m.events + d.events;
  s.rtt_samples = m.rtt_samples;
  s.karn_skips = m.karn_skips;
  s.cwnd_increases = m.cwnd_increases;
  s.cwnd_decreases = m.cwnd_decreases;
  return s;
}

Status PipelinedTransport::Call(uint32_t xid, ByteSpan request,
                                std::vector<uint8_t>* reply) {
  Status result = Status::Ok();
  Submit(xid, request, [&result, reply](Status st,
                                        std::vector<uint8_t> r) {
    result = std::move(st);
    if (result.ok() && reply != nullptr) {
      *reply = std::move(r);
    }
  });
  Status driven = Drive();
  if (!driven.ok()) {
    return driven;
  }
  return result;
}

}  // namespace flexrpc
