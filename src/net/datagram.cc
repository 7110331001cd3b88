#include "src/net/datagram.h"

#include <algorithm>

#include "src/net/crc32c.h"
#include "src/support/recorder.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr uint32_t kFrameMagic = 0x46444D31;  // "FDM1"

uint32_t LoadU32Be(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

void StoreU32Be(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

// The payload is a SunRPC message whose first word is the xid, so the
// channel can attribute wire and fault events to a call without the
// transport plumbing identity down. Returns 0 (unattributed) for payloads
// too short to carry one.
uint32_t PeekPayloadXid(const std::vector<uint8_t>& payload) {
  return payload.size() < 4 ? 0 : LoadU32Be(payload.data());
}

// Under the mux wire format the payload's second word is the connection
// id ([xid][conn][body]); 0 for payloads too short to carry one.
uint32_t PeekPayloadConn(const std::vector<uint8_t>& payload) {
  return payload.size() < 8 ? 0 : LoadU32Be(payload.data() + 4);
}

RecEndpoint WireEndpoint(DatagramChannel::Dir dir) {
  return dir == DatagramChannel::Dir::kAtoB ? RecEndpoint::kWireAtoB
                                            : RecEndpoint::kWireBtoA;
}
}  // namespace

uint32_t DatagramChecksum(ByteSpan payload) {
  static const bool hardware = crc32c_internal::Crc32cHardwareSupported();
  return hardware ? crc32c_internal::Crc32cHardware(payload)
                  : crc32c_internal::Crc32cPortable(payload);
}

DatagramChannel::DatagramChannel(LinkModel link, FaultPlan plan_a_to_b,
                                 FaultPlan plan_b_to_a, VirtualClock* clock)
    : link_(link), clock_(clock) {
  plans_[0] = std::move(plan_a_to_b);
  plans_[1] = std::move(plan_b_to_a);
}

void DatagramChannel::FrameQueue::GrowIfFull() {
  if (size_ < ring_.size()) {
    return;
  }
  std::vector<Frame> bigger(std::max<size_t>(8, ring_.size() * 2));
  for (size_t i = 0; i < size_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & mask()]);
  }
  ring_.swap(bigger);
  head_ = 0;
}

void DatagramChannel::FrameQueue::push_back(Frame frame) {
  GrowIfFull();
  ring_[(head_ + size_) & mask()] = std::move(frame);
  ++size_;
}

void DatagramChannel::FrameQueue::push_front(Frame frame) {
  GrowIfFull();
  head_ = (head_ + mask()) & mask();
  ring_[head_] = std::move(frame);
  ++size_;
}

DatagramChannel::Frame DatagramChannel::FrameQueue::pop_front() {
  Frame frame = std::move(ring_[head_]);
  head_ = (head_ + 1) & mask();
  --size_;
  return frame;
}

void DatagramChannel::Transmit(Dir dir, Frame frame,
                               const FaultPlan::Decision& d) {
  const uint32_t rec_xid =
      RecorderEnabled() ? PeekPayloadXid(frame.payload) : 0;
  const RecEndpoint rec_ep = WireEndpoint(dir);
  const size_t wire_size = frame.wire_size();
  uint64_t deliver_at = 0;
  if (scheduled_) {
    // The frame occupies the wire from when the medium frees up; latency
    // and extra delay pipeline on top and only push out the delivery time.
    link_.CountTransfer(wire_size);
    uint64_t& wire_free = wire_free_nanos_[static_cast<size_t>(dir)];
    uint64_t start = std::max(clock_->now_nanos(), wire_free);
    wire_free = start + link_.OccupancyNanos(wire_size);
    deliver_at =
        wire_free + link_.LatencyNanos(wire_size) + d.extra_delay_nanos;
    RecordEvent(RecEvent::kWireTx, rec_ep, rec_xid, start,
                /*a=*/wire_free - start, /*b=*/deliver_at - wire_free);
  } else {
    // Lockstep: the frame occupies the wire whether or not it arrives,
    // charged to the shared clock right now.
    RecordEvent(RecEvent::kWireTx, rec_ep, rec_xid, clock_->now_nanos(),
                /*a=*/link_.OccupancyNanos(wire_size),
                /*b=*/link_.LatencyNanos(wire_size));
    link_.Transfer(wire_size, clock_);
  }
  if (d.extra_delay_nanos > 0) {
    RecordEvent(RecEvent::kFaultDelay, rec_ep, rec_xid, clock_->now_nanos(),
                /*a=*/d.extra_delay_nanos, /*b=*/d.index);
  }
  if (d.drop) {
    ++stats_.dropped;
    TraceAdd(TraceCounter::kNetFaultDrops);
    RecordEvent(RecEvent::kFaultDrop, rec_ep, rec_xid, clock_->now_nanos(),
                /*a=*/0, /*b=*/d.index);
    return;
  }
  frame.extra_delay_nanos = scheduled_ ? 0 : d.extra_delay_nanos;
  frame.deliver_at_nanos = deliver_at;
  if (d.extra_delay_nanos > 0) {
    TraceAdd(TraceCounter::kNetFaultExtraDelayNanos, d.extra_delay_nanos);
  }
  if (d.corrupt) {
    // Flip one byte at wire offset [8, wire_size) — the length/checksum
    // header words or the payload; the receiver's length or checksum
    // validation detects it. (The magic and sequence words are skipped:
    // they are not covered by the checksum, and an undetectably corrupted
    // frame would break fault accounting.)
    size_t pos = 8 + d.corrupt_salt % (wire_size - 8);
    uint8_t& victim = pos < kHeaderSize ? frame.header[pos]
                                        : frame.payload[pos - kHeaderSize];
    victim ^= 0xFF;
    ++stats_.corrupted;
    TraceAdd(TraceCounter::kNetFaultCorrupts);
    RecordEvent(RecEvent::kFaultCorrupt, rec_ep, rec_xid,
                clock_->now_nanos(), /*a=*/0, /*b=*/d.index);
  }
  auto& queue = queues_[static_cast<size_t>(dir)];
  if (d.reorder && !queue.empty()) {
    queue.push_front(std::move(frame));  // overtakes everything in flight
    ++stats_.reordered;
    TraceAdd(TraceCounter::kNetFaultReorders);
  } else {
    queue.push_back(std::move(frame));
  }
}

void DatagramChannel::Send(Dir dir, ByteSpan payload) {
  ++stats_.sent;
  TraceAdd(TraceCounter::kNetDatagramsSent);
  Frame frame;
  StoreU32Be(&frame.header[0], kFrameMagic);
  StoreU32Be(&frame.header[4], next_seq_[static_cast<size_t>(dir)]++);
  StoreU32Be(&frame.header[8], static_cast<uint32_t>(payload.size()));
  StoreU32Be(&frame.header[12], DatagramChecksum(payload));
  // The payload's one copy: into an exact-size buffer the frame owns until
  // Receive hands it over (net.frame_copies counts any further copy; only
  // duplicated frames need one).
  frame.payload.assign(payload.begin(), payload.end());

  FaultPlan::Decision d = plans_[static_cast<size_t>(dir)].Next();
  if (d.duplicate) {
    ++stats_.duplicated;
    TraceAdd(TraceCounter::kNetFaultDups);
    TraceAdd(TraceCounter::kNetFrameCopies);
    RecordEvent(RecEvent::kFaultDup, WireEndpoint(dir),
                RecorderEnabled() ? PeekPayloadXid(frame.payload) : 0,
                clock_->now_nanos(), /*a=*/0, /*b=*/d.index);
    // The duplicate travels as its own physical frame with no further
    // faults of its own (the plan decided this packet, not the copy).
    Transmit(dir, frame, FaultPlan::Decision{});
  }
  Transmit(dir, std::move(frame), d);
}

bool DatagramChannel::HasPending(Dir dir) const {
  const auto& queue = queues_[static_cast<size_t>(dir)];
  if (queue.empty()) {
    return false;
  }
  return !scheduled_ ||
         queue.front().deliver_at_nanos <= clock_->now_nanos();
}

std::optional<uint64_t> DatagramChannel::NextDeliveryNanos(Dir dir) const {
  const auto& queue = queues_[static_cast<size_t>(dir)];
  if (queue.empty()) {
    return std::nullopt;
  }
  return queue.front().deliver_at_nanos;
}

Result<std::vector<uint8_t>> DatagramChannel::Receive(Dir dir) {
  auto& queue = queues_[static_cast<size_t>(dir)];
  if (queue.empty()) {
    return FailedPreconditionError("no datagram pending");
  }
  if (scheduled_ && queue.front().deliver_at_nanos > clock_->now_nanos()) {
    return FailedPreconditionError("next datagram is still in flight");
  }
  Frame frame = queue.pop_front();
  if (frame.extra_delay_nanos > 0) {
    clock_->AdvanceNanos(frame.extra_delay_nanos);
  }
  auto fail = [&](const char* why) -> Result<std::vector<uint8_t>> {
    ++stats_.checksum_failures;
    TraceAdd(TraceCounter::kNetChecksumFailures);
    return DataLossError(why);
  };
  if (LoadU32Be(&frame.header[0]) != kFrameMagic) {
    return fail("datagram frame has bad magic");
  }
  if (LoadU32Be(&frame.header[8]) != frame.payload.size()) {
    return fail("datagram frame has bad length");
  }
  if (DatagramChecksum(ByteSpan(frame.payload.data(),
                                frame.payload.size())) !=
      LoadU32Be(&frame.header[12])) {
    return fail("datagram checksum mismatch");
  }
  ++stats_.delivered;
  TraceAdd(TraceCounter::kNetDatagramsDelivered);
  // Receive runs before the caller has parsed the frame, so no
  // RecorderConnScope encloses it; in conn-tagged mode the channel reads
  // the connection id out of the payload itself.
  if (RecorderEnabled()) {
    std::optional<RecorderConnScope> conn_scope;
    if (conn_tagging_) {
      conn_scope.emplace(PeekPayloadConn(frame.payload));
    }
    RecordEvent(RecEvent::kWireRx, WireEndpoint(dir),
                PeekPayloadXid(frame.payload), clock_->now_nanos(),
                /*a=*/frame.payload.size());
  }
  return std::move(frame.payload);
}

}  // namespace flexrpc
