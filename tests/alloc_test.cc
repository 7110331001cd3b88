// Allocation regression tests for the simulator's hot path. A counting
// global operator new (this binary only) pins how often the event queue,
// the datagram channel, and one serial call touch the heap once warm, so
// a change that reintroduces per-event or per-frame churn fails here
// instead of showing up later as a slower benchmark.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/mux.h"
#include "src/rpc/pipeline.h"
#include "src/support/event_queue.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

// Out of line, so the compiler never pairs a std::allocator `new` it can
// see with the `free` inside these replacements.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace flexrpc {
namespace {

// Heap allocations since construction.
class NewCount {
 public:
  NewCount() : start_(g_news.load(std::memory_order_relaxed)) {}
  uint64_t value() const {
    return g_news.load(std::memory_order_relaxed) - start_;
  }

 private:
  uint64_t start_;
};

constexpr auto kAtoB = DatagramChannel::Dir::kAtoB;

TEST(AllocTest, InlineEventScheduleAndRunAllocateNothing) {
  VirtualClock clock;
  EventQueue q(&clock);
  uint64_t sum = 0;
  uint64_t dispatches = 0;
  // Warm-up sizes the slot vector and the heap.
  for (uint64_t i = 0; i < 64; ++i) {
    q.ScheduleAt(i, [&sum, i] { sum += i; });
  }
  q.RunUntilIdle();

  // The engine's largest capture: a reply-send lambda (owner pointer +
  // reply vector) inside ScheduleInScope's scope wrapper. The vectors are
  // built before counting; moving them into the event must not allocate.
  std::vector<std::vector<uint8_t>> replies(100, std::vector<uint8_t>(64));
  NewCount count;
  for (uint64_t i = 0; i < 100; ++i) {
    uint64_t a = i;
    uint64_t b = i * 3;
    uint64_t c = i * 5;
    q.ScheduleAt(clock.now_nanos() + 1,
                 [&sum, a, b, c] { sum += a + b + c; });
    ScheduleInScope(&q, clock.now_nanos() + 2, &dispatches,
                    [&sum, reply = std::move(replies[i])] {
                      sum += reply.size();
                    });
    EXPECT_EQ(q.RunUntilIdle(), 2u);
  }
  EXPECT_EQ(count.value(), 0u);
  EXPECT_EQ(dispatches, 100u);
  EXPECT_GT(sum, 0u);
}

TEST(AllocTest, SendAllocatesOncePerFrameAndReceiveNever) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  const std::vector<uint8_t> payload(512, 0xA5);
  // Warm-up: grows the direction's frame ring to the depth used below.
  for (int i = 0; i < 8; ++i) {
    ch.Send(kAtoB, payload);
  }
  while (ch.HasPending(kAtoB)) {
    ASSERT_TRUE(ch.Receive(kAtoB).ok());
  }

  for (int round = 0; round < 50; ++round) {
    NewCount sends;
    for (int i = 0; i < 4; ++i) {
      ch.Send(kAtoB, payload);
    }
    EXPECT_EQ(sends.value(), 4u) << "round " << round;
    for (int i = 0; i < 4; ++i) {
      NewCount receive;
      auto got = ch.Receive(kAtoB);
      EXPECT_EQ(receive.value(), 0u) << "round " << round;
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, payload);
    }
  }
}

// Window-1 calls on a clean wire, after warm-up (reply cache full, so
// each insert evicts). The pin counts, per call:
//   request copy into the engine, in-flight table node, request frame,
//   handler reply, reply-cache list + map nodes, the reply captured by
//   the send event, reply frame.
constexpr uint64_t kAllocsPerSerialCall = 8;

TEST(AllocTest, SerialPipelinedCallAllocationsArePinned) {
  VirtualClock clock;
  EventQueue events(&clock);
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  PipelinePolicy policy;
  policy.window = 1;
  PipelinedTransport transport(
      &channel,
      [](ByteSpan request, std::vector<uint8_t>* reply) {
        reply->assign(request.begin(), request.end());
        return Status::Ok();
      },
      RemoteServerModel(), policy, &events);
  std::vector<uint8_t> request(64, 0);
  std::vector<uint8_t> reply;
  reply.reserve(request.size());
  auto call = [&](uint32_t xid) {
    request[0] = static_cast<uint8_t>(xid >> 24);
    request[1] = static_cast<uint8_t>(xid >> 16);
    request[2] = static_cast<uint8_t>(xid >> 8);
    request[3] = static_cast<uint8_t>(xid);
    return transport.Call(xid, request, &reply);
  };
  uint32_t xid = 1;
  for (; xid <= 300; ++xid) {  // past the 256-entry reply cache
    ASSERT_TRUE(call(xid).ok());
  }
  for (int i = 0; i < 20; ++i, ++xid) {
    NewCount count;
    ASSERT_TRUE(call(xid).ok());
    EXPECT_EQ(count.value(), kAllocsPerSerialCall) << "xid " << xid;
  }
  EXPECT_EQ(transport.stats().retransmits, 0u);
}

}  // namespace
}  // namespace flexrpc
