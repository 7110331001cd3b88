// Unit tests for flextrace: counter/histogram semantics, the
// enabled/disabled gate, session windowing, JSON serialization (golden),
// and concurrent counting.

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <thread>

#include "src/support/json.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

// Every test owns the global registry for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(false);
    ResetTrace();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    ResetTrace();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndAddsAreDropped) {
  EXPECT_FALSE(TraceEnabled());
  TraceAdd(TraceCounter::kKernelTraps);
  TraceAdd(TraceCounter::kDataCopyBytes, 4096);
  TraceObserve(TraceHistogram::kIpcMessageBytes, 64);
  TraceSnapshot snap = CaptureTrace();
  EXPECT_EQ(snap.counter(TraceCounter::kKernelTraps), 0u);
  EXPECT_EQ(snap.counter(TraceCounter::kDataCopyBytes), 0u);
  EXPECT_EQ(snap.histogram(TraceHistogram::kIpcMessageBytes).count, 0u);
}

TEST_F(TraceTest, EnabledCountsAndDeltas) {
  SetTraceEnabled(true);
  TraceAdd(TraceCounter::kKernelTraps);
  TraceAdd(TraceCounter::kKernelTraps);
  TraceAdd(TraceCounter::kDataCopyBytes, 100);
  TraceSnapshot a = CaptureTrace();
  EXPECT_EQ(a.counter(TraceCounter::kKernelTraps), 2u);
  TraceAdd(TraceCounter::kKernelTraps);
  TraceSnapshot delta = TraceDelta(a, CaptureTrace());
  EXPECT_EQ(delta.counter(TraceCounter::kKernelTraps), 1u);
  EXPECT_EQ(delta.counter(TraceCounter::kDataCopyBytes), 0u);
}

TEST_F(TraceTest, HistogramBucketsArePowersOfTwo) {
  SetTraceEnabled(true);
  // Bucket 0 holds zeros; bucket i holds 2^(i-1) <= v < 2^i.
  TraceObserve(TraceHistogram::kIpcMessageBytes, 0);    // bucket 0
  TraceObserve(TraceHistogram::kIpcMessageBytes, 1);    // bucket 1
  TraceObserve(TraceHistogram::kIpcMessageBytes, 2);    // bucket 2
  TraceObserve(TraceHistogram::kIpcMessageBytes, 3);    // bucket 2
  TraceObserve(TraceHistogram::kIpcMessageBytes, 4);    // bucket 3
  TraceObserve(TraceHistogram::kIpcMessageBytes, 255);  // bucket 8
  TraceObserve(TraceHistogram::kIpcMessageBytes, 256);  // bucket 9
  TraceSnapshot snap = CaptureTrace();
  const auto& h = snap.histogram(TraceHistogram::kIpcMessageBytes);
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 255 + 256);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[8], 1u);
  EXPECT_EQ(h.buckets[9], 1u);
}

TEST_F(TraceTest, HistogramSaturatesIntoLastBucket) {
  SetTraceEnabled(true);
  TraceObserve(TraceHistogram::kIpcMessageBytes, ~0ull);
  TraceSnapshot snap = CaptureTrace();
  const auto& h = snap.histogram(TraceHistogram::kIpcMessageBytes);
  EXPECT_EQ(h.buckets[kTraceHistogramBuckets - 1], 1u);
}

TEST_F(TraceTest, NamesMatchEnumOrder) {
  EXPECT_EQ(TraceCounterName(TraceCounter::kKernelTraps), "kernel.traps");
  EXPECT_EQ(TraceCounterName(TraceCounter::kNetWireVirtualNanos),
            "net.wire_virtual_nanos");
  EXPECT_EQ(TraceHistogramName(TraceHistogram::kRpcMarshalNanos),
            "rpc.marshal_nanos");
  EXPECT_EQ(TraceHistogramName(TraceHistogram::kNetTransferVirtualNanos),
            "net.transfer_virtual_nanos");
}

// Drift guard over the whole catalog via the public name API: every
// enum value must map to a non-empty, unique, dot-separated name. (The
// compile-time static_asserts in trace.cc enforce the same property on
// the tables directly; this keeps the public accessors honest.)
TEST_F(TraceTest, EveryCatalogNameIsNonEmptyAndUnique) {
  std::set<std::string_view> counter_names;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    std::string_view name = TraceCounterName(static_cast<TraceCounter>(i));
    EXPECT_FALSE(name.empty()) << "counter " << i << " has no name";
    EXPECT_TRUE(counter_names.insert(name).second)
        << "duplicate counter name " << name;
  }
  EXPECT_EQ(counter_names.size(), kTraceCounterCount);
  std::set<std::string_view> histogram_names;
  for (size_t i = 0; i < kTraceHistogramCount; ++i) {
    std::string_view name =
        TraceHistogramName(static_cast<TraceHistogram>(i));
    EXPECT_FALSE(name.empty()) << "histogram " << i << " has no name";
    EXPECT_TRUE(histogram_names.insert(name).second)
        << "duplicate histogram name " << name;
    // Histogram-count budget keys append ".count" to the histogram name;
    // a histogram name that already collides with a counter name would
    // make the budget keyspace ambiguous.
    EXPECT_EQ(counter_names.count(name), 0u)
        << "histogram name shadows a counter: " << name;
  }
  EXPECT_EQ(histogram_names.size(), kTraceHistogramCount);
}

TEST_F(TraceTest, SessionEnablesAndRestores) {
  EXPECT_FALSE(TraceEnabled());
  {
    TraceSession session;
    EXPECT_TRUE(TraceEnabled());
    TraceAdd(TraceCounter::kRpcBinds);
    EXPECT_EQ(session.Report().counter(TraceCounter::kRpcBinds), 1u);
    session.Rebase();
    EXPECT_EQ(session.Report().counter(TraceCounter::kRpcBinds), 0u);
  }
  EXPECT_FALSE(TraceEnabled());
}

TEST_F(TraceTest, SessionBaselineExcludesPriorWork) {
  SetTraceEnabled(true);
  TraceAdd(TraceCounter::kRpcBinds, 7);
  TraceSession session;
  TraceAdd(TraceCounter::kRpcBinds);
  EXPECT_EQ(session.Report().counter(TraceCounter::kRpcBinds), 1u);
}

TEST_F(TraceTest, SpanFeedsHistogramOnlyWhenEnabled) {
  {
    TraceSpan span(TraceHistogram::kRpcDispatchNanos);
  }
  TraceSnapshot off = CaptureTrace();
  EXPECT_EQ(off.histogram(TraceHistogram::kRpcDispatchNanos).count, 0u);
  SetTraceEnabled(true);
  {
    TraceSpan span(TraceHistogram::kRpcDispatchNanos);
  }
  TraceSnapshot on = CaptureTrace();
  EXPECT_EQ(on.histogram(TraceHistogram::kRpcDispatchNanos).count, 1u);
}

// Golden serialization of a small, fully-controlled snapshot. The shape
// (every counter present incl. zeros, zero-count histograms elided,
// sparse [bucket, count] pairs) is what `flexrpc_report check` and the
// bench artifacts rely on.
TEST_F(TraceTest, JsonGolden) {
  SetTraceEnabled(true);
  TraceSnapshot base = CaptureTrace();
  TraceAdd(TraceCounter::kKernelTraps, 3);
  TraceObserve(TraceHistogram::kIpcMessageBytes, 0);
  TraceObserve(TraceHistogram::kIpcMessageBytes, 5);
  std::string json = TraceSnapshotToJson(TraceDelta(base, CaptureTrace()));

  // Spot-check the golden fragments rather than all ~50 zero lines.
  EXPECT_NE(json.find("\"kernel.traps\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"mem.copies\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"ipc.message_bytes\""), std::string::npos);
  // Zero-count histograms are elided entirely.
  EXPECT_EQ(json.find("\"rpc.marshal_nanos\""), std::string::npos);

  // And it round-trips through the in-repo parser.
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->object.size(), kTraceCounterCount);
  const JsonValue* traps = counters->Find("kernel.traps");
  ASSERT_NE(traps, nullptr);
  EXPECT_EQ(traps->number, 3.0);
  const JsonValue* hist =
      parsed->Find("histograms")->Find("ipc.message_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number, 2.0);
  EXPECT_EQ(hist->Find("sum")->number, 5.0);
  // value 0 -> bucket 0, value 5 -> bucket 3; both with count 1.
  ASSERT_EQ(hist->Find("buckets")->array.size(), 2u);
  EXPECT_EQ(hist->Find("buckets")->array[0].array[0].number, 0.0);
  EXPECT_EQ(hist->Find("buckets")->array[1].array[0].number, 3.0);
}

TEST_F(TraceTest, ConcurrentAddsAreNotLost) {
  SetTraceEnabled(true);
  constexpr int kPerThread = 100000;
  auto work = [] {
    for (int i = 0; i < kPerThread; ++i) {
      TraceAdd(TraceCounter::kDataCopies);
      TraceObserve(TraceHistogram::kIpcMessageBytes,
                   static_cast<uint64_t>(i));
    }
  };
  std::thread t1(work);
  std::thread t2(work);
  t1.join();
  t2.join();
  TraceSnapshot snap = CaptureTrace();
  EXPECT_EQ(snap.counter(TraceCounter::kDataCopies), 2u * kPerThread);
  EXPECT_EQ(snap.histogram(TraceHistogram::kIpcMessageBytes).count,
            2u * kPerThread);
}

}  // namespace
}  // namespace flexrpc
