// flexwatch — virtual-clock time-series telemetry, the third leg of the
// observability stack next to flextrace (end-of-run aggregate counters)
// and flexrec (per-call event rings).
//
// flextrace answers "how much work did the whole run do"; flexrec answers
// "what happened to call #N". Neither answers "when did queueing begin,
// which connection saturated first, and how did shed rate and queue depth
// co-evolve". flexwatch does: a TimelineSampler rides the same EventQueue
// that drives the simulation and, every `tick_nanos` of *virtual* time,
// closes a window — snapshotting deltas of registered cumulative counters
// and instantaneous gauge reads — while dimensioned observations
// (per-connection call latency, per-worker execution time, per-replica
// latency, queue depth) stream into per-(series, dim, window) quantile
// sketches.
//
// Design constraints, in order (the same three as flextrace):
//   1. Zero overhead when no sampler is installed: WatchObserve is one
//      relaxed pointer load and a predictable branch.
//   2. Deterministic. Every timestamp, window index, and sketch bucket is
//      derived from the VirtualClock, and the sampler's tick events touch
//      no simulation state — they only *read* registered sources — so a
//      run with a sampler installed replays the exact same event order as
//      one without, and two same-seed runs serialize to byte-identical
//      TIMELINE_*.json artifacts (gated in fleet_soak_test). No floats
//      are ever serialized.
//   3. Bounded. The tick reschedules itself only while other events are
//      pending, so a sampler never keeps an event loop alive: when the
//      tick pops with an empty queue it stops, and Stop() flushes the
//      final partial window. (Corollary: ticks do not resume if new work
//      is scheduled after the queue has gone idle — the simulations here
//      schedule all arrivals up front, so quiescence is terminal.)
//
// The sketch is fixed-bucket log-linear (HDR-style): 16 linear sub-buckets
// per power of two, values below 32 exact, giving a guaranteed relative
// error of at most 1/16 on any quantile while staying integer-only and
// mergeable (merge = bucket-wise add, associative and commutative).

#ifndef FLEXRPC_SRC_SUPPORT_TIMELINE_H_
#define FLEXRPC_SRC_SUPPORT_TIMELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/event_queue.h"
#include "src/support/status.h"
#include "src/support/trace.h"

namespace flexrpc {

// Mergeable log-linear histogram with deterministic integer buckets.
// Values 0..31 land in exact buckets; larger values keep their top five
// significant bits (16 sub-buckets per power of two), so any reported
// quantile is the true bucket's inclusive upper bound and overshoots the
// exact percentile by at most a factor of 1/16.
class QuantileSketch {
 public:
  // Bucket index for a value (dense, monotonic in the value).
  static uint32_t BucketOf(uint64_t value);
  // Inclusive [low, high] value range covered by a bucket.
  static uint64_t BucketLowValue(uint32_t bucket);
  static uint64_t BucketHighValue(uint32_t bucket);

  void Record(uint64_t value);
  // Bucket-wise sum; associative and commutative.
  void Merge(const QuantileSketch& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  bool empty() const { return count_ == 0; }

  // Upper bound of the bucket holding the rank-ceil(q * count) sample
  // (q clamped to [0, 1]; 0 on an empty sketch). Exact min/max are
  // substituted at the extremes so Quantile(0) == min() and
  // Quantile(1) == max().
  uint64_t Quantile(double q) const;

  // Sparse (bucket -> count) cells in ascending bucket order — the
  // serialized form and the deterministic iteration order.
  const std::map<uint32_t, uint64_t>& buckets() const { return buckets_; }

  // Reassembles a sketch from its serialized parts (ParseTimeline).
  static QuantileSketch FromParts(uint64_t count, uint64_t sum, uint64_t min,
                                  uint64_t max,
                                  std::map<uint32_t, uint64_t> buckets);

 private:
  std::map<uint32_t, uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// The closed catalog of dimensioned observation series. Names are stable:
// TIMELINE_*.json artifacts, the timeline budget gate, and EXPERIMENTS.md
// refer to them. Append at the end; never renumber.
enum class WatchSeries : uint16_t {
  kCallLatency = 0,  // call_latency_nanos  (dim: mux connection id; 0 = none)
  kReplicaLatency,   // replica_latency_nanos (dim: replica tag, 1-based)
  kWorkerExec,       // worker_exec_nanos  (dim: dispatch worker, 1-based)
  kQueueDepth,       // queue_depth        (dim: 0)
  kCount,
};

std::string_view WatchSeriesName(WatchSeries series);
Result<WatchSeries> WatchSeriesFromName(std::string_view name);

// A finished timeline: per-window counter deltas, gauge samples, and the
// dimensioned sketches. `ticks` counts recorded windows, including the
// final partial window Stop() flushes when the run ends mid-window.
struct Timeline {
  uint64_t tick_nanos = 0;
  uint64_t start_nanos = 0;
  uint64_t end_nanos = 0;
  uint64_t ticks = 0;

  struct Series {
    std::string name;
    std::vector<uint64_t> samples;  // one per recorded window
  };
  std::vector<Series> counters;  // window deltas of cumulative sources
  std::vector<Series> gauges;    // instantaneous reads at window close

  struct SketchKey {
    uint16_t series = 0;  // WatchSeries
    uint32_t dim = 0;
    uint64_t window = 0;
    bool operator<(const SketchKey& o) const {
      if (series != o.series) return series < o.series;
      if (dim != o.dim) return dim < o.dim;
      return window < o.window;
    }
  };
  // std::map: iteration (and therefore serialization) order is the sorted
  // key order, independent of insertion order.
  std::map<SketchKey, QuantileSketch> sketches;
};

// Serializes a timeline as the `flexrpc-timeline-v1` artifact. Integer
// fields only; two identical timelines produce byte-identical text.
std::string TimelineToJson(const Timeline& timeline);

// Parses a serialized timeline back (`flexrpc_report timeline` and the
// timeline budget gate). Rejects what the writer never emits: integers
// that are negative, fractional, above 2^53, or above UINT32_MAX for dim
// and bucket fields; a series whose sample count is not `ticks`; a sketch
// window at or past `ticks`; a bucket index no value maps to.
Result<Timeline> ParseTimeline(std::string_view json);

class TimelineSampler;

namespace watch_internal {
// The installed sampler, if any. Relaxed atomics keep the disabled path
// to a single load under TSan; the sampler itself is only touched from
// the (single-threaded) simulation that owns its EventQueue.
extern std::atomic<TimelineSampler*> g_sampler;
}  // namespace watch_internal

// Routes a dimensioned observation into the active sampler's current
// window. One relaxed load and a branch when no sampler is installed —
// safe on any hot path, mirroring TraceAdd. (Defined inline below the
// sampler class.)
inline void WatchObserve(WatchSeries series, uint32_t dim, uint64_t value);

// Periodic sampler over an EventQueue's virtual clock. Register sources,
// Start() before driving the queue, Stop() after it drains.
class TimelineSampler {
 public:
  // `events` must outlive the sampler; `tick_nanos` must be non-zero.
  TimelineSampler(EventQueue* events, uint64_t tick_nanos);
  ~TimelineSampler();

  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  // A cumulative source: each window records read() - previous read().
  void AddCounter(std::string name, std::function<uint64_t()> read);
  // Registers a flextrace counter as a cumulative source under its stable
  // dot-separated name. Reads the live registry, so deltas are exact when
  // tracing is enabled and all-zero (still deterministic) when disabled.
  void AddTraceCounter(TraceCounter counter);
  // An instantaneous source: each window records read() at window close.
  void AddGauge(std::string name, std::function<uint64_t()> read);

  // Installs the sampler (aborts if another is already installed — same
  // nesting discipline as RecorderSession), snapshots counter baselines,
  // and schedules the first tick.
  void Start();

  // Flushes the final partial window, uninstalls, and returns the
  // finished timeline. Idempotent.
  Timeline Stop();

  // WatchObserve's target; callable directly in tests.
  void Observe(WatchSeries series, uint32_t dim, uint64_t value);

  bool running() const { return running_; }

 private:
  void OnTick();
  void ScheduleNextTick();
  void SampleWindow();

  struct CounterSource {
    std::function<uint64_t()> read;
    uint64_t prev = 0;
    size_t index = 0;  // into timeline_.counters
  };
  struct GaugeSource {
    std::function<uint64_t()> read;
    size_t index = 0;  // into timeline_.gauges
  };

  EventQueue* events_;
  uint64_t tick_nanos_;
  std::vector<CounterSource> counter_sources_;
  std::vector<GaugeSource> gauge_sources_;
  Timeline timeline_;
  bool running_ = false;
  bool tick_armed_ = false;
  EventQueue::EventId tick_event_ = EventQueue::kInvalidEvent;
  uint64_t sampled_through_nanos_ = 0;
};

inline void WatchObserve(WatchSeries series, uint32_t dim, uint64_t value) {
  TimelineSampler* sampler =
      watch_internal::g_sampler.load(std::memory_order_relaxed);
  if (sampler != nullptr) {
    sampler->Observe(series, dim, value);
  }
}

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_TIMELINE_H_
