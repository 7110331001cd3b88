// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary prints a paper-shaped table (the rows/series of the
// figure it reproduces) computed from real runs, and also registers
// google-benchmark cases for the underlying micro-operations so standard
// tooling (--benchmark_filter, JSON output) works too.
//
// BenchHarness is the single integration point for the machine-readable
// side: it owns the flag handling (--smoke, --json_dir=), the hoisted
// best-of-N-repetitions measurement loop every figure used to hand-roll,
// and the flextrace session whose work-counter deltas land in the
// BENCH_<name>.json artifact next to the reported figures.

#ifndef FLEXRPC_BENCH_BENCH_UTIL_H_
#define FLEXRPC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/support/timing.h"
#include "src/support/trace.h"

namespace flexrpc_bench {

// An ASCII bar proportional to value/max (paper figures are bar charts).
inline std::string Bar(double value, double max_value, int width = 40) {
  if (max_value <= 0) {
    return "";
  }
  int n = static_cast<int>(value / max_value * width + 0.5);
  if (n > width) {
    n = width;
  }
  return std::string(static_cast<size_t>(n), '#');
}

inline void PrintRule() {
  std::puts(
      "-----------------------------------------------------------------"
      "-----------");
}

inline void PrintHeader(const char* title) {
  PrintRule();
  std::printf("%s\n", title);
  PrintRule();
}

inline double PercentFaster(double baseline, double improved) {
  return (baseline - improved) / baseline * 100.0;
}

inline double PercentMore(double baseline, double improved) {
  return (improved - baseline) / baseline * 100.0;
}

// One reported figure: a row of the paper-shaped table, in JSON form.
struct BenchResult {
  std::string name;
  double value = 0;
  std::string unit;
};

// Owns a bench binary's lifecycle:
//
//   BenchHarness harness("fig2_nfs", &argc, argv);
//   harness.RunMicrobenchmarks();        // gbench cases (skipped in smoke)
//   ... paper-table phase, harness.calls()/reps() for iteration counts ...
//   harness.Report("client_seconds", s, "s");
//   return harness.Finish();             // writes BENCH_fig2_nfs.json
//
// The flextrace window opens when RunMicrobenchmarks() returns, so the
// counters in the artifact cover exactly the paper-table phase — whose
// iteration counts are fixed, making every counter value deterministic
// and therefore exact-gateable in CI (`flexrpc_report check`). The adaptive
// google-benchmark phase runs with tracing disabled and contributes
// nothing.
//
// Timing vs counting: enabled tracing costs real time on hot paths
// (dozens of relaxed atomic RMWs per call), which would distort the
// reproduced figures. So BestOf() runs its timing repetitions with
// tracing forced OFF and then performs one extra traced repetition
// purely to tally the work; benches with bespoke measurement loops get
// the same split via Untraced() (timing) + Traced() (counting).
//
// Flags (stripped before google-benchmark sees argv):
//   --smoke        deterministic scaled-down run: gbench skipped, reps()
//                  returns 1, calls()/bytes() return their smoke values
//   --json_dir=P   write the artifact into directory P (default: cwd)
//   --record       benches that support it run one extra seeded rep under
//                  a flight-recorder session and write REC_<name>.json
//                  (+ Chrome trace) next to the bench artifact. The
//                  recorded rep runs untraced so the gated flextrace
//                  counter budgets are unaffected.
class BenchHarness {
 public:
  // `name` is the artifact key: BENCH_<name>.json.
  BenchHarness(std::string name, int* argc, char** argv);
  ~BenchHarness();

  BenchHarness(const BenchHarness&) = delete;
  BenchHarness& operator=(const BenchHarness&) = delete;

  bool smoke() const { return smoke_; }
  bool record() const { return record_; }

  // Iteration-count selectors: full fidelity normally, the fixed reduced
  // count under --smoke.
  int calls(int full, int smoke_calls) const {
    return smoke_ ? smoke_calls : full;
  }
  size_t bytes(size_t full, size_t smoke_bytes) const {
    return smoke_ ? smoke_bytes : full;
  }
  int reps(int full) const { return smoke_ ? 1 : full; }

  // Runs the registered google-benchmark cases (unless --smoke), then
  // opens the traced measurement window. Call exactly once.
  void RunMicrobenchmarks();

  // The hoisted repetition loop: runs `measure` `rep_count` times with
  // tracing off and keeps the best value (min when smaller_is_better,
  // else max), then runs one extra traced repetition so the artifact
  // still counts the work.
  double BestOf(int rep_count, bool smaller_is_better,
                const std::function<double()>& measure);

  // Runs `fn` with tracing forced off (timing fidelity) and returns its
  // result; restores the previous state after.
  template <typename Fn>
  auto Untraced(Fn&& fn) {
    bool was = flexrpc::TraceEnabled();
    flexrpc::SetTraceEnabled(false);
    auto result = fn();
    flexrpc::SetTraceEnabled(was);
    return result;
  }

  // Runs `fn` once for its work counters — only when tracing is on (the
  // measurement window is open), since the run is otherwise pointless.
  template <typename Fn>
  void Traced(Fn&& fn) {
    if (flexrpc::TraceEnabled()) {
      fn();
    }
  }

  // Adds one figure to the artifact's results array.
  void Report(std::string name, double value, std::string unit);

  // Writes `contents` to <json_dir>/<filename> (recordings, Chrome
  // traces). Returns false and warns on I/O failure.
  bool WriteArtifact(const std::string& filename,
                     const std::string& contents) const;

  // Writes BENCH_<name>.json and returns the process exit code.
  int Finish();

 private:
  std::string name_;
  std::string json_dir_;
  bool smoke_ = false;
  bool record_ = false;
  bool finished_ = false;
  std::vector<BenchResult> results_;
  std::optional<flexrpc::TraceSession> session_;
  std::optional<flexrpc::Stopwatch> window_timer_;
};

}  // namespace flexrpc_bench

#endif  // FLEXRPC_BENCH_BENCH_UTIL_H_
