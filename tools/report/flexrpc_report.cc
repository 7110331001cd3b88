// flexrpc_report — the one report tool over flexrpc's run artifacts.
//
//   flexrpc_report check --budgets=FILE [--dir=DIR] [--update]
//   flexrpc_report calls <REC.json> [--limit=N] [--chrome=FILE]
//   flexrpc_report timeline <TIMELINE.json> [--limit=N]
//   flexrpc_report timeline --diff <a.json> <b.json> [--limit=N]
//
// check is the CI budget gate. The budget file's schema picks what it
// gates: flextrace counters in BENCH_<name>.json artifacts, or the shape
// of flexwatch TIMELINE_<name>.json artifacts (tick, series, sketch-cell
// and sketch-sample counts). Both are deterministic for the fixed-
// iteration, seeded bench workloads, so budgets pin exact values: any
// drift in copies, allocations, traps, bytes on the wire or timeline shape
// is a regression, or an intentional change that regenerates the budgets
// with --update. A failure lists each violation and a unified diff of the
// budget file against the observed values.
//
// calls renders a flexrpc-rec-v1 recording (REC_<bench>.json, written by
// the benches under --record): the phase budget, retransmit causes, the
// window-occupancy timeline and a per-call table of --limit rows (default
// 32). --chrome also writes the Chrome trace_event export for Perfetto.
//
// timeline renders a flexrpc-timeline-v1 artifact: the per-window p50/p99
// ribbon of --limit rows (default 64), the saturation-onset window and the
// per-connection / worker / replica attribution. --diff compares two runs.
// A --limit of 0 means no cap.
//
// Exit code 0 on success; 1 on a violation, unreadable or malformed input,
// or a usage error.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/flexrec.h"
#include "src/analysis/flexwatch.h"
#include "src/support/file.h"
#include "src/support/json.h"
#include "src/support/recorder.h"
#include "src/support/status.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

int Usage() {
  std::fputs(
      "usage: flexrpc_report check --budgets=FILE [--dir=DIR] [--update]\n"
      "       flexrpc_report calls <REC.json> [--limit=N] [--chrome=FILE]\n"
      "       flexrpc_report timeline <TIMELINE.json> [--limit=N]\n"
      "       flexrpc_report timeline --diff <a.json> <b.json> "
      "[--limit=N]\n",
      stderr);
  return 1;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "flexrpc_report: %s\n", why.c_str());
  return 1;
}

// The value of `--name=value`, or nullopt when `arg` is another argument.
std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view flag) {
  if (!arg.starts_with(flag)) {
    return std::nullopt;
  }
  return arg.substr(flag.size());
}

// --limit=N's N as a row cap (0 = no cap); false unless N is all digits.
bool ParseLimit(std::string_view text, size_t* limit) {
  size_t n = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *limit = n == 0 ? SIZE_MAX : n;
  return true;
}

// Every artifact goes through here: read `path`, parse it, and name the
// file in a parse error.
template <typename T>
Result<T> LoadArtifact(const std::string& path,
                       Result<T> (*parse)(std::string_view)) {
  FLEXRPC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  Result<T> parsed = parse(text);
  if (!parsed.ok()) {
    return InvalidArgumentError(StrFormat(
        "%s: %s", path.c_str(), parsed.status().message().c_str()));
  }
  return parsed;
}

// --- check ---------------------------------------------------------------

// What --update pins for a bench: the gated subset of the counter catalog,
// the work the paper's evaluation argues about, then histogram observation
// counts. Timing *values* are deliberately absent (they are host-
// dependent), but the number of observations is exact for a fixed
// workload. A budget may gate any catalog counter or "<histogram>.count".
constexpr const char* kBenchKeys[] = {
    "kernel.traps",
    "kernel.port_transfers.unique",
    "kernel.port_transfers.nonunique",
    "mem.copies",
    "mem.copy_bytes",
    "arena.bump_allocs",
    "arena.block_allocs",
    "fbuf.allocs",
    "fbuf.bytes_by_reference",
    "fbuf.bytes_copied",
    "ipc.bytes_copied",
    "ipc.sigcache.hits",
    "ipc.sigcache.misses",
    "rpc.client.calls",
    "rpc.server.dispatches",
    "marshal.bytes_marshaled",
    "marshal.bytes_unmarshaled",
    // flexspec dispatch: hit/miss split is deterministic for a fixed
    // workload — a drift means a specialization appeared, vanished, or
    // stopped matching its plan key.
    "marshal.spec.hit",
    "marshal.spec.miss",
    "net.packets",
    "net.bytes_on_wire",
    // Lossy-wire substrate: injected faults and their recovery are
    // deterministic (seeded FaultPlan + virtual clock), so CI pins them
    // exactly — a drift here means the fault schedule itself changed.
    "net.datagrams_sent",
    "net.datagrams_delivered",
    "net.fault.drops",
    "net.fault.dups",
    "net.fault.reorders",
    "net.fault.corrupts",
    "net.checksum_failures",
    "net.frame_copies",
    "rpc.dupcache.hits",
    "rpc.dupcache.misses",
    // Adaptive transport: estimator samples, Karn exclusions, RTO clamps,
    // and AIMD window moves are exact for the seeded bench workloads — a
    // drift means the control loop's trajectory changed.
    "rpc.rtt.samples",
    "rpc.rtt.karn_skips",
    "rpc.rtt.clamps",
    "rpc.cwnd.increases",
    "rpc.cwnd.decreases",
    // Managed-binding control plane: calls routed, live rebinds, probes,
    // and health transitions are exact for the scripted kill schedules —
    // a drift means the failover trajectory changed.
    "rpc.binder.calls",
    "rpc.binder.reissues",
    "rpc.binder.probes",
    "rpc.binder.cutovers",
    "rpc.failover.suspects",
    "rpc.failover.reinstates",
    // The call engine (connection mux) and the dispatch loop every lossy-
    // wire transport runs on. Exact for a fixed seed: arrivals, faults,
    // sheds, and retransmits all replay.
    "rpc.mux.conns_opened",
    "rpc.mux.calls",
    "rpc.mux.retransmits",
    "rpc.mux.stale_replies",
    "rpc.mux.flow_stalls",
    "rpc.dispatch.accepts",
    "rpc.dispatch.executions",
    "rpc.dispatch.shed",
    "rpc.dupcache.evictions",
    "rpc.dupcache.evicted_reexecs",
    "rpc.marshal_nanos.count",
    "rpc.unmarshal_nanos.count",
    "rpc.dispatch_nanos.count",
    "ipc.message_bytes.count",
    "net.transfer_virtual_nanos.count",
    "rpc.dispatch.queue_depth.count",
};

// The gated shape of a flexwatch timeline, all exact for a seeded run:
// drift in tick count means the run's virtual span changed; drift in the
// sketch-cell or sample counts means observations moved across windows,
// dimensions, or series.
constexpr const char* kTimelineKeys[] = {
    "tick_nanos",   "ticks",        "counter_series",
    "gauge_series", "sketch_cells", "sketch_samples",
};

// Every key a budget may name, with its value in one artifact. A key not
// in the map is unknown: it would read as 0 forever, so a stale or
// misspelled key pinned at 0 would pass every run.
using Observed = std::map<std::string, uint64_t>;

Result<Observed> ObserveBench(const std::string& path, bool want_smoke) {
  FLEXRPC_ASSIGN_OR_RETURN(JsonValue artifact, LoadArtifact(path, &ParseJson));
  const JsonValue* schema = artifact.Find("schema");
  const JsonValue* smoke = artifact.Find("smoke");
  const JsonValue* results = artifact.Find("results");
  if (schema == nullptr || schema->string != "flexrpc-bench-v1") {
    return InvalidArgumentError(path + ": missing/unknown schema");
  }
  if (smoke == nullptr || smoke->kind != JsonValue::Kind::kBool) {
    return InvalidArgumentError(path + ": missing smoke flag");
  }
  // Comparing a full run against smoke budgets (or vice versa) would
  // "fail" on every counter for the wrong reason — refuse outright.
  if (smoke->boolean != want_smoke) {
    return InvalidArgumentError(StrFormat(
        "%s: artifact is a %s run but budgets are for %s runs", path.c_str(),
        smoke->boolean ? "smoke" : "full", want_smoke ? "smoke" : "full"));
  }
  if (results == nullptr || results->kind != JsonValue::Kind::kArray ||
      results->array.empty()) {
    return InvalidArgumentError(path + ": empty results array");
  }
  const JsonValue* trace = artifact.Find("trace");
  const JsonValue* counters =
      trace != nullptr ? trace->Find("counters") : nullptr;
  const JsonValue* histograms =
      trace != nullptr ? trace->Find("histograms") : nullptr;
  Observed observed;
  // Absent reads as 0: zero-observation histograms are elided.
  auto observe = [&](const std::string& key, const JsonValue* v) {
    std::optional<uint64_t> n = v != nullptr ? v->AsUInt() : uint64_t{0};
    if (!n) {
      return InvalidArgumentError(path + ": malformed " + key);
    }
    observed[key] = *n;
    return Status::Ok();
  };
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    std::string name(TraceCounterName(static_cast<TraceCounter>(i)));
    FLEXRPC_RETURN_IF_ERROR(
        observe(name, counters != nullptr ? counters->Find(name) : nullptr));
  }
  for (size_t i = 0; i < kTraceHistogramCount; ++i) {
    std::string name(TraceHistogramName(static_cast<TraceHistogram>(i)));
    const JsonValue* h =
        histograms != nullptr ? histograms->Find(name) : nullptr;
    FLEXRPC_RETURN_IF_ERROR(
        observe(name + ".count", h != nullptr ? h->Find("count") : nullptr));
  }
  return observed;
}

Result<Observed> ObserveTimeline(const std::string& path, bool) {
  FLEXRPC_ASSIGN_OR_RETURN(Timeline timeline,
                           LoadArtifact(path, &ParseTimeline));
  uint64_t samples = 0;
  for (const auto& [key, sketch] : timeline.sketches) {
    samples += sketch.count();
  }
  return Observed{{"tick_nanos", timeline.tick_nanos},
                  {"ticks", timeline.ticks},
                  {"counter_series", timeline.counters.size()},
                  {"gauge_series", timeline.gauges.size()},
                  {"sketch_cells", timeline.sketches.size()},
                  {"sketch_samples", samples}};
}

// One artifact kind the gate reads, selected by the budget file's schema.
struct Gate {
  std::string_view schema;
  const char* prefix;   // artifact files are <dir>/<prefix><name>.json
  const char* noun;     // "@@ <noun> <name> @@" diff hunks
  const char* plural;   // "rewrote FILE (N <plural>)"
  const char* counted;  // "N <counted> within budget"
  const char* catalog;  // where an unknown key is missing from
  // Bench budgets carry a smoke/full mode and may give [lo, hi] ranges;
  // timeline budgets pin exact values.
  bool bench;
  std::span<const char* const> update_keys;  // what --update pins, in order
  Result<Observed> (*observe)(const std::string& path, bool want_smoke);
};

constexpr Gate kGates[] = {
    {"flexrpc-bench-budgets-v1", "BENCH_", "bench", "benches", "bench(es)",
     "trace catalog", true, kBenchKeys, &ObserveBench},
    {"flexrpc-timeline-budgets-v1", "TIMELINE_", "timeline", "timelines",
     "timeline(s)", "timeline shape", false, kTimelineKeys,
     &ObserveTimeline},
};

// A budget value as an inclusive range: an exact count, or a [lo, hi]
// pair where the gate allows ranges. Nullopt for anything else, including
// negative, fractional and > 2^53 numbers and lo > hi.
std::optional<std::pair<uint64_t, uint64_t>> BudgetRange(
    const JsonValue& want, bool ranges) {
  if (std::optional<uint64_t> pin = want.AsUInt()) {
    return std::pair(*pin, *pin);
  }
  if (!ranges || want.kind != JsonValue::Kind::kArray ||
      want.array.size() != 2) {
    return std::nullopt;
  }
  std::optional<uint64_t> lo = want.array[0].AsUInt();
  std::optional<uint64_t> hi = want.array[1].AsUInt();
  if (!lo || !hi || *lo > *hi) {
    return std::nullopt;
  }
  return std::pair(*lo, *hi);
}

// One out-of-budget key, kept structured so the failure report can
// render a unified diff of the budget file against observed reality.
struct Drift {
  std::string bench;
  std::string key;
  uint64_t want_lo = 0;
  uint64_t want_hi = 0;
  uint64_t got = 0;
};

int Check(const char* argv0, std::span<const std::string_view> args) {
  std::string budgets_path;
  std::string dir = ".";
  bool update = false;
  for (std::string_view arg : args) {
    if (auto v = FlagValue(arg, "--budgets=")) {
      budgets_path = *v;
    } else if (auto d = FlagValue(arg, "--dir=")) {
      dir = *d;
    } else if (arg == "--update") {
      update = true;
    } else {
      return Usage();
    }
  }
  if (budgets_path.empty()) {
    return Fail("--budgets= is required");
  }
  auto budgets = LoadArtifact(budgets_path, &ParseJson);
  if (!budgets.ok()) {
    return Fail(budgets.status().ToString());
  }
  const JsonValue* schema = budgets->Find("schema");
  const Gate* gate = nullptr;
  for (const Gate& g : kGates) {
    if (schema != nullptr && schema->string == g.schema) {
      gate = &g;
    }
  }
  if (gate == nullptr) {
    return Fail("budgets file has missing/unknown schema");
  }
  const JsonValue* mode = budgets->Find("mode");
  if (gate->bench && (mode == nullptr || (mode->string != "smoke" &&
                                          mode->string != "full"))) {
    return Fail("budgets file mode must be \"smoke\" or \"full\"");
  }
  const JsonValue* benches = budgets->Find("benches");
  if (benches == nullptr || !benches->IsObject()) {
    return Fail("budgets file has no benches object");
  }
  auto observe = [&](const std::string& bench) {
    return gate->observe(dir + "/" + gate->prefix + bench + ".json",
                         gate->bench && mode->string == "smoke");
  };

  if (update) {
    // Regenerate: pin every gated key to its observed value.
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(gate->schema);
    if (gate->bench) {
      w.Key("mode").String(mode->string);
    }
    w.Key("benches").BeginObject();
    for (const auto& [bench, unused] : benches->object) {
      auto observed = observe(bench);
      if (!observed.ok()) {
        return Fail(observed.status().ToString());
      }
      w.Key(bench).BeginObject();
      for (const char* key : gate->update_keys) {
        w.Key(key).UInt(observed->at(key));
      }
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::ofstream out(budgets_path, std::ios::binary);
    out << w.str() << '\n';
    if (!out) {
      return Fail("cannot write budgets file");
    }
    std::printf("flexrpc_report: rewrote %s (%zu %s)\n", budgets_path.c_str(),
                benches->object.size(), gate->plural);
    return 0;
  }

  std::vector<std::string> violations;
  std::vector<Drift> drifts;
  for (const auto& [bench, budget] : benches->object) {
    auto observed = observe(bench);
    if (!observed.ok()) {
      violations.push_back(observed.status().ToString());
      continue;
    }
    if (!budget.IsObject()) {
      violations.push_back(bench + ": malformed budget entry");
      continue;
    }
    for (const auto& [key, want] : budget.object) {
      auto it = observed->find(key);
      if (it == observed->end()) {
        violations.push_back(StrFormat(
            "%s: unknown %s %s (not in the %s)", bench.c_str(),
            StrEndsWith(key, ".count") ? "histogram" : "counter",
            key.c_str(), gate->catalog));
        continue;
      }
      auto range = BudgetRange(want, gate->bench);
      if (!range) {
        violations.push_back(bench + ": malformed budget for " + key);
        continue;
      }
      auto [lo, hi] = *range;
      uint64_t got = it->second;
      if (got >= lo && got <= hi) {
        continue;
      }
      violations.push_back(
          gate->bench
              ? StrFormat("%s: %s = %llu outside budget [%llu, %llu]",
                          bench.c_str(), key.c_str(),
                          static_cast<unsigned long long>(got),
                          static_cast<unsigned long long>(lo),
                          static_cast<unsigned long long>(hi))
              : StrFormat("%s: %s = %llu, budget pins %llu", bench.c_str(),
                          key.c_str(), static_cast<unsigned long long>(got),
                          static_cast<unsigned long long>(lo)));
      drifts.push_back(Drift{bench, key, lo, hi, got});
    }
  }
  if (violations.empty()) {
    std::printf("flexrpc_report: %zu %s within budget\n",
                benches->object.size(), gate->counted);
    return 0;
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "flexrpc_report: FAIL %s\n", v.c_str());
  }
  if (!drifts.empty()) {
    // A unified diff of the budget file against observed reality, one
    // hunk per artifact — paste-able into a review to see exactly what
    // the change moved.
    std::fprintf(stderr, "\n--- %s (budget)\n+++ %s (observed)\n",
                 budgets_path.c_str(), dir.c_str());
    std::string current_bench;
    for (const Drift& d : drifts) {
      if (d.bench != current_bench) {
        current_bench = d.bench;
        std::fprintf(stderr, "@@ %s %s @@\n", gate->noun, d.bench.c_str());
      }
      if (d.want_lo == d.want_hi) {
        std::fprintf(stderr, "-  \"%s\": %llu\n", d.key.c_str(),
                     static_cast<unsigned long long>(d.want_lo));
      } else {
        std::fprintf(stderr, "-  \"%s\": [%llu, %llu]\n", d.key.c_str(),
                     static_cast<unsigned long long>(d.want_lo),
                     static_cast<unsigned long long>(d.want_hi));
      }
      std::fprintf(stderr, "+  \"%s\": %llu\n", d.key.c_str(),
                   static_cast<unsigned long long>(d.got));
    }
  }
  std::fprintf(stderr,
               "\nflexrpc_report: %zu violation(s). If the change is "
               "intentional, regenerate the budgets with:\n"
               "  %s check --budgets=%s --dir=%s --update\n",
               violations.size(), argv0, budgets_path.c_str(), dir.c_str());
  return 1;
}

// --- calls and timeline --------------------------------------------------

int Calls(std::span<const std::string_view> args) {
  std::string path;
  std::string chrome_path;
  size_t limit = 32;
  for (std::string_view arg : args) {
    if (auto v = FlagValue(arg, "--limit=")) {
      if (!ParseLimit(*v, &limit)) {
        return Usage();
      }
    } else if (auto c = FlagValue(arg, "--chrome=")) {
      chrome_path = *c;
    } else if (path.empty() && !arg.starts_with('-')) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) {
    return Usage();
  }
  auto recording = LoadArtifact(path, &ParseRecording);
  if (!recording.ok()) {
    return Fail(recording.status().ToString());
  }
  std::fputs(RenderReport(AnalyzeRecording(*recording), limit).c_str(),
             stdout);
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    out << ExportChromeTrace(*recording);
    if (!out) {
      return Fail("cannot write " + chrome_path);
    }
    std::fprintf(stderr, "wrote Chrome trace to %s\n", chrome_path.c_str());
  }
  return 0;
}

int TimelineReport(std::span<const std::string_view> args) {
  bool diff = false;
  size_t limit = 64;
  std::vector<std::string> paths;
  for (std::string_view arg : args) {
    if (arg == "--diff") {
      diff = true;
    } else if (auto v = FlagValue(arg, "--limit=")) {
      if (!ParseLimit(*v, &limit)) {
        return Usage();
      }
    } else if (!arg.starts_with('-')) {
      paths.emplace_back(arg);
    } else {
      return Usage();
    }
  }
  if (paths.size() != (diff ? 2u : 1u)) {
    return Usage();
  }
  std::vector<Timeline> timelines;
  for (const std::string& path : paths) {
    auto timeline = LoadArtifact(path, &ParseTimeline);
    if (!timeline.ok()) {
      return Fail(timeline.status().ToString());
    }
    timelines.push_back(std::move(*timeline));
  }
  std::string report =
      diff ? DiffTimelines(timelines[0], timelines[1], limit)
           : RenderWatchReport(AnalyzeTimeline(timelines[0]), limit);
  std::fputs(report.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace flexrpc

int main(int argc, char** argv) {
  std::vector<std::string_view> args(argv + std::min(argc, 2), argv + argc);
  std::string_view command = argc > 1 ? argv[1] : "";
  if (command == "check") {
    return flexrpc::Check(argv[0], args);
  }
  if (command == "calls") {
    return flexrpc::Calls(args);
  }
  if (command == "timeline") {
    return flexrpc::TimelineReport(args);
  }
  return flexrpc::Usage();
}
