// flexbench — the end-to-end RPC benchmark, with a host-time ledger per
// layer.
//
//   flexbench --workload nfs_small|nfs_bulk|fleet --seed N --seconds S
//             --trace 0|1 [--detail FILE]
//
// Each workload runs single-threaded in this process. It goes through the
// public headers of src/apps, src/marshal, src/net, src/rpc and
// src/support. The seed generates every input, and the program under test
// receives only those inputs. With --trace 0 the run reports the
// end-to-end metrics. With --trace 1 it reports the per-layer ledger
// instead (README.md lists both). The last line on stdout is one JSON
// object with the keys correct, attempted, failed and metrics. A failed
// output check makes `correct` false and the exit code 1.
//
// A run is made of passes. A pass is one fixed, seed-derived batch of
// calls ("variant") run on a fresh transport and virtual clock. Each
// workload has a few variants, so the virtual-clock metrics average over
// several independent seeded inputs. The first pass of each variant gives
// the virtual metrics and its digest. Every later pass of that variant
// must reproduce the digest exactly. Host-time metrics are medians over
// every timed pass.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/flexrec.h"
#include "src/apps/nfs.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/engine.h"
#include "src/marshal/spec.h"
#include "src/marshal/xdr.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/net/sunrpc.h"
#include "src/pdl/apply.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/mux.h"
#include "src/rpc/pipeline.h"
#include "src/sim/fleet.h"
#include "src/support/bytes.h"
#include "src/support/diag.h"
#include "src/support/event_queue.h"
#include "src/support/json.h"
#include "src/support/recorder.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// An independent stream seed derived from the workload seed and a tag.
uint64_t Mix(uint64_t seed, uint64_t tag) {
  return Rng(seed ^ ((tag + 1) * 0x9E3779B97F4A7C15ull)).NextU64();
}

uint64_t HashWord(uint64_t h, uint64_t word) {
  return Rng(h ^ word).NextU64();
}

uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- The host-time ledger ------------------------------------------------
//
// This file opens and closes a span around each call into a layer. Spans
// nest strictly (one thread), so a stack gives every span's self time:
// its duration minus the part its child spans cover. Spans are reduced as
// they close instead of being stored. The root span is one serial call
// (nfs_small) or one whole pass (nfs_bulk, fleet). Each closed root adds
// its duration to span_ns, and each self time lands in exactly one layer,
// so the layer totals sum to span_ns exactly. The self time of kRoot and
// kBench (the benchmark's own code) is what the report calls
// unattributed.
enum class Layer : uint8_t {
  kRoot,       // the call (or pass) span
  kEncode,     // EncodeSunRpcCall + NfsClient::EncodeRequest
  kDecode,     // DecodeSunRpcReplySuccess + NfsClient::DecodeReply
  kServer,     // the NFS server handler
  kHandler,    // the fleet server handler
  kTransport,  // Call / Submit / Drive, or the fleet's RunNext loop
  kBench,      // completion callbacks: this file's bookkeeping
  kCount,
};
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

class Ledger {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  void Begin(Layer layer) {
    if (enabled_) {
      stack_.push_back(Frame{layer, NowNs(), 0});
    }
  }

  void End() {
    if (!enabled_) {
      return;
    }
    const Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t dur = NowNs() - f.start;
    self_[static_cast<size_t>(f.layer)] += dur - f.child;
    if (stack_.empty()) {
      span_ += dur;
    } else {
      stack_.back().child += dur;
    }
  }

  uint64_t self(Layer layer) const {
    return self_[static_cast<size_t>(layer)];
  }
  uint64_t span() const { return span_; }

 private:
  struct Frame {
    Layer layer;
    uint64_t start;
    uint64_t child;  // summed durations of closed child spans
  };
  bool enabled_ = false;
  std::vector<Frame> stack_;
  uint64_t self_[kLayerCount] = {};
  uint64_t span_ = 0;
};

Ledger g_ledger;

class Span {
 public:
  explicit Span(Layer layer) { g_ledger.Begin(layer); }
  ~Span() { g_ledger.End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

// ---- Pass results --------------------------------------------------------

// Transport, dispatch and wire bookkeeping of one pass, read from the
// layers' own Stats.
struct LayerCounts {
  uint64_t events = 0;  // event-queue dispatches
  uint64_t retransmits = 0;
  uint64_t dup_hits = 0;
  uint64_t dup_lookups = 0;  // hits + executions
  uint64_t checksum_failures = 0;
  uint64_t busy_nanos = 0;           // summed worker occupancy
  uint64_t busy_capacity_nanos = 0;  // workers x virtual span
  uint64_t max_queue_depth = 0;
  uint64_t flow_stalls = 0;

  void Add(const LayerCounts& o) {
    events += o.events;
    retransmits += o.retransmits;
    dup_hits += o.dup_hits;
    dup_lookups += o.dup_lookups;
    checksum_failures += o.checksum_failures;
    busy_nanos += o.busy_nanos;
    busy_capacity_nanos += o.busy_capacity_nanos;
    max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
    flow_stalls += o.flow_stalls;
  }
};

struct PassOutcome {
  uint64_t calls = 0;   // attempted
  uint64_t failed = 0;  // failed, or failed an output check
  uint64_t bytes = 0;   // verified payload bytes
  uint64_t host_ns = 0;
  uint64_t virtual_ns = 0;
  std::vector<uint64_t> vcall_ns;      // virtual submit-to-complete
  std::vector<uint64_t> host_call_ns;  // host ns per call (see README.md)
  LayerCounts counts;
  std::vector<std::string> errors;  // the first few failed checks
  // Captured request/reply datagrams, one pair per call, for the replays.
  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> replies;

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(std::move(why));
    }
  }

  // Everything a same-seed rerun of the variant must reproduce.
  uint64_t Digest() const {
    uint64_t h = HashWord(0, calls);
    for (uint64_t v : {failed, bytes, virtual_ns, counts.events,
                       counts.retransmits, counts.dup_hits,
                       counts.dup_lookups, counts.checksum_failures,
                       counts.busy_nanos, counts.max_queue_depth,
                       counts.flow_stalls}) {
      h = HashWord(h, v);
    }
    for (uint64_t v : vcall_ns) {
      h = HashWord(h, v);
    }
    return h;
  }
};

// Host ns per call, kept as counts: exact to the nanosecond below
// 65.536 us and to the microsecond below 65.536 ms. Longer samples count
// as 65.536 ms.
class Histogram {
 public:
  Histogram() : fine_(kBuckets, 0), coarse_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++count_;
    if (ns < kBuckets) {
      ++fine_[ns];
    } else {
      ++coarse_[std::min<uint64_t>(ns / 1000, kBuckets - 1)];
    }
  }

  uint64_t count() const { return count_; }

  // Nearest-rank quantile, in ns.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += fine_[i];
      if (seen >= rank) {
        return static_cast<double>(i);
      }
    }
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += coarse_[i];
      if (seen >= rank) {
        return static_cast<double>(i) * 1000 + 500;
      }
    }
    return 0;  // unreachable: the buckets hold count_ samples
  }

 private:
  static constexpr size_t kBuckets = 1 << 16;
  std::vector<uint64_t> fine_;
  std::vector<uint64_t> coarse_;
  uint64_t count_ = 0;
};

// Host samples from completion timestamps: the mean host ns per call over
// each block of kBlock consecutive completions. stamps[0] is the pass
// start.
constexpr size_t kBlock = 16;

void BlockSamples(const std::vector<uint64_t>& stamps,
                  std::vector<uint64_t>* out) {
  for (size_t j = kBlock; j < stamps.size(); j += kBlock) {
    out->push_back((stamps[j] - stamps[j - kBlock]) / kBlock);
  }
}

// ---- Workloads -----------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input from the seed. Timed as setup_s.
  virtual void Setup(uint64_t seed) = 0;
  virtual size_t variants() const = 0;
  // Runs one pass of `variant`. `traced` wraps the server handler in a
  // ledger span; `capture` keeps every request/reply datagram.
  virtual PassOutcome RunPass(size_t variant, bool traced, bool capture) = 0;
  // Output checks that must hold before anything is timed. Returns how
  // many calls they made.
  virtual uint64_t Preflight(std::vector<std::string>* errors) {
    (void)errors;
    return 0;
  }
  virtual LinkModel::Config link() const { return LinkModel::Config(); }
  // Hash of every generated input; a different seed changes it.
  virtual uint64_t InputDigest() const = 0;
  // Replays NfsClient construction step by step (ms, medians of 9).
  // Workloads without an NfsClient leave the outputs at 0.
  virtual Status ReplaySetup(double* parse_ms, double* pdl_ms,
                             double* build_ms) {
    (void)parse_ms;
    (void)pdl_ms;
    (void)build_ms;
    return Status::Ok();
  }
};

// Serial small reads (nfs_small) and window-8 lossy bulk reads (nfs_bulk)
// through the generated NFS stubs.
class NfsWorkload : public Workload {
 public:
  explicit NfsWorkload(bool bulk) : bulk_(bulk) {}

  static constexpr size_t kSmallVariants = 4;
  static constexpr size_t kSmallCalls = 2048;
  static constexpr uint32_t kSmallMin = 256;   // read sizes: log-uniform
  static constexpr uint32_t kSmallMax = 1024;  // in [256, 1024], median 512
  static constexpr size_t kBulkVariants = 16;
  static constexpr size_t kBulkCalls = 512;
  static constexpr uint32_t kBulkWindow = 8;
  static constexpr double kBulkFaultProb = 0.01;
  // Both wires delay each frame by a seeded 1..50 us. Without it the
  // serial reads, and the steady window of equal bulk reads, would all
  // take the same virtual time and their percentiles would not depend on
  // the seed.
  static constexpr uint64_t kJitterNanos = 50'000;

  size_t variants() const override {
    return bulk_ ? kBulkVariants : kSmallVariants;
  }

  void Setup(uint64_t seed) override {
    file_size_ = bulk_ ? kBulkCalls * kNfsMaxData : kSmallCalls * kSmallMax;
    server_ = std::make_unique<NfsFileServer>(file_size_, Mix(seed, 1));
    client_ = std::make_unique<NfsClient>(server_.get(), LinkModel(),
                                          RemoteServerModel());
    user_ = static_cast<uint8_t*>(
        client_->user_space()->Allocate(file_size_));
    std::memset(user_, 0, file_size_);
    std::memset(fh_, 0xFD, sizeof(fh_));
    chunks_.assign(variants(), {});
    faults_.assign(variants(), {});
    for (size_t v = 0; v < variants(); ++v) {
      Rng rng(Mix(seed, 10 + v));
      uint32_t offset = 0;
      size_t calls = bulk_ ? kBulkCalls : kSmallCalls;
      for (size_t i = 0; i < calls; ++i) {
        uint32_t count = static_cast<uint32_t>(kNfsMaxData);
        if (!bulk_) {
          double log_span = std::log(static_cast<double>(kSmallMax) /
                                     kSmallMin);
          count = static_cast<uint32_t>(std::lround(
              kSmallMin * std::exp(rng.NextDouble() * log_span)));
        }
        chunks_[v].push_back(Chunk{offset, count});
        offset += count;
      }
      for (int dir = 0; dir < 2; ++dir) {
        FaultConfig& f = faults_[v][dir];
        if (bulk_) {
          f.drop_prob = kBulkFaultProb;
          f.dup_prob = kBulkFaultProb;
          f.reorder_prob = kBulkFaultProb;
          f.corrupt_prob = kBulkFaultProb;
        }
        f.extra_delay_prob = 1.0;
        f.extra_delay_max_nanos = kJitterNanos;
        f.seed = Mix(seed, 100 + 2 * v + dir);
      }
    }
  }

  uint64_t InputDigest() const override {
    uint64_t h = HashWord(0, file_size_);
    for (size_t v = 0; v < chunks_.size(); ++v) {
      for (const Chunk& c : chunks_[v]) {
        h = HashWord(h, (uint64_t{c.offset} << 32) | c.count);
      }
      h = HashWord(HashWord(h, faults_[v][0].seed), faults_[v][1].seed);
    }
    return HashWord(h, server_->content()[file_size_ / 2]);
  }

  // The fused (flexspec) and interpreted marshal paths must put identical
  // bytes on the wire for both generated stubs, and both must deliver the
  // file bytes.
  uint64_t Preflight(std::vector<std::string>* errors) override {
    constexpr size_t kChecks = 16;
    const bool was_enabled = MarshalSpecializationEnabled();
    for (NfsClient::StubKind kind :
         {NfsClient::StubKind::kGeneratedConventional,
          NfsClient::StubKind::kGeneratedUserBuffer}) {
      for (size_t i = 0; i < kChecks; ++i) {
        const Chunk& c = chunks_[0][i];
        NfsClient::ChunkArgs args{fh_, c.offset, c.count, user_ + c.offset};
        XdrWriter wire[2];
        uint32_t delivered[2] = {0, 0};
        bool decoded[2] = {false, false};
        for (int fused = 0; fused < 2; ++fused) {
          SetMarshalSpecializationEnabled(fused == 1);
          EncodeSunRpcCall(&wire[fused], SunRpcCall{static_cast<uint32_t>(
                                                        i + 1),
                                                    kNfsProgram, kNfsVersion,
                                                    kNfsProcRead});
          if (!client_->EncodeRequest(kind, args, &wire[fused]).ok()) {
            continue;
          }
          XdrWriter reply;
          if (!server_->Handle(wire[fused].span(), &reply).ok()) {
            continue;
          }
          std::memset(user_ + c.offset, 0, c.count);
          XdrReader reader(reply.span());
          if (!DecodeSunRpcReplySuccess(&reader, static_cast<uint32_t>(i + 1))
                   .ok()) {
            continue;
          }
          auto got = client_->DecodeReply(kind, args, &reader);
          decoded[fused] =
              got.ok() &&
              std::memcmp(user_ + c.offset, server_->content() + c.offset,
                          c.count) == 0;
          delivered[fused] = got.ok() ? *got : 0;
        }
        const bool same_wire =
            wire[0].size() == wire[1].size() &&
            std::memcmp(wire[0].span().data(), wire[1].span().data(),
                        wire[0].size()) == 0;
        const std::string where = " (stub kind " +
                                  std::to_string(static_cast<int>(kind)) +
                                  ", call " + std::to_string(i) + ")";
        if (!same_wire) {
          errors->push_back("fused and interpreted encodes differ" + where);
        }
        if (!decoded[0] || !decoded[1] || delivered[0] != c.count ||
            delivered[1] != c.count) {
          errors->push_back("a preflight read did not deliver the file" +
                            where);
        }
      }
    }
    SetMarshalSpecializationEnabled(was_enabled);
    std::memset(user_, 0, file_size_);
    return 2 * 2 * kChecks;  // two stubs, fused and interpreted
  }

  Status ReplaySetup(double* parse_ms, double* pdl_ms,
                     double* build_ms) override {
    constexpr int kReps = 9;
    std::vector<double> parse, pdl, build;
    for (int rep = 0; rep < kReps; ++rep) {
      DiagnosticSink diags;
      uint64_t t0 = NowNs();
      std::unique_ptr<InterfaceFile> idl =
          ParseSunRpc(NfsIdlText(), "nfs.x", &diags);
      if (idl == nullptr || !AnalyzeInterfaceFile(idl.get(), &diags)) {
        return InternalError("NFS IDL replay failed: " + diags.ToString());
      }
      uint64_t t1 = NowNs();
      PresentationSet default_pres;
      PresentationSet special_pres;
      if (!ApplyPdl(*idl, Side::kClient, nullptr, &default_pres, &diags) ||
          !ApplyPdlText(*idl, Side::kClient, NfsClientPdlText(), "nfs.pdl",
                        &special_pres, &diags)) {
        return InternalError("NFS PDL replay failed: " + diags.ToString());
      }
      uint64_t t2 = NowNs();
      const OperationDecl* op =
          idl->FindInterface("NFS_VERSION")->FindOp("NFSPROC_READ");
      MarshalProgram a = MarshalProgram::Build(
          *op, *default_pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
      MarshalProgram b = MarshalProgram::Build(
          *op, *special_pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
      uint64_t t3 = NowNs();
      if (a.slot_count() == 0 || b.slot_count() == 0) {
        return InternalError("NFS marshal program replay built no slots");
      }
      parse.push_back(static_cast<double>(t1 - t0) * 1e-6);
      pdl.push_back(static_cast<double>(t2 - t1) * 1e-6);
      build.push_back(static_cast<double>(t3 - t2) * 1e-6);
    }
    *parse_ms = Median(parse);
    *pdl_ms = Median(pdl);
    *build_ms = Median(build);
    return Status::Ok();
  }

  PassOutcome RunPass(size_t variant, bool traced, bool capture) override {
    DatagramHandler handler = NfsFileServer::MakeHandler(server_.get());
    if (traced) {
      handler = [base = std::move(handler)](ByteSpan request,
                                            std::vector<uint8_t>* reply) {
        Span span(Layer::kServer);
        return base(request, reply);
      };
    }
    std::memset(user_, 0, file_size_);
    PassOutcome out = bulk_ ? RunBulk(variant, std::move(handler), capture)
                            : RunSmall(variant, std::move(handler), capture);
    Verify(variant, &out);
    return out;
  }

 private:
  struct Chunk {
    uint32_t offset;
    uint32_t count;
  };

  // Per-call outcome, verified against the file after the pass.
  struct CallResult {
    Status status = Status::Ok();
    bool done = false;
    uint32_t delivered = 0;
    uint64_t submit_vns = 0;
    uint64_t done_vns = 0;
  };

  NfsClient::ChunkArgs Args(const Chunk& c) {
    return NfsClient::ChunkArgs{fh_, c.offset, c.count, user_ + c.offset};
  }

  // One call's reply: header, then the stub's decode into the user buffer.
  Status DecodeOne(NfsClient::StubKind kind, const NfsClient::ChunkArgs& args,
                   uint32_t xid, const std::vector<uint8_t>& reply,
                   uint32_t* delivered) {
    Span span(Layer::kDecode);
    XdrReader reader(ByteSpan(reply.data(), reply.size()));
    Status st = DecodeSunRpcReplySuccess(&reader, xid);
    if (!st.ok()) {
      return st;
    }
    auto got = client_->DecodeReply(kind, args, &reader);
    if (!got.ok()) {
      return got.status();
    }
    *delivered = *got;
    return Status::Ok();
  }

  Status EncodeOne(NfsClient::StubKind kind, const NfsClient::ChunkArgs& args,
                   uint32_t xid, XdrWriter* request) {
    Span span(Layer::kEncode);
    EncodeSunRpcCall(request,
                     SunRpcCall{xid, kNfsProgram, kNfsVersion, kNfsProcRead});
    return client_->EncodeRequest(kind, args, request).status();
  }

  // nfs_small: window 1, one call at a time through PipelinedTransport::
  // Call; each call is timed from its encode to the end of its decode.
  PassOutcome RunSmall(size_t variant, DatagramHandler handler,
                       bool capture) {
    constexpr NfsClient::StubKind kKind =
        NfsClient::StubKind::kGeneratedUserBuffer;
    const std::vector<Chunk>& chunks = chunks_[variant];
    VirtualClock clock;
    DatagramChannel channel(LinkModel(), FaultPlan(faults_[variant][0]),
                            FaultPlan(faults_[variant][1]), &clock);
    EventQueue events(&clock);
    PipelinePolicy policy;
    policy.window = 1;
    PipelinedTransport transport(&channel, std::move(handler),
                                 RemoteServerModel(), policy, &events);
    PassOutcome out;
    results_.assign(chunks.size(), CallResult());
    out.host_call_ns.reserve(chunks.size());
    const uint64_t pass_start = NowNs();
    for (size_t i = 0; i < chunks.size(); ++i) {
      const uint32_t xid = static_cast<uint32_t>(i + 1);
      const NfsClient::ChunkArgs args = Args(chunks[i]);
      CallResult& r = results_[i];
      const uint64_t t0 = NowNs();
      g_ledger.Begin(Layer::kRoot);
      XdrWriter request;
      r.status = EncodeOne(kKind, args, xid, &request);
      std::vector<uint8_t> reply;
      r.submit_vns = clock.now_nanos();
      if (r.status.ok()) {
        Span span(Layer::kTransport);
        r.status = transport.Call(xid, request.span(), &reply);
      }
      r.done_vns = clock.now_nanos();
      if (r.status.ok()) {
        r.status = DecodeOne(kKind, args, xid, reply, &r.delivered);
      }
      g_ledger.End();
      out.host_call_ns.push_back(NowNs() - t0);
      r.done = true;
      if (capture) {
        out.requests.emplace_back(request.span().begin(),
                                  request.span().end());
        out.replies.push_back(std::move(reply));
      }
    }
    out.host_ns = NowNs() - pass_start;
    out.virtual_ns = clock.now_nanos();
    const PipelinedTransport::Stats& s = transport.stats();
    out.counts.events = s.events;
    out.counts.retransmits = s.retransmits;
    out.counts.dup_hits = s.dup_cache_hits;
    out.counts.dup_lookups = s.dup_cache_hits + s.dup_cache_misses;
    out.counts.checksum_failures = channel.stats().checksum_failures;
    return out;
  }

  // nfs_bulk: the client keeps kBulkWindow reads outstanding; each
  // completion decodes its reply and submits the next read. The adaptive
  // transport's AIMD window is capped at the same size.
  PassOutcome RunBulk(size_t variant, DatagramHandler handler, bool capture) {
    constexpr NfsClient::StubKind kKind =
        NfsClient::StubKind::kGeneratedConventional;
    const std::vector<Chunk>& chunks = chunks_[variant];
    VirtualClock clock;
    DatagramChannel channel(LinkModel(), FaultPlan(faults_[variant][0]),
                            FaultPlan(faults_[variant][1]), &clock);
    EventQueue events(&clock);
    PipelinePolicy policy;
    policy.window = kBulkWindow;
    policy.retry.adaptive.enabled = true;
    policy.retry.adaptive.rtt.initial_rto_nanos = 100'000'000;
    policy.retry.adaptive.rtt.min_rto_nanos = 5'000'000;
    policy.retry.adaptive.window.max_window = kBulkWindow;
    PipelinedTransport transport(&channel, std::move(handler),
                                 RemoteServerModel(), policy, &events);
    PassOutcome out;
    results_.assign(chunks.size(), CallResult());
    if (capture) {
      out.requests.resize(chunks.size());
      out.replies.resize(chunks.size());
    }
    std::vector<uint64_t> stamps;
    stamps.reserve(chunks.size() + 1);
    size_t next = 0;

    // Encodes and submits the next read; a read whose encode fails is
    // recorded as failed and the following one is tried instead.
    std::function<void()> submit_next = [&]() {
      while (next < chunks.size()) {
        const size_t i = next++;
        const uint32_t xid = static_cast<uint32_t>(i + 1);
        const NfsClient::ChunkArgs args = Args(chunks[i]);
        CallResult& r = results_[i];
        XdrWriter request;
        r.status = EncodeOne(kKind, args, xid, &request);
        r.submit_vns = clock.now_nanos();
        if (!r.status.ok()) {
          r.done = true;
          continue;
        }
        if (capture) {
          out.requests[i].assign(request.span().begin(),
                                 request.span().end());
        }
        Span span(Layer::kTransport);
        transport.Submit(
            xid, request.span(),
            [&, i, xid, args](Status st, std::vector<uint8_t> reply) {
              Span bench(Layer::kBench);
              stamps.push_back(NowNs());
              CallResult& c = results_[i];
              c.done = true;
              c.done_vns = clock.now_nanos();
              c.status = st.ok()
                             ? DecodeOne(kKind, args, xid, reply, &c.delivered)
                             : st;
              if (capture) {
                out.replies[i] = std::move(reply);
              }
              submit_next();
            });
        return;
      }
    };

    const uint64_t pass_start = NowNs();
    stamps.push_back(pass_start);
    g_ledger.Begin(Layer::kRoot);
    for (uint32_t w = 0; w < kBulkWindow; ++w) {
      submit_next();
    }
    Status driven;
    {
      Span span(Layer::kTransport);
      driven = transport.Drive();
    }
    g_ledger.End();
    out.host_ns = NowNs() - pass_start;
    if (!driven.ok()) {
      out.errors.push_back("transport stalled: " + driven.ToString());
    }
    BlockSamples(stamps, &out.host_call_ns);
    out.virtual_ns = clock.now_nanos();
    const PipelinedTransport::Stats& s = transport.stats();
    out.counts.events = s.events;
    out.counts.retransmits = s.retransmits;
    out.counts.dup_hits = s.dup_cache_hits;
    out.counts.dup_lookups = s.dup_cache_hits + s.dup_cache_misses;
    out.counts.checksum_failures = channel.stats().checksum_failures;
    return out;
  }

  // Every call must have completed OK, delivered exactly its count, and
  // left the file's bytes in its region of the user buffer.
  void Verify(size_t variant, PassOutcome* out) {
    const std::vector<Chunk>& chunks = chunks_[variant];
    out->calls = chunks.size();
    out->vcall_ns.reserve(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      const Chunk& c = chunks[i];
      const CallResult& r = results_[i];
      if (!r.done || !r.status.ok()) {
        out->Fail("call " + std::to_string(i) + " failed: " +
                  (r.done ? r.status.ToString() : "never completed"));
        continue;
      }
      if (r.delivered != c.count) {
        out->Fail("call " + std::to_string(i) + " delivered " +
                  std::to_string(r.delivered) + " of " +
                  std::to_string(c.count) + " bytes");
        continue;
      }
      if (std::memcmp(user_ + c.offset, server_->content() + c.offset,
                      c.count) != 0) {
        out->Fail("call " + std::to_string(i) +
                  ": user buffer differs from the file");
        continue;
      }
      out->bytes += c.count;
      out->vcall_ns.push_back(r.done_vns - r.submit_vns);
    }
  }

  bool bulk_;
  size_t file_size_ = 0;
  std::unique_ptr<NfsFileServer> server_;
  std::unique_ptr<NfsClient> client_;
  uint8_t* user_ = nullptr;  // in the client's user address space
  uint8_t fh_[kNfsFhSize];
  std::vector<std::vector<Chunk>> chunks_;            // per variant
  std::vector<std::array<FaultConfig, 2>> faults_;    // per variant, a2b/b2a
  std::vector<CallResult> results_;
};

// fleet: open-loop Poisson arrivals from many connections over one
// ConnectionMux into a ServerDispatch worker pool, on a clean wire.
class FleetWorkload : public Workload {
 public:
  static constexpr size_t kVariants = 16;
  static constexpr uint32_t kClients = 300;
  static constexpr uint64_t kMeanInterarrivalNanos = 3'000'000;
  static constexpr uint64_t kArrivalWindowNanos = 200'000'000;
  static constexpr uint32_t kMaxBody = 8192;

  size_t variants() const override { return kVariants; }
  LinkModel::Config link() const override { return FleetLinkConfig(); }

  void Setup(uint64_t seed) override {
    for (size_t j = 0; j < sizeof(pattern_); ++j) {
      pattern_[j] = static_cast<uint8_t>(j & 0xFF);
    }
    schedules_.assign(kVariants, Schedule());
    for (size_t v = 0; v < kVariants; ++v) {
      Generate(Mix(seed, 1000 + v), &schedules_[v]);
    }
    // The server stack a pass builds: one mux with every connection open
    // and the dispatch pool behind it.
    VirtualClock clock;
    EventQueue events(&clock);
    DatagramChannel channel(LinkModel(FleetLinkConfig()), FaultPlan(),
                            FaultPlan(), &clock);
    ConnectionMux mux(&channel, MuxPolicy(), &events);
    ServerDispatch dispatch(&channel, DatagramHandler(), Policy(), &events);
    for (uint32_t c = 0; c < kClients; ++c) {
      mux.OpenConnection();
    }
  }

  // Every arrival (time, connection, op and sizes) of every variant.
  uint64_t InputDigest() const override {
    uint64_t h = 0;
    for (const Schedule& s : schedules_) {
      for (const Call& c : s.calls) {
        h = HashWord(HashWord(HashWord(h, c.at_nanos), c.client),
                     (uint64_t{c.op} << 48) | (uint64_t{c.request_bytes} << 24) |
                         c.reply_bytes);
      }
    }
    return h;
  }

  PassOutcome RunPass(size_t variant, bool traced, bool capture) override {
    const Schedule& sched = schedules_[variant];
    VirtualClock clock;
    EventQueue events(&clock);
    DatagramChannel channel(LinkModel(FleetLinkConfig()), FaultPlan(),
                            FaultPlan(), &clock);
    ConnectionMux mux(&channel, MuxPolicy(), &events);

    // Executions per (conn, xid): the at-most-once evidence.
    std::vector<std::vector<uint16_t>> executions(kClients);
    for (uint32_t c = 0; c < kClients; ++c) {
      executions[c].assign(sched.per_client[c] + 1, 0);
    }
    uint64_t bad_requests = 0;
    DatagramHandler handler = [&](ByteSpan request,
                                  std::vector<uint8_t>* reply) {
      return Handle(request, reply, &executions, &bad_requests);
    };
    if (traced) {
      handler = [&](ByteSpan request, std::vector<uint8_t>* reply) {
        Span span(Layer::kHandler);
        return Handle(request, reply, &executions, &bad_requests);
      };
    }
    ServerDispatch dispatch(&channel, std::move(handler), Policy(), &events);
    mux.set_request_listener([&dispatch]() { dispatch.Poke(); });
    dispatch.set_reply_listener([&mux]() { mux.Poke(); });
    std::vector<uint32_t> conns(kClients);
    for (uint32_t c = 0; c < kClients; ++c) {
      conns[c] = mux.OpenConnection();
    }

    PassOutcome out;
    out.calls = sched.calls.size();
    std::vector<uint64_t> submit_vns(sched.calls.size(), 0);
    std::vector<uint64_t> done_vns(sched.calls.size(), 0);
    std::vector<uint8_t> state(sched.calls.size(), 0);  // 1 ok, 2 failed
    std::vector<uint64_t> stamps;
    stamps.reserve(sched.calls.size() + 1);
    if (capture) {
      out.requests.resize(sched.calls.size());
      out.replies.resize(sched.calls.size());
    }
    std::vector<uint8_t> body;
    body.reserve(kMaxBody);
    for (size_t k = 0; k < sched.calls.size(); ++k) {
      events.ScheduleAt(sched.calls[k].at_nanos, [&, k]() {
        const Call& call = sched.calls[k];
        submit_vns[k] = clock.now_nanos();
        {
          Span bench(Layer::kBench);
          BuildBody(call, &body);
        }
        mux.Submit(
            conns[call.client], ByteSpan(body.data(), body.size()),
            [&, k](Status st, std::vector<uint8_t> reply) {
              Span bench(Layer::kBench);
              stamps.push_back(NowNs());
              done_vns[k] = clock.now_nanos();
              state[k] = st.ok() && ReplyMatches(sched.calls[k],
                                                 conns[sched.calls[k].client],
                                                 reply)
                             ? 1
                             : 2;
              if (capture && reply.size() >= 8) {
                std::vector<uint8_t> sent;
                BuildBody(sched.calls[k], &sent);
                std::vector<uint8_t>& req = out.requests[k];
                req.assign(reply.begin(), reply.begin() + 8);
                req.insert(req.end(), sent.begin(), sent.end());
                out.replies[k] = std::move(reply);
              }
            });
      });
    }

    const uint64_t pass_start = NowNs();
    stamps.push_back(pass_start);
    g_ledger.Begin(Layer::kRoot);
    {
      Span span(Layer::kTransport);
      while (events.RunNext()) {
      }
    }
    g_ledger.End();
    out.host_ns = NowNs() - pass_start;
    BlockSamples(stamps, &out.host_call_ns);

    if (mux.outstanding() != 0) {
      out.errors.push_back("fleet stalled with " +
                           std::to_string(mux.outstanding()) +
                           " calls outstanding");
    }
    if (bad_requests != 0) {
      out.Fail(std::to_string(bad_requests) +
               " requests reached the server malformed");
    }
    uint64_t first = UINT64_MAX;
    uint64_t last = 0;
    out.vcall_ns.reserve(sched.calls.size());
    for (size_t k = 0; k < sched.calls.size(); ++k) {
      const Call& call = sched.calls[k];
      const uint16_t runs = executions[call.client][call.xid];
      if (state[k] != 1 || runs != 1) {
        out.Fail("fleet call " + std::to_string(k) + " (conn " +
                 std::to_string(conns[call.client]) + ", xid " +
                 std::to_string(call.xid) + "): " +
                 (state[k] == 0   ? "never completed"
                  : state[k] == 2 ? "failed or reply mismatch"
                                  : "executed " + std::to_string(runs) +
                                        " times"));
        continue;
      }
      out.bytes += call.file_bytes;
      out.vcall_ns.push_back(done_vns[k] - submit_vns[k]);
      first = std::min(first, submit_vns[k]);
      last = std::max(last, done_vns[k]);
    }
    for (const std::vector<uint16_t>& per_conn : executions) {
      for (uint16_t runs : per_conn) {
        if (runs > 1) {
          out.Fail("an xid executed more than once");
        }
      }
    }
    out.virtual_ns = last > first ? last - first : 0;
    const ConnectionMux::Stats& m = mux.stats();
    const ServerDispatch::Stats& d = dispatch.stats();
    out.counts.events = m.events + d.events;
    out.counts.retransmits = m.retransmits;
    out.counts.dup_hits = dispatch.endpoint().hits();
    out.counts.dup_lookups =
        dispatch.endpoint().hits() + dispatch.endpoint().misses();
    out.counts.checksum_failures = channel.stats().checksum_failures;
    out.counts.busy_nanos = d.busy_nanos;
    out.counts.busy_capacity_nanos = Policy().workers * out.virtual_ns;
    out.counts.max_queue_depth = d.max_queue_depth;
    out.counts.flow_stalls = m.flow_stalls;
    return out;
  }

 private:
  struct Call {
    uint64_t at_nanos = 0;
    uint32_t client = 0;         // index into the pass's connections
    uint32_t xid = 0;            // the mux's per-connection xid
    uint32_t op = 0;
    uint32_t request_bytes = 0;  // body size
    uint32_t reply_bytes = 0;    // requested reply body size
    uint32_t file_bytes = 0;     // read reply data or write request data
  };
  struct Schedule {
    std::vector<Call> calls;
    std::vector<uint32_t> per_client;  // calls per client
  };

  // The src/sim/fleet.h NFS op mix; weights sum to 100. A zero size is
  // drawn per call from kBulkSizes (bimodal read replies and writes).
  struct OpSpec {
    uint32_t weight;
    uint32_t op;
    uint32_t request_body_bytes;
    uint32_t reply_body_bytes;
  };
  static constexpr OpSpec kOps[] = {
      {40, 0, 120, 112},  // getattr
      {26, 1, 168, 128},  // lookup
      {22, 2, 136, 0},    // read: reply size drawn
      {8, 3, 0, 32},      // write: request size drawn
      {4, 4, 152, 512},   // readdir
  };
  static constexpr uint32_t kBulkSizes[] = {512, 2048, 8192};

  static DispatchPolicy Policy() {
    DispatchPolicy p;
    p.workers = 8;
    p.service.per_call_sec = 50e-6;
    p.service.per_byte_sec = 20e-9;
    p.run_queue_limit = 64;
    p.cache_capacity = 64;
    return p;
  }

  void Generate(uint64_t seed, Schedule* s) {
    s->per_client.assign(kClients, 0);
    for (uint32_t c = 0; c < kClients; ++c) {
      Rng rng(Mix(seed, c));
      uint64_t t = 0;
      for (;;) {
        double gap = -std::log(1.0 - rng.NextDouble()) *
                     static_cast<double>(kMeanInterarrivalNanos);
        t += gap < 1.0 ? 1 : static_cast<uint64_t>(gap);
        if (t >= kArrivalWindowNanos) {
          break;
        }
        uint64_t draw = rng.NextBelow(100);
        const OpSpec* spec = &kOps[0];
        for (const OpSpec& candidate : kOps) {
          spec = &candidate;
          if (draw < candidate.weight) {
            break;
          }
          draw -= candidate.weight;
        }
        Call call;
        call.at_nanos = t;
        call.client = c;
        call.xid = ++s->per_client[c];
        uint32_t request = spec->request_body_bytes != 0
                               ? spec->request_body_bytes
                               : kBulkSizes[rng.NextBelow(3)];
        call.reply_bytes = spec->reply_body_bytes != 0
                               ? spec->reply_body_bytes
                               : kBulkSizes[rng.NextBelow(3)];
        call.file_bytes = spec->op == 2   ? call.reply_bytes
                          : spec->op == 3 ? request
                                          : 0;
        call.op = spec->op;
        call.request_bytes = request;
        s->calls.push_back(call);
      }
    }
  }

  // The fleet server: checks the request's pad, counts the execution and
  // answers [xid][conn] plus reply_size pattern bytes.
  Status Handle(ByteSpan request, std::vector<uint8_t>* reply,
                std::vector<std::vector<uint16_t>>* executions,
                uint64_t* bad_requests) const {
    if (request.size() < 16 || request.size() > 8 + kMaxBody) {
      ++*bad_requests;
      return InvalidArgumentError("fleet request has a bad length");
    }
    const uint32_t xid = LoadBe32(request.data());
    const uint32_t conn = LoadBe32(request.data() + 4);
    const uint32_t reply_size = LoadBe32(request.data() + 12);
    if (conn == 0 || conn > kClients || xid == 0 ||
        xid >= (*executions)[conn - 1].size() || reply_size > kMaxBody ||
        std::memcmp(request.data() + 16, pattern_ + 8, request.size() - 16) !=
            0) {
      ++*bad_requests;
      return InvalidArgumentError("fleet request failed its checks");
    }
    ++(*executions)[conn - 1][xid];
    reply->resize(8 + reply_size);
    std::memcpy(reply->data(), request.data(), 8);
    std::memcpy(reply->data() + 8, pattern_ + (xid & 0xFF), reply_size);
    return Status::Ok();
  }

  // A call's request body: [op u32][reply_size u32][pad], pad byte j being
  // j & 0xFF. Built at submission, not stored: the mux copies it.
  void BuildBody(const Call& call, std::vector<uint8_t>* body) const {
    body->assign(pattern_, pattern_ + call.request_bytes);
    StoreBe32(body->data(), call.op);
    StoreBe32(body->data() + 4, call.reply_bytes);
  }

  bool ReplyMatches(const Call& call, uint32_t conn,
                    const std::vector<uint8_t>& reply) const {
    return reply.size() == 8 + call.reply_bytes &&
           LoadBe32(reply.data()) == call.xid &&
           LoadBe32(reply.data() + 4) == conn &&
           std::memcmp(reply.data() + 8, pattern_ + (call.xid & 0xFF),
                       call.reply_bytes) == 0;
  }

  std::vector<Schedule> schedules_;
  uint8_t pattern_[256 + 8 + kMaxBody];  // pattern_[j] == j & 0xFF
};

// ---- Replays -------------------------------------------------------------
//
// The checksum and channel costs sit inside the transport span, where this
// file cannot open spans. They are replayed instead, over the datagrams
// the first counting pass captured: one request and one reply per call
// (frames that faults retransmit or duplicate are not replayed). Each
// replay runs kReplayReps times; the median total counts.
constexpr int kReplayReps = 5;

// DatagramChecksum over every payload twice: once at send, once at verify.
double ReplayChecksums(const PassOutcome& p) {
  std::vector<double> totals;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    uint64_t t0 = NowNs();
    for (const auto* frames : {&p.requests, &p.replies}) {
      for (const std::vector<uint8_t>& f : *frames) {
        ByteSpan span(f.data(), f.size());
        (void)DatagramChecksum(span);
        (void)DatagramChecksum(span);
      }
    }
    totals.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(totals);
}

// Send + Receive of every datagram on a clean side channel in scheduled
// mode; the side clock is moved to each frame's delivery time.
double ReplayChannel(const PassOutcome& p, const LinkModel::Config& link) {
  std::vector<double> totals;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    VirtualClock clock;
    DatagramChannel side(LinkModel(link), FaultPlan(), FaultPlan(), &clock);
    side.set_scheduled_delivery(true);
    auto one = [&](DatagramChannel::Dir dir, const std::vector<uint8_t>& f) {
      side.Send(dir, ByteSpan(f.data(), f.size()));
      std::optional<uint64_t> at = side.NextDeliveryNanos(dir);
      if (at && *at > clock.now_nanos()) {
        clock.AdvanceNanos(*at - clock.now_nanos());
      }
      (void)side.Receive(dir);
    };
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < p.requests.size(); ++i) {
      one(DatagramChannel::Dir::kAtoB, p.requests[i]);
      one(DatagramChannel::Dir::kBtoA, p.replies[i]);
    }
    totals.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(totals);
}

// ---- Reporting -----------------------------------------------------------

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // samples behind the value, its base, or "replay"
};

// Nearest-rank percentile over exact samples; the virtual latencies use it
// because they run to hundreds of ms, past the Histogram's exact range.
// The caller reports the sample count next to the value.
double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]);
}

double RatioOr0(double num, double den) { return den > 0 ? num / den : 0; }

std::string SamplesNote(size_t n, double q) {
  std::string note = "n=" + std::to_string(n);
  const double beyond = static_cast<double>(n) * (1.0 - q);
  if (q < 0.999 && beyond < 10) {
    note += " (fewer than 10 samples beyond this percentile)";
  }
  return note;
}

double RssPeakMB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string detail;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o->seconds >= 0;
    } else if (flag == "--trace") {
      o->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--detail") {
      o->detail = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && o->trace >= 0 &&
         (o->workload == "nfs_small" || o->workload == "nfs_bulk" ||
          o->workload == "fleet");
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fleet") {
    return std::make_unique<FleetWorkload>();
  }
  return std::make_unique<NfsWorkload>(name == "nfs_bulk");
}

uint64_t Verified(const PassOutcome& p) {
  return p.calls - std::min(p.calls, p.failed);
}

// The whole run's tallies.
struct Run {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<uint64_t> digests;  // per variant, from its first pass
  Histogram host_call_ns;
  std::vector<double> pass_cps;  // verified calls per host second
  std::vector<double> pass_mbps;

  // Tallies a pass, checks it against its variant's first digest, and
  // keeps its host samples when `timed`.
  void Add(size_t variant, PassOutcome& p, bool timed) {
    attempted += p.calls;
    failed += p.failed;
    for (std::string& e : p.errors) {
      if (errors.size() < 16) {
        errors.push_back(std::move(e));
      }
    }
    if (!p.errors.empty() && p.failed == 0) {
      failed += 1;  // a pass-level failure (e.g. a stalled transport)
    }
    const uint64_t d = p.Digest();
    if (digests[variant] == 0) {
      digests[variant] = d;
    } else if (digests[variant] != d) {
      ++failed;
      errors.push_back("variant " + std::to_string(variant) +
                       " did not reproduce its virtual-clock outcome");
    }
    if (timed && p.host_ns > 0) {
      const double secs = static_cast<double>(p.host_ns) * 1e-9;
      pass_cps.push_back(static_cast<double>(Verified(p)) / secs);
      pass_mbps.push_back(static_cast<double>(p.bytes) / secs / 1e6);
      for (uint64_t ns : p.host_call_ns) {
        host_call_ns.Add(ns);
      }
    }
  }
};

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: flexbench --workload nfs_small|nfs_bulk|fleet "
                 "--seed N --seconds S --trace 0|1 [--detail FILE]\n");
    return 2;
  }

  // setup_s: the set-up is repeated and its median reported.
  constexpr int kSetupReps = 15;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const uint64_t t0 = NowNs();
    w = MakeWorkload(opt.workload);
    w->Setup(opt.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  Run run;
  run.digests.assign(w->variants(), 0);
  run.attempted += w->Preflight(&run.errors);
  run.failed += run.errors.size();

  std::vector<Metric> metrics;
  std::vector<Metric> extra;  // detail-file only
  const size_t k = w->variants();

  // A warm-up pass, checked but not timed.
  {
    PassOutcome p = w->RunPass(0, false, false);
    run.Add(0, p, false);
  }

  if (opt.trace == 0) {
    std::vector<uint64_t> vcall_ns;
    uint64_t vbytes = 0;
    uint64_t vnanos = 0;
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(opt.seconds * 1e9);
    for (size_t pass = 0; pass < k || NowNs() < deadline; ++pass) {
      PassOutcome p = w->RunPass(pass % k, false, false);
      if (pass < k) {
        vcall_ns.insert(vcall_ns.end(), p.vcall_ns.begin(), p.vcall_ns.end());
        vbytes += p.bytes;
        vnanos += p.virtual_ns;
      }
      run.Add(pass % k, p, true);
    }
    const size_t nh = run.host_call_ns.count();
    const size_t nv = vcall_ns.size();
    metrics = {
        {"calls_per_s", Median(run.pass_cps), "1/s",
         "median of " + std::to_string(run.pass_cps.size()) + " passes"},
        {"MB_per_s", Median(run.pass_mbps), "MB/s",
         "median of " + std::to_string(run.pass_mbps.size()) + " passes"},
        {"call_us_p50", run.host_call_ns.Quantile(0.50) / 1e3, "us",
         SamplesNote(nh, 0.50)},
        {"call_us_p99", run.host_call_ns.Quantile(0.99) / 1e3, "us",
         SamplesNote(nh, 0.99)},
        {"v_MB_per_s",
         RatioOr0(static_cast<double>(vbytes),
                  static_cast<double>(vnanos) * 1e-9) /
             1e6,
         "MB/s", std::to_string(k) + " variant passes"},
        {"vcall_us_p50", Percentile(vcall_ns, 0.50) / 1e3, "us",
         SamplesNote(nv, 0.50)},
        {"vcall_us_p99", Percentile(vcall_ns, 0.99) / 1e3, "us",
         SamplesNote(nv, 0.99)},
        {"setup_s", Median(setup_s), "s",
         "median of " + std::to_string(kSetupReps)},
        {"verified_ratio",
         RatioOr0(static_cast<double>(
                      run.attempted - std::min(run.failed, run.attempted)),
                  static_cast<double>(run.attempted)),
         "ratio", "base " + std::to_string(run.attempted) + " calls"},
        {"rss_peak_MB", RssPeakMB(), "MB", ""},
    };
  } else {
    // Counting passes: registry counters and layer Stats, one pass per
    // variant (deterministic). The first also captures its datagrams for
    // the replays.
    PassOutcome captured;
    TraceSnapshot reg;
    LayerCounts counts;
    uint64_t counted_calls = 0;
    for (size_t v = 0; v < k; ++v) {
      TraceSession session;
      PassOutcome p = w->RunPass(v, false, v == 0);
      TraceSnapshot delta = session.Report();
      for (size_t c = 0; c < kTraceCounterCount; ++c) {
        reg.counters[c] += delta.counters[c];
      }
      counts.Add(p.counts);
      counted_calls += p.calls;
      run.Add(v, p, false);
      if (v == 0) {
        captured = std::move(p);
      }
    }
    const double replayed_calls = static_cast<double>(captured.calls);
    const double checksum_ns =
        RatioOr0(ReplayChecksums(captured), replayed_calls);
    const double channel_ns =
        RatioOr0(ReplayChannel(captured, w->link()), replayed_calls);
    captured = PassOutcome();

    // Virtual phases from the flight recorder, over the first few
    // variants (analysing a recording costs more host time than the pass).
    constexpr size_t kRecordedVariants = 4;
    uint64_t ph_total = 0, ph_queued = 0, ph_wire = 0, ph_server = 0;
    uint64_t ph_wait = 0;
    uint64_t ph_calls = 0, rec_dropped = 0;
    for (size_t v = 0; v < std::min(k, kRecordedVariants); ++v) {
      RecorderSession rec(1u << 19);
      PassOutcome p = w->RunPass(v, false, false);
      Recording recording = rec.Stop();
      run.Add(v, p, false);
      RecordingAnalysis a = AnalyzeRecording(recording);
      rec_dropped += a.dropped_events;
      for (const CallBreakdown& c : a.calls) {
        if (!c.complete || c.truncated) {
          continue;
        }
        ++ph_calls;
        ph_total += c.total_nanos;
        ph_queued += c.queued_nanos;
        ph_wire += c.req_wire_nanos + c.req_prop_nanos + c.reply_wire_nanos +
                   c.reply_prop_nanos;
        ph_server += c.server_exec_nanos;
        ph_wait += c.wait_nanos;
      }
    }

    double parse_ms = 0, pdl_ms = 0, build_ms = 0;
    Status replayed = w->ReplaySetup(&parse_ms, &pdl_ms, &build_ms);
    if (!replayed.ok()) {
      ++run.failed;
      run.errors.push_back(replayed.ToString());
    }

    // Timed passes alternate untraced and traced; the traced ones feed
    // the ledger and the registry.
    std::vector<double> cps[2];
    uint64_t traced_calls = 0;
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(opt.seconds * 1e9);
    for (size_t pass = 0; pass < 2 || NowNs() < deadline; ++pass) {
      const bool traced = pass % 2 == 1;
      const size_t v = (pass / 2) % k;
      PassOutcome p;
      if (traced) {
        TraceSession session;
        g_ledger.set_enabled(true);
        p = w->RunPass(v, true, false);
        g_ledger.set_enabled(false);
        traced_calls += p.calls;
      } else {
        p = w->RunPass(v, false, false);
      }
      run.Add(v, p, false);
      cps[traced].push_back(static_cast<double>(Verified(p)) /
                            (static_cast<double>(p.host_ns) * 1e-9));
    }

    const double tc = static_cast<double>(traced_calls);
    const double cc = static_cast<double>(counted_calls);
    auto per_call = [tc](uint64_t ns) {
      return RatioOr0(static_cast<double>(ns), tc);
    };
    const uint64_t unattributed =
        g_ledger.self(Layer::kRoot) + g_ledger.self(Layer::kBench);
    uint64_t layer_sum = 0;
    for (size_t l = 0; l < kLayerCount; ++l) {
      layer_sum += g_ledger.self(static_cast<Layer>(l));
    }
    if (layer_sum != g_ledger.span()) {
      ++run.failed;
      run.errors.push_back("ledger self times do not sum to the call span");
    }
    const bool fleet = opt.workload == "fleet";
    const double transport_self = per_call(g_ledger.self(Layer::kTransport));
    const std::string rbase = "replay, per call, base " +
                              FormatNumber(replayed_calls) + " captured calls";
    auto count = [&reg](TraceCounter c) {
      return static_cast<double>(reg.counter(c));
    };
    const double spec_lookups = count(TraceCounter::kMarshalSpecHits) +
                                count(TraceCounter::kMarshalSpecMisses);
    const double untraced_cps = Median(cps[0]);
    const double traced_cps = Median(cps[1]);
    const std::string tbase = "per call, base " +
                              std::to_string(traced_calls) + " traced calls";
    const std::string cbase =
        "per call, base " + std::to_string(counted_calls) + " counted calls";
    metrics = {
        {"call_span_ns", per_call(g_ledger.span()), "ns", tbase},
        {"apps.encode_ns", per_call(g_ledger.self(Layer::kEncode)), "ns",
         tbase},
        {"apps.decode_ns", per_call(g_ledger.self(Layer::kDecode)), "ns",
         tbase},
        {"apps.server_ns", per_call(g_ledger.self(Layer::kServer)), "ns",
         tbase},
        {"rpc.transport_self_ns", transport_self, "ns", tbase},
        {"fleet.handler_ns", per_call(g_ledger.self(Layer::kHandler)), "ns",
         tbase},
        {"fleet.loop_self_ns", fleet ? transport_self : 0, "ns", tbase},
        {"unattributed_ns", per_call(unattributed), "ns", tbase},
        {"net.checksum_ns", checksum_ns, "ns", rbase},
        {"net.channel_ns", channel_ns, "ns", rbase},
        {"rpc.engine_ns", transport_self - channel_ns, "ns",
         "transport_self minus the channel replay"},
        {"idl.parse_ms", parse_ms, "ms", "replay, median of 9"},
        {"pdl.apply_ms", pdl_ms, "ms", "replay, median of 9"},
        {"marshal.build_ms", build_ms, "ms", "replay, median of 9"},
        {"marshal.spec_hit_ratio",
         RatioOr0(count(TraceCounter::kMarshalSpecHits), spec_lookups),
         "ratio", "base marshal.spec_lookups"},
        {"marshal.spec_lookups", spec_lookups, "count", "counted passes"},
        {"mem.copy_bytes_per_call",
         RatioOr0(count(TraceCounter::kDataCopyBytes), cc), "B", cbase},
        {"net.frame_copies_per_call",
         RatioOr0(count(TraceCounter::kNetFrameCopies), cc), "count", cbase},
        {"net.bytes_on_wire_per_call",
         RatioOr0(count(TraceCounter::kNetBytesOnWire), cc), "B", cbase},
        {"arena.block_allocs_per_call",
         RatioOr0(count(TraceCounter::kArenaBlockAllocs), cc), "count",
         cbase},
        {"events_per_call", RatioOr0(static_cast<double>(counts.events), cc),
         "count", cbase},
        {"rpc.retransmits_per_call",
         RatioOr0(static_cast<double>(counts.retransmits), cc), "count",
         cbase},
        {"rpc.dupcache_hit_ratio",
         RatioOr0(static_cast<double>(counts.dup_hits),
                  static_cast<double>(counts.dup_lookups)),
         "ratio", "base rpc.dupcache_lookups"},
        {"rpc.dupcache_lookups", static_cast<double>(counts.dup_lookups),
         "count", "counted passes"},
        {"net.checksum_failures",
         static_cast<double>(counts.checksum_failures), "count",
         "counted passes"},
        {"dispatch.busy_frac",
         RatioOr0(static_cast<double>(counts.busy_nanos),
                  static_cast<double>(counts.busy_capacity_nanos)),
         "ratio", "base workers x virtual span"},
        {"dispatch.max_queue_depth",
         static_cast<double>(counts.max_queue_depth), "count",
         "counted passes"},
        {"mux.flow_stalls", static_cast<double>(counts.flow_stalls), "count",
         "counted passes"},
        {"phase.queued_pct",
         100 * RatioOr0(static_cast<double>(ph_queued),
                        static_cast<double>(ph_total)),
         "%", "base phase.calls"},
        {"phase.wire_pct",
         100 * RatioOr0(static_cast<double>(ph_wire),
                        static_cast<double>(ph_total)),
         "%", "base phase.calls"},
        {"phase.server_pct",
         100 * RatioOr0(static_cast<double>(ph_server),
                        static_cast<double>(ph_total)),
         "%", "base phase.calls"},
        {"phase.wait_pct",
         100 * RatioOr0(static_cast<double>(ph_wait),
                        static_cast<double>(ph_total)),
         "%", "base phase.calls"},
        {"phase.calls", static_cast<double>(ph_calls), "count",
         std::to_string(rec_dropped) + " recorder events dropped"},
        {"counted_calls", cc, "count", "base of the count metrics"},
        {"traced_calls", tc, "count", "base of the ns metrics"},
        {"calls_per_s_untraced", untraced_cps, "1/s",
         "median of " + std::to_string(cps[0].size()) + " passes"},
        {"calls_per_s_traced", traced_cps, "1/s",
         "median of " + std::to_string(cps[1].size()) + " passes"},
        {"trace.overhead_pct",
         100 * (RatioOr0(untraced_cps, traced_cps) - 1), "%",
         "untraced over traced calls_per_s"},
        {"failed_ratio",
         RatioOr0(static_cast<double>(std::min(run.failed, run.attempted)),
                  static_cast<double>(run.attempted)),
         "ratio", "base " + std::to_string(run.attempted) + " calls"},
    };
    extra.push_back({"ledger.span_ns", static_cast<double>(g_ledger.span()),
                     "ns", "total"});
    extra.push_back(
        {"ledger.layer_sum_ns", static_cast<double>(layer_sum), "ns", "total"});
  }

  // A failed pass-level check can outnumber the calls it covered.
  run.failed = std::min(run.failed, run.attempted);
  const bool correct = run.failed == 0;
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "flexbench: check failed: %s\n", e.c_str());
  }
  std::printf("flexbench %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16s %-6s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }

  if (!opt.detail.empty()) {
    JsonWriter j;
    j.BeginObject();
    j.Key("workload").String(opt.workload);
    j.Key("seed").UInt(opt.seed);
    j.Key("seconds").RawNumber(FormatNumber(opt.seconds));
    j.Key("trace").Int(opt.trace);
    j.Key("correct").Bool(correct);
    j.Key("attempted").UInt(run.attempted);
    j.Key("failed").UInt(run.failed);
    j.Key("input_digest").String(Hex(w->InputDigest()));
    j.Key("variant_digests").BeginArray();
    for (uint64_t d : run.digests) {
      j.String(Hex(d));
    }
    j.EndArray();
    j.Key("pass_calls_per_s").BeginArray();
    for (double v : run.pass_cps) {
      j.RawNumber(FormatNumber(v));
    }
    j.EndArray();
    j.Key("errors").BeginArray();
    for (const std::string& e : run.errors) {
      j.String(e);
    }
    j.EndArray();
    j.Key("metrics").BeginObject();
    for (const std::vector<Metric>* list : {&metrics, &extra}) {
      for (const Metric& m : *list) {
        j.Key(m.name).BeginObject();
        j.Key("value").RawNumber(FormatNumber(m.value));
        j.Key("unit").String(m.unit);
        j.Key("note").String(m.note);
        j.EndObject();
      }
    }
    j.EndObject();
    j.EndObject();
    std::ofstream(opt.detail) << j.str() << "\n";
  }

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace flexrpc

int main(int argc, char** argv) { return flexrpc::Main(argc, argv); }
