// Golden equivalence test for the client call engine and the server loop.
//
// Every scenario below is a seeded, fully deterministic simulation, so the
// observable behaviour of the transport stack folds into one 64-bit digest:
//   * every completion, in the order it fired: connection, xid, status
//     code, reply bytes, and the virtual time it completed at;
//   * handler executions per (connection, xid) — the at-most-once census;
//   * the DatagramChannel::Stats of every wire (sent, delivered, dropped,
//     duplicated, reordered, corrupted, checksum failures).
// The digests are pinned as constants. A refactor of the engine or the
// dispatch loop that changes any status, reply byte, timestamp, execution
// count, or wire event shows up here as a digest mismatch.
//
// Scenarios: the pipelined and adaptive fault matrices of the fault soak,
// the failover kill-point sweep of the failover soak, and the fault
// matrix of the fleet soak (both through RunFleet and through a local
// mux + dispatch harness that sees each completion).
//
// Registered under the `fault` ctest label.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/net/sunrpc.h"
#include "src/rpc/binder.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/mux.h"
#include "src/rpc/pipeline.h"
#include "src/sim/fleet.h"
#include "src/support/bytes.h"
#include "src/support/event_queue.h"
#include "src/support/rng.h"

namespace flexrpc {
namespace {

// FNV-1a over 64-bit words and byte strings: order-sensitive, and stable
// across hosts (no pointer or hash-table order leaks in).
class Digest {
 public:
  void Word(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Bytes(const std::vector<uint8_t>& bytes) {
    Word(bytes.size());
    for (uint8_t b : bytes) {
      Byte(b);
    }
  }
  void Completion(uint32_t conn, uint32_t xid, const Status& status,
                  const std::vector<uint8_t>& reply, uint64_t now_nanos) {
    Word(conn);
    Word(xid);
    Word(static_cast<uint64_t>(status.code()));
    Bytes(reply);
    Word(now_nanos);
  }
  void Wire(const DatagramChannel::Stats& s) {
    for (uint64_t v : {s.sent, s.delivered, s.dropped, s.duplicated,
                       s.reordered, s.corrupted, s.checksum_failures}) {
      Word(v);
    }
  }
  void Executions(const std::map<uint64_t, uint64_t>& census) {
    Word(census.size());
    for (const auto& [key, count] : census) {
      Word(key);
      Word(count);
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

uint64_t Key(uint32_t conn, uint32_t xid) {
  return (static_cast<uint64_t>(conn) << 32) | xid;
}

// --- pipelined NFS reads (the fault soak's matrices) ---------------------

constexpr size_t kSoakFileSize = 64 * 1024;

FaultConfig MixForSeed(uint64_t seed, uint64_t direction_salt) {
  Rng rng(seed * 2654435761u + direction_salt);
  FaultConfig config;
  config.drop_prob = rng.NextDouble() * 0.25;
  config.dup_prob = rng.NextDouble() * 0.15;
  config.reorder_prob = rng.NextDouble() * 0.15;
  config.corrupt_prob = rng.NextDouble() * 0.08;
  config.extra_delay_prob = rng.NextDouble() * 0.20;
  config.seed = seed ^ direction_salt;
  return config;
}

struct PipelinedCase {
  uint64_t seed;
  FaultPlan to_server;
  FaultPlan to_client;
  uint32_t window;
  size_t chunk_bytes;
  bool adaptive;
  size_t file_size = kSoakFileSize;
  bool default_policy = false;  // PipelinePolicy{} instead of the soak's
};

// Every chunk of a file read is submitted up front; each completion is
// hashed as it fires (the reply is not decoded — the bytes are hashed).
uint64_t RunPipelined(PipelinedCase c) {
  NfsFileServer server(c.file_size, c.seed);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), std::move(c.to_server),
                          std::move(c.to_client), &clock);
  EventQueue events(&clock);
  std::map<uint64_t, uint64_t> executions;
  DatagramHandler inner = NfsFileServer::MakeHandler(&server);
  DatagramHandler counting = [&executions, inner](
                                 ByteSpan request,
                                 std::vector<uint8_t>* reply) {
    auto xid = PeekXid(request);
    if (xid.ok()) {
      ++executions[Key(0, *xid)];
    }
    return inner(request, reply);
  };
  PipelinePolicy policy;
  if (!c.default_policy) {
    policy.window = c.window;
    policy.retry.max_attempts = 12;
    policy.retry.deadline_nanos = 8'000'000'000;
    policy.retry.jitter_seed = c.seed + 1;
    policy.retry.adaptive.enabled = c.adaptive;
  }
  PipelinedTransport transport(&channel, counting, RemoteServerModel(),
                               policy, &events);

  Digest digest;
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  uint32_t xid = 1;
  for (size_t offset = 0; offset < c.file_size;
       offset += c.chunk_bytes, ++xid) {
    uint32_t count = static_cast<uint32_t>(
        std::min(c.chunk_bytes, c.file_size - offset));
    XdrWriter request;
    EncodeSunRpcCall(&request, SunRpcCall{xid, kNfsProgram, kNfsVersion,
                                          kNfsProcRead});
    NfsClient::ChunkArgs chunk{fh, static_cast<uint32_t>(offset), count,
                               nullptr};
    EXPECT_TRUE(client
                    .EncodeRequest(NfsClient::StubKind::kGeneratedUserBuffer,
                                   chunk, &request)
                    .ok());
    transport.Submit(xid, request.span(),
                     [&digest, &clock, xid](Status st,
                                            std::vector<uint8_t> reply) {
                       digest.Completion(0, xid, st, reply,
                                         clock.now_nanos());
                     });
  }
  EXPECT_TRUE(transport.Drive().ok());
  digest.Executions(executions);
  digest.Wire(channel.stats());
  digest.Word(clock.now_nanos());
  return digest.value();
}

FaultPlan Plan(FaultConfig config) { return FaultPlan(config); }

FaultConfig ReorderDup(uint64_t seed) {
  FaultConfig mix;
  mix.reorder_prob = 0.5;
  mix.dup_prob = 0.5;
  mix.seed = seed;
  return mix;
}

TEST(TransportEquivalenceTest, PipelinedFaultMatrixDigests) {
  FaultConfig reply_dupper;
  reply_dupper.dup_prob = 1.0;
  reply_dupper.seed = 1002;
  FaultConfig corruptor;
  corruptor.corrupt_prob = 0.5;
  corruptor.seed = 1003;
  FaultPlan reply_eater;
  reply_eater.DropExactly(0, 0);

  std::vector<std::pair<const char*, PipelinedCase>> cases;
  cases.push_back({"reorder+dup", {31, Plan(ReorderDup(1001)),
                                   Plan(ReorderDup(1001)), 8, 2048, false}});
  cases.push_back({"stale flood", {32, Plan({}), Plan(reply_dupper), 8,
                                   2048, false}});
  cases.push_back({"corrupt", {33, Plan({}), Plan(corruptor), 8, 2048,
                               false}});
  cases.push_back({"seed mix", {5, Plan(MixForSeed(5, 0xA2B)),
                                Plan(MixForSeed(5, 0xB2A)), 8, 2048,
                                false}});
  cases.push_back({"seed mix, window 1", {7, Plan(MixForSeed(7, 0xA2B)),
                                          Plan(MixForSeed(7, 0xB2A)), 1,
                                          kNfsMaxData, false}});
  cases.push_back({"dropped reply", {23, Plan({}), std::move(reply_eater),
                                     8, kNfsMaxData, false, kNfsMaxData,
                                     /*default_policy=*/true}});
  const uint64_t kWant[] = {
      0xa43cf7125cd54b82ull, 0xd0d8c93ed85df77aull, 0xd177d22ba2c2a3edull,
      0x986e4aab93faf589ull, 0x665cb68f106594e7ull, 0x55425b62af904438ull,
  };
  ASSERT_EQ(cases.size(), std::size(kWant));
  for (size_t i = 0; i < cases.size(); ++i) {
    uint64_t got = RunPipelined(std::move(cases[i].second));
    EXPECT_EQ(got, kWant[i]) << cases[i].first << ": got " << Hex(got);
  }
}

TEST(TransportEquivalenceTest, AdaptiveFaultMatrixDigests) {
  FaultConfig dropper;
  dropper.drop_prob = 0.10;
  dropper.seed = 2002;
  FaultConfig corruptor;
  corruptor.corrupt_prob = 0.30;
  corruptor.seed = 2003;

  std::vector<std::pair<const char*, PipelinedCase>> cases;
  cases.push_back({"clean", {41, Plan({}), Plan({}), 16, kNfsMaxData,
                             true}});
  cases.push_back({"reorder+dup", {41, Plan(ReorderDup(2001)),
                                   Plan(ReorderDup(2001)), 16, kNfsMaxData,
                                   true}});
  cases.push_back({"drop10", {41, Plan(dropper), Plan(dropper), 16,
                              kNfsMaxData, true}});
  cases.push_back({"drop10, 2 KB chunks", {41, Plan(dropper),
                                           Plan(dropper), 16, 2048, true}});
  cases.push_back({"corrupt30", {41, Plan({}), Plan(corruptor), 16,
                                 kNfsMaxData, true}});
  cases.push_back({"fixed-window collapse", {41, Plan({}), Plan({}), 16,
                                             kNfsMaxData, false}});
  cases.push_back({"seed mix", {5, Plan(MixForSeed(5, 0xA2B)),
                                Plan(MixForSeed(5, 0xB2A)), 16, 2048,
                                true}});
  const uint64_t kWant[] = {
      0x22316131278b4598ull, 0xe420516a18844eb5ull, 0x22316131278b4598ull,
      0x1044d9427415dd06ull, 0x6bd11a6c32266e54ull, 0xa9628db0339900beull,
      0x2e4f6b09fa5827c8ull,
  };
  ASSERT_EQ(cases.size(), std::size(kWant));
  for (size_t i = 0; i < cases.size(); ++i) {
    uint64_t got = RunPipelined(std::move(cases[i].second));
    EXPECT_EQ(got, kWant[i]) << cases[i].first << ": got " << Hex(got);
  }
}

// --- the failover kill-point sweep ---------------------------------------

constexpr size_t kReplicas = 3;
constexpr uint64_t kNever = UINT64_MAX;

struct KillSpec {
  size_t replica = 0;
  uint64_t requests_from = kNever;
  uint64_t replies_from = kNever;
};

// The failover soak's managed read: 32 chunks of 2 KB through a binder
// over three replicas, with the given wire deaths. Completions carry the
// binder-level xid; executions are keyed (replica + 1, xid).
uint64_t RunManaged(uint64_t seed, const std::vector<KillSpec>& kills) {
  constexpr size_t kFileSize = 64 * 1024;
  constexpr size_t kChunkBytes = 2048;
  NfsFileServer client_server(kFileSize, seed);
  NfsClient client(&client_server, LinkModel(), RemoteServerModel());
  std::vector<std::unique_ptr<NfsFileServer>> replicas;
  for (size_t i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<NfsFileServer>(kFileSize, seed));
  }
  VirtualClock clock;
  EventQueue events(&clock);
  std::map<uint64_t, uint64_t> executions;
  std::vector<std::unique_ptr<DatagramChannel>> channels;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (size_t i = 0; i < kReplicas; ++i) {
    FaultPlan to_server;
    FaultPlan to_client;
    for (const KillSpec& kill : kills) {
      if (kill.replica != i) {
        continue;
      }
      if (kill.requests_from != kNever) {
        to_server.KillFrom(kill.requests_from);
      }
      if (kill.replies_from != kNever) {
        to_client.KillFrom(kill.replies_from);
      }
    }
    channels.push_back(std::make_unique<DatagramChannel>(
        LinkModel(), std::move(to_server), std::move(to_client), &clock));
    DatagramHandler inner = NfsFileServer::MakeHandler(replicas[i].get());
    uint32_t replica_key = static_cast<uint32_t>(i + 1);
    DatagramHandler counting = [&executions, inner, replica_key](
                                   ByteSpan request,
                                   std::vector<uint8_t>* reply) {
      auto xid = PeekXid(request);
      if (xid.ok()) {
        ++executions[Key(replica_key, *xid)];
      }
      return inner(request, reply);
    };
    specs.push_back({channels.back().get(), std::move(counting),
                     RemoteServerModel()});
  }
  PipelinePolicy pipeline;
  pipeline.window = 8;
  pipeline.retry.max_attempts = 12;
  pipeline.retry.deadline_nanos = 8'000'000'000;
  pipeline.retry.jitter_seed = seed + 1;
  ReplicaGroup group(std::move(specs), pipeline, &events);

  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  auto encode = [&client, &fh](uint32_t xid, uint32_t offset,
                               uint32_t count) {
    XdrWriter w;
    EncodeSunRpcCall(&w, SunRpcCall{xid, kNfsProgram, kNfsVersion,
                                    kNfsProcRead});
    NfsClient::ChunkArgs chunk{fh, offset, count, nullptr};
    EXPECT_TRUE(client
                    .EncodeRequest(NfsClient::StubKind::kGeneratedUserBuffer,
                                   chunk, &w)
                    .ok());
    ByteSpan span = w.span();
    return std::vector<uint8_t>(span.begin(), span.end());
  };
  BinderPolicy binder_policy;
  binder_policy.failover.suspect_after = 2;
  binder_policy.make_probe = [&encode](uint32_t xid) {
    return encode(xid, 0, 1);
  };
  BinderTransport binder(&group, std::move(binder_policy));

  Digest digest;
  uint32_t xid = 1;
  for (size_t offset = 0; offset < kFileSize; offset += kChunkBytes, ++xid) {
    std::vector<uint8_t> request = encode(
        xid, static_cast<uint32_t>(offset), static_cast<uint32_t>(kChunkBytes));
    binder.Submit(xid, ByteSpan(request.data(), request.size()),
                  [&digest, &clock, xid](Status st,
                                         std::vector<uint8_t> reply) {
                    digest.Completion(0, xid, st, reply, clock.now_nanos());
                  });
  }
  EXPECT_TRUE(binder.Drive().ok());
  digest.Executions(executions);
  for (const auto& channel : channels) {
    digest.Wire(channel->stats());
  }
  for (uint64_t calls : binder.stats().per_replica_calls) {
    digest.Word(calls);
  }
  digest.Word(binder.stats().cutovers);
  digest.Word(binder.stats().reissues);
  digest.Word(clock.now_nanos());
  return digest.value();
}

TEST(TransportEquivalenceTest, FailoverKillPointSweepDigests) {
  std::vector<std::pair<std::string, std::vector<KillSpec>>> cases;
  cases.push_back({"clean", {}});
  for (uint64_t kill : {0, 1, 2, 4, 8, 16, 24, 31, 64}) {
    cases.push_back({"kill at " + std::to_string(kill), {{0, kill, kill}}});
  }
  cases.push_back({"cascading", {{0, 0, 0}, {1, 8, 8}}});
  cases.push_back({"execute then die", {{0, kNever, 0}}});
  const uint64_t kSeeds[] = {17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 23, 29};
  const uint64_t kWant[] = {
      0x73a44ac9206af014ull, 0x81051ba5168c9ef6ull, 0x8c9ae56ed79c1a67ull,
      0x8038160da82ec3a3ull, 0xaf6e2816ca599994ull, 0xa472660ac8074025ull,
      0xfa632659bcd11a2aull, 0x433f4399aec02c70ull, 0x93504a8720f2154aull,
      0x73a44ac9206af014ull, 0xb62cba6813832c34ull, 0x49c361424cd3b30bull,
  };
  ASSERT_EQ(cases.size(), std::size(kWant));
  for (size_t i = 0; i < cases.size(); ++i) {
    uint64_t got = RunManaged(kSeeds[i], cases[i].second);
    EXPECT_EQ(got, kWant[i]) << cases[i].first << ": got " << Hex(got);
  }
}

// --- the fleet soak's fault matrix ----------------------------------------

FaultConfig FleetMixForSeed(uint64_t seed, uint64_t direction_salt) {
  Rng rng(seed * 2654435761u + direction_salt);
  FaultConfig config;
  config.drop_prob = rng.NextDouble() * 0.20;
  config.dup_prob = rng.NextDouble() * 0.15;
  config.reorder_prob = rng.NextDouble() * 0.15;
  config.corrupt_prob = rng.NextDouble() * 0.06;
  config.extra_delay_prob = rng.NextDouble() * 0.20;
  config.seed = seed ^ direction_salt;
  return config;
}

FleetConfig SoakConfig(uint64_t seed) {
  FleetConfig config;
  config.num_clients = 12;
  config.calls_per_client = 12;
  config.mean_interarrival_nanos = 400'000;
  config.seed = seed;
  config.mux.retry.max_attempts = 12;
  config.mux.retry.deadline_nanos = 8'000'000'000;
  config.mux.retry.jitter_seed = seed + 1;
  config.dispatch.workers = 4;
  config.fault_a_to_b = FleetMixForSeed(seed, 0xA2B);
  config.fault_b_to_a = FleetMixForSeed(seed, 0xB2A);
  return config;
}

// RunFleet as the fleet soak drives it: its result and census.
uint64_t RunFleetDigest(const FleetConfig& config) {
  std::map<uint64_t, uint64_t> executions;
  FleetResult r = RunFleet(config, &executions);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  Digest digest;
  for (uint64_t v : {r.completed, r.failed, r.span_nanos, r.p50_nanos,
                     r.p99_nanos, r.p999_nanos, r.mux.retransmits,
                     r.mux.stale_replies, r.mux.corrupt_replies,
                     r.mux.flow_stalls, r.mux.events, r.dispatch.accepted,
                     r.dispatch.executions, r.dispatch.dup_replies,
                     r.dispatch.shed_accept, r.dispatch.shed_run,
                     r.dispatch.events, r.evicted_reexecs}) {
    digest.Word(v);
  }
  digest.Executions(executions);
  digest.Wire(r.wire);
  return digest.value();
}

// The same fleet shape on a local mux + dispatch pair, so every
// completion is visible: request bodies are [reply_size u32][pad], the
// handler echoes the [xid][conn] prefix and fills reply_size bytes. The
// mux numbers each connection's calls 1, 2, ... in submission order.
uint64_t RunLocalFleet(const FleetConfig& config) {
  VirtualClock clock;
  EventQueue events(&clock);
  DatagramChannel channel(LinkModel(config.link),
                          FaultPlan(config.fault_a_to_b),
                          FaultPlan(config.fault_b_to_a), &clock);
  std::map<uint64_t, uint64_t> executions;
  DatagramHandler handler = [&executions](ByteSpan request,
                                          std::vector<uint8_t>* reply) {
    ByteReader r(request);
    auto xid = r.ReadU32Be();
    auto conn = r.ReadU32Be();
    auto reply_size = r.ReadU32Be();
    if (!xid.ok() || !conn.ok() || !reply_size.ok()) {
      return InvalidArgumentError("short request");
    }
    ++executions[Key(*conn, *xid)];
    ByteWriter w;
    w.WriteU32Be(*xid);
    w.WriteU32Be(*conn);
    for (uint32_t i = 0; i < *reply_size; ++i) {
      w.WriteU8(static_cast<uint8_t>((*xid * 7 + i) & 0xFF));
    }
    *reply = w.TakeBuffer();
    return Status::Ok();
  };
  ConnectionMux mux(&channel, config.mux, &events);
  ServerDispatch dispatch(&channel, std::move(handler), config.dispatch,
                          &events);
  mux.set_request_listener([&dispatch]() { dispatch.Poke(); });
  dispatch.set_reply_listener([&mux]() { mux.Poke(); });

  Digest digest;
  std::map<uint32_t, uint32_t> submitted;  // per-connection xid counter
  for (uint32_t i = 0; i < config.num_clients; ++i) {
    uint32_t conn = mux.OpenConnection();
    Rng rng(config.seed ^ ((i + 1) * 0x9E3779B97F4A7C15ull));
    uint64_t t = 0;
    for (uint32_t k = 0; k < config.calls_per_client; ++k) {
      t += 1 + rng.NextBelow(2 * config.mean_interarrival_nanos);
      uint32_t reply_size = static_cast<uint32_t>(16 + rng.NextBelow(4096));
      uint32_t pad = static_cast<uint32_t>(rng.NextBelow(256));
      events.ScheduleAt(t, [&, conn, reply_size, pad]() {
        ByteWriter body;
        body.WriteU32Be(reply_size);
        for (uint32_t j = 0; j < pad; ++j) {
          body.WriteU8(static_cast<uint8_t>(j));
        }
        uint32_t xid = ++submitted[conn];
        std::vector<uint8_t> bytes = body.TakeBuffer();
        mux.Submit(conn, ByteSpan(bytes.data(), bytes.size()),
                   [&digest, &clock, conn, xid](Status st,
                                                std::vector<uint8_t> reply) {
                     digest.Completion(conn, xid, st, reply,
                                       clock.now_nanos());
                   });
      });
    }
  }
  while (events.RunNext()) {
  }
  EXPECT_EQ(mux.outstanding(), 0u);
  digest.Executions(executions);
  digest.Wire(channel.stats());
  return digest.value();
}

TEST(TransportEquivalenceTest, FleetSoakDigests) {
  const uint64_t kWantRunFleet[] = {
      0x0b94aedb47d905c0ull, 0x3d9e54612f9f2b16ull, 0x99c59bbbb29468cfull,
      0x28a844a8fb737af2ull, 0x52874fe54b295c91ull, 0xa8c228669b340b5aull,
  };
  const uint64_t kWantLocal[] = {
      0xd84b41aba87bc34aull, 0x98c964393892f34bull, 0xc6df67ce6a4482deull,
      0x60ac4d83f3976331ull, 0xbee66c73c00443f3ull, 0xe2c999f8bfc2f441ull,
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FleetConfig config = SoakConfig(seed);
    uint64_t got = RunFleetDigest(config);
    EXPECT_EQ(got, kWantRunFleet[seed - 1])
        << "RunFleet seed " << seed << ": got " << Hex(got);
    if (seed % 2 == 0) {
      config.mux.retry.adaptive.enabled = true;  // cover the AIMD path
    }
    got = RunLocalFleet(config);
    EXPECT_EQ(got, kWantLocal[seed - 1])
        << "local fleet seed " << seed << ": got " << Hex(got);
  }
}

}  // namespace
}  // namespace flexrpc
