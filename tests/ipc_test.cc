// Tests for the IPC paths: fast path, traditional typed path, and the
// combination-signature (threaded) transport of §4.5.

#include <gtest/gtest.h>

#include <cstring>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/ipc/fastpath.h"
#include "src/ipc/oldpath.h"
#include "src/ipc/threaded.h"

namespace flexrpc {
namespace {

TEST(FastPathTest, EchoRoundTrip) {
  Kernel kernel;
  FastPath fastpath(&kernel);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  PortName pn = kernel.CreatePort(server);
  Port* port = *kernel.ResolvePort(server, pn);

  const uint8_t* seen_in_server = nullptr;
  fastpath.Serve(port, server, [&](ServerCall* call) {
    seen_in_server = call->request;
    call->reply->assign(call->request, call->request + call->request_size);
    std::reverse(call->reply->begin(), call->reply->end());
    return Status::Ok();
  });

  uint8_t request[4] = {1, 2, 3, 4};
  void* reply = nullptr;
  size_t reply_size = 0;
  ASSERT_TRUE(fastpath
                  .Call(client, port, ByteSpan(request, 4), &reply,
                        &reply_size)
                  .ok());
  ASSERT_EQ(reply_size, 4u);
  EXPECT_EQ(static_cast<uint8_t*>(reply)[0], 4);
  // The handler saw a server-space copy, not the client's buffer.
  EXPECT_TRUE(server->space().Owns(seen_in_server));
  // The reply landed in client space.
  EXPECT_TRUE(client->space().Owns(reply));
  client->space().Free(reply);
  EXPECT_EQ(fastpath.calls(), 1u);
  EXPECT_EQ(fastpath.bytes_copied(), 8u);
  EXPECT_EQ(kernel.trap_count(), 2u);  // one in, one out
}

TEST(FastPathTest, UnboundPortFails) {
  Kernel kernel;
  FastPath fastpath(&kernel);
  Task* client = kernel.CreateTask("client");
  Task* other = kernel.CreateTask("other");
  PortName pn = kernel.CreatePort(other);
  Port* port = *kernel.ResolvePort(other, pn);
  void* reply;
  size_t reply_size;
  EXPECT_EQ(fastpath.Call(client, port, ByteSpan(), &reply, &reply_size)
                .code(),
            StatusCode::kNotFound);
}

TEST(FastPathTest, HandlerErrorPropagates) {
  Kernel kernel;
  FastPath fastpath(&kernel);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  PortName pn = kernel.CreatePort(server);
  Port* port = *kernel.ResolvePort(server, pn);
  fastpath.Serve(port, server, [](ServerCall*) {
    return InternalError("handler exploded");
  });
  void* reply;
  size_t reply_size;
  EXPECT_EQ(fastpath.Call(client, port, ByteSpan(), &reply, &reply_size)
                .code(),
            StatusCode::kInternal);
}

TEST(FastPathTest, EmptyRequestAndReplyRoundTrip) {
  // Neither side copies from the null data() of an empty buffer (UBSan
  // reports a memcpy from null even when the size is 0).
  Kernel kernel;
  FastPath fastpath(&kernel);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  PortName pn = kernel.CreatePort(server);
  Port* port = *kernel.ResolvePort(server, pn);
  fastpath.Serve(port, server, [](ServerCall*) { return Status::Ok(); });
  void* reply = nullptr;
  size_t reply_size = 1;
  ASSERT_TRUE(
      fastpath.Call(client, port, ByteSpan(), &reply, &reply_size).ok());
  EXPECT_EQ(reply_size, 0u);
  EXPECT_TRUE(client->space().Owns(reply));
  client->space().Free(reply);
}

TEST(OldPathTest, RoundTripWithTypedItems) {
  Kernel kernel;
  OldPath oldpath(&kernel);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  PortName pn = kernel.CreatePort(server);
  Port* port = *kernel.ResolvePort(server, pn);
  PortName reply_port = kernel.CreatePort(client);

  oldpath.Serve(port, server, [](ServerCall* call) {
    call->reply->assign(call->request, call->request + call->request_size);
    return Status::Ok();
  });
  uint64_t baseline_refs = server->names().total_refs();

  uint8_t request[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  std::vector<TypedItem> items = {{1, 4}, {2, 4}};
  void* reply = nullptr;
  size_t reply_size = 0;
  ASSERT_TRUE(oldpath
                  .Call(client, port, reply_port, ByteSpan(request, 8),
                        items, &reply, &reply_size)
                  .ok());
  EXPECT_EQ(reply_size, 8u);
  EXPECT_EQ(static_cast<uint8_t*>(reply)[0], 9);
  client->space().Free(reply);
  // Two copies each direction (through the kernel buffer).
  EXPECT_EQ(oldpath.bytes_copied(), 32u);
  EXPECT_EQ(oldpath.descriptors_processed(), 2u);
  // The reply right was translated and then released.
  EXPECT_EQ(server->names().total_refs(), baseline_refs);
}

TEST(OldPathTest, DescriptorMismatchRejected) {
  Kernel kernel;
  OldPath oldpath(&kernel);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  PortName pn = kernel.CreatePort(server);
  Port* port = *kernel.ResolvePort(server, pn);
  PortName reply_port = kernel.CreatePort(client);
  oldpath.Serve(port, server, [](ServerCall*) { return Status::Ok(); });

  uint8_t request[8] = {};
  std::vector<TypedItem> bad = {{1, 3}};  // describes 3 of 8 bytes
  void* reply;
  size_t reply_size;
  EXPECT_EQ(oldpath
                .Call(client, port, reply_port, ByteSpan(request, 8), bad,
                      &reply, &reply_size)
                .code(),
            StatusCode::kInvalidArgument);
}

// --- combination-signature transport ---

TEST(ThreadedTest, AssemblyVariesWithTrust) {
  auto count = [](const std::vector<ThreadedOp>& ops, TOpCode code) {
    int n = 0;
    for (const ThreadedOp& op : ops) {
      if (op.code == code) {
        ++n;
      }
    }
    return n;
  };

  auto none = AssembleCombination(TrustLevel::kNone, TrustLevel::kNone,
                                  false, 32);
  EXPECT_EQ(count(none, TOpCode::kSaveRegs), 1);
  EXPECT_EQ(count(none, TOpCode::kRestoreRegs), 1);
  EXPECT_EQ(count(none, TOpCode::kClearRegs), 2);  // both directions

  auto full = AssembleCombination(TrustLevel::kFull, TrustLevel::kFull,
                                  false, 32);
  EXPECT_EQ(count(full, TOpCode::kSaveRegs), 0);
  EXPECT_EQ(count(full, TOpCode::kRestoreRegs), 0);
  EXPECT_EQ(count(full, TOpCode::kClearRegs), 0);

  auto leaky = AssembleCombination(TrustLevel::kLeaky, TrustLevel::kLeaky,
                                   false, 32);
  EXPECT_EQ(count(leaky, TOpCode::kSaveRegs), 1);   // integrity still kept
  EXPECT_EQ(count(leaky, TOpCode::kClearRegs), 0);  // confidentiality waived

  // The paper's observation: a server declaring full trust gets exactly
  // the leaky program.
  auto server_leaky =
      AssembleCombination(TrustLevel::kNone, TrustLevel::kLeaky, false, 32);
  auto server_full =
      AssembleCombination(TrustLevel::kNone, TrustLevel::kFull, false, 32);
  ASSERT_EQ(server_leaky.size(), server_full.size());
  for (size_t i = 0; i < server_leaky.size(); ++i) {
    EXPECT_EQ(server_leaky[i].code, server_full[i].code);
  }
}

TEST(ThreadedTest, NonuniqueSelectsFastTranslateOp) {
  auto unique = AssembleCombination(TrustLevel::kNone, TrustLevel::kNone,
                                    false, 32);
  auto nonunique = AssembleCombination(TrustLevel::kNone, TrustLevel::kNone,
                                       true, 32);
  auto has = [](const std::vector<ThreadedOp>& ops, TOpCode code) {
    for (const ThreadedOp& op : ops) {
      if (op.code == code) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has(unique, TOpCode::kTranslateReplyPortUnique));
  EXPECT_FALSE(has(unique, TOpCode::kTranslateReplyPortNonUnique));
  EXPECT_TRUE(has(nonunique, TOpCode::kTranslateReplyPortNonUnique));
}

class ThreadedBindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DiagnosticSink diags;
    idl_ = ParseCorbaIdl("interface Null { void ping(); };", "t.idl",
                         &diags);
    ASSERT_NE(idl_, nullptr);
    ASSERT_TRUE(AnalyzeInterfaceFile(idl_.get(), &diags));
    sig_ = BuildSignature(idl_->interfaces[0]);
    client_ = kernel_.CreateTask("client");
    server_ = kernel_.CreateTask("server");
    PortName pn = kernel_.CreatePort(server_);
    port_ = *kernel_.ResolvePort(server_, pn);
  }

  Kernel kernel_;
  std::unique_ptr<InterfaceFile> idl_;
  InterfaceSignature sig_;
  Task* client_ = nullptr;
  Task* server_ = nullptr;
  Port* port_ = nullptr;
};

TEST_F(ThreadedBindTest, NullCallRunsServerWork) {
  SpecializedTransport transport(&kernel_);
  int invocations = 0;
  ASSERT_TRUE(transport
                  .RegisterServer(port_, server_, sig_, TrustLevel::kNone,
                                  [&] { ++invocations; })
                  .ok());
  auto conn = transport.BindClient(client_, port_, sig_, TrustLevel::kNone,
                                   false);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  uint64_t baseline_refs = server_->names().total_refs();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*conn)->NullCall().ok());
  }
  EXPECT_EQ(invocations, 10);
  EXPECT_EQ((*conn)->calls(), 10u);
  // Reply rights were translated into the server and released every call.
  EXPECT_EQ(server_->names().total_refs(), baseline_refs);
}

TEST_F(ThreadedBindTest, IncompatibleSignatureRejectedAtBind) {
  SpecializedTransport transport(&kernel_);
  ASSERT_TRUE(transport
                  .RegisterServer(port_, server_, sig_, TrustLevel::kNone,
                                  [] {})
                  .ok());
  DiagnosticSink diags;
  auto other = ParseCorbaIdl("interface Null { void ping(in long x); };",
                             "o.idl", &diags);
  ASSERT_NE(other, nullptr);
  InterfaceSignature other_sig = BuildSignature(other->interfaces[0]);
  auto conn = transport.BindClient(client_, port_, other_sig,
                                   TrustLevel::kNone, false);
  EXPECT_EQ(conn.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ThreadedBindTest, DoubleRegistrationRejected) {
  SpecializedTransport transport(&kernel_);
  ASSERT_TRUE(transport
                  .RegisterServer(port_, server_, sig_, TrustLevel::kNone,
                                  [] {})
                  .ok());
  EXPECT_EQ(transport
                .RegisterServer(port_, server_, sig_, TrustLevel::kNone,
                                [] {})
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ThreadedBindTest, TrustShrinksProgram) {
  SpecializedTransport transport(&kernel_);
  ASSERT_TRUE(transport
                  .RegisterServer(port_, server_, sig_, TrustLevel::kFull,
                                  [] {})
                  .ok());
  auto none = transport.BindClient(client_, port_, sig_, TrustLevel::kNone,
                                   false);
  auto full = transport.BindClient(client_, port_, sig_, TrustLevel::kFull,
                                   true);
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_GT((*none)->program().size(), (*full)->program().size());
  ASSERT_TRUE((*full)->NullCall().ok());
}

}  // namespace
}  // namespace flexrpc
