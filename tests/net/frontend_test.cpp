//===- tests/net/frontend_test.cpp - Socket front-end tests --------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the sharded socket front end (net/Server over
/// net/ShardedService) on an ephemeral loopback port: clean round trips
/// in both framings, shard routing and stats aggregation, and the
/// malformed-frame robustness matrix — truncated length prefix,
/// oversized frame, slow-loris partial writes, garbage bytes
/// mid-stream, and abrupt disconnect with requests in flight. Every
/// abuse yields a structured bad-request and/or a clean close; the
/// server must stay serviceable for the next connection, and (under
/// ASan) leak nothing.
///
//===----------------------------------------------------------------------===//

#include "net/Server.h"
#include "net/ShardedService.h"
#include "net/Wire.h"
#include "programs/Programs.h"
#include "service/ServiceJson.h"
#include "support/JsonWriter.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perceus;

namespace {

/// A blocking loopback client with line/length framing helpers.
class Client {
public:
  explicit Client(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Client() { close(); }
  bool ok() const { return Fd >= 0; }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  /// Abortive close: SO_LINGER(0) makes close() send RST, modelling a
  /// peer that vanishes rather than shutting down.
  void abort() {
    if (Fd < 0)
      return;
    linger L{1, 0};
    setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof(L));
    close();
  }

  bool sendRaw(std::string_view Data) {
    size_t Off = 0;
    while (Off != Data.size()) {
      ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  bool sendFrame(FrameMode Mode, std::string_view Payload) {
    return sendRaw(encodeFrame(Mode, Payload));
  }

  /// Reads one framed response (the peer echoes our framing). Returns
  /// false on EOF/error before a complete frame.
  bool recvFrame(FrameMode Mode, std::string &Payload) {
    FrameDecoder Dec(4u << 20);
    // Prime the decoder's mode so a length-framed response is not
    // misread: the decoder auto-detects from the first byte, which for
    // responses matches the request framing anyway.
    (void)Mode;
    char Chunk[4096];
    for (;;) {
      switch (Dec.next(Payload)) {
      case FrameStatus::Frame:
        return true;
      case FrameStatus::Error:
        return false;
      case FrameStatus::NeedMore:
        break;
      }
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return false;
      Dec.feed(std::string_view(Chunk, static_cast<size_t>(N)));
    }
  }

  /// Reads until EOF (bounded); true when the peer closed.
  bool recvUntilClosed(std::string &All) {
    char Chunk[4096];
    for (;;) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N == 0)
        return true;
      if (N < 0)
        return false;
      All.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
};

/// Server + sharded service on an ephemeral port, torn down per test.
struct Fixture {
  explicit Fixture(FrontEndConfig FC = FrontEndConfig{},
                   const char *Source = nullptr, const char *Entry = nullptr)
      : SS(FC) {
    ServiceRequest Defaults;
    Defaults.Source = Source ? Source : mapSumSource();
    Defaults.Entry = Entry ? Entry : "bench_mapsum";
    Srv = std::make_unique<Server>(SS, FC, Defaults);
    std::string Err;
    if (!Srv->listen("127.0.0.1:0", &Err) || !Srv->start())
      ADD_FAILURE() << "listen failed: " << Err;
  }
  ~Fixture() {
    Srv->stop();
    SS.stop();
  }
  uint16_t port() const { return Srv->port(); }

  ShardedService SS;
  std::unique_ptr<Server> Srv;
};

const JsonValue *serviceObj(const JsonValue &Doc) {
  return Doc.find("service", JsonValue::Kind::Object);
}

std::optional<JsonValue> parseWire(const std::string &Payload) {
  std::optional<JsonValue> Doc = parseJson(Payload);
  if (Doc) {
    const JsonValue *Schema = Doc->find("schema", JsonValue::Kind::String);
    EXPECT_NE(Schema, nullptr);
    if (Schema) {
      EXPECT_EQ(Schema->Str, kWireSchemaName);
    }
  }
  return Doc;
}

TEST(Frontend, CleanRoundTripInBothFramings) {
  Fixture F(FrontEndConfig{}.withShards(4));
  for (FrameMode Mode : {FrameMode::Line, FrameMode::Length}) {
    Client C(F.port());
    ASSERT_TRUE(C.ok());
    for (uint64_t Seq = 1; Seq <= 3; ++Seq) {
      ASSERT_TRUE(C.sendFrame(Mode, "{\"entry\":\"bench_mapsum\","
                                    "\"args\":[50]}"));
      std::string Payload;
      ASSERT_TRUE(C.recvFrame(Mode, Payload));
      std::optional<JsonValue> Doc = parseWire(Payload);
      ASSERT_TRUE(Doc.has_value());
      const JsonValue *Svc = serviceObj(*Doc);
      ASSERT_NE(Svc, nullptr);
      EXPECT_EQ(Svc->find("status", JsonValue::Kind::String)->Str, "ok");
      EXPECT_EQ(Svc->find("seq", JsonValue::Kind::Number)->Num,
                double(Seq));
      EXPECT_TRUE(Doc->find("run", JsonValue::Kind::Object)
                      ->find("ok", JsonValue::Kind::Bool)
                      ->B);
      EXPECT_TRUE(Svc->find("heap_empty", JsonValue::Kind::Bool)->B);
    }
  }
  ServerStats NS = F.Srv->stats();
  EXPECT_EQ(NS.Accepted, 2u);
  EXPECT_EQ(NS.FramesIn, 6u);
  EXPECT_EQ(NS.FramesOut, 6u);
  EXPECT_EQ(NS.ProtocolErrors, 0u);
}

TEST(Frontend, ShardIdIsStampedAndRoutingIsStable) {
  Fixture F(FrontEndConfig{}.withShards(4));
  size_t Want = F.SS.shardFor("acme", mapSumSource());
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  for (int I = 0; I != 3; ++I) {
    ASSERT_TRUE(C.sendFrame(FrameMode::Line,
                            "{\"tenant\":\"acme\","
                            "\"entry\":\"bench_mapsum\",\"args\":[10]}"));
    std::string Payload;
    ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
    std::optional<JsonValue> Doc = parseWire(Payload);
    ASSERT_TRUE(Doc.has_value());
    const JsonValue *Svc = serviceObj(*Doc);
    EXPECT_EQ(Svc->find("shard", JsonValue::Kind::Number)->Num,
              double(Want));
    EXPECT_EQ(Svc->find("tenant", JsonValue::Kind::String)->Str, "acme");
  }
  // The owning shard did all the work; aggregation sums to the same.
  EXPECT_EQ(F.SS.shardStats(Want).Executed, 3u);
  EXPECT_EQ(F.SS.stats().Executed, 3u);
  uint64_t Sum = 0;
  for (size_t I = 0; I != F.SS.shardCount(); ++I)
    Sum += F.SS.shardStats(I).Executed;
  EXPECT_EQ(Sum, 3u);
}

TEST(Frontend, TrapStillAnswersStructuredWithEmptyHeap) {
  Fixture F;
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  // Out-of-fuel trap via a per-request limit override.
  ASSERT_TRUE(C.sendFrame(FrameMode::Line,
                          "{\"entry\":\"bench_mapsum\",\"args\":[1000],"
                          "\"fuel\":10}"));
  std::string Payload;
  ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
  std::optional<JsonValue> Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Svc = serviceObj(*Doc);
  EXPECT_EQ(Svc->find("status", JsonValue::Kind::String)->Str, "ok");
  EXPECT_TRUE(Svc->find("executed", JsonValue::Kind::Bool)->B);
  const JsonValue *Run = Doc->find("run", JsonValue::Kind::Object);
  EXPECT_FALSE(Run->find("ok", JsonValue::Kind::Bool)->B);
  EXPECT_EQ(Run->find("trap", JsonValue::Kind::String)->Str, "out-of-fuel");
  EXPECT_TRUE(Svc->find("heap_empty", JsonValue::Kind::Bool)->B);
}

TEST(Frontend, IntMinDivOverflowTrapsStructuredOnALiveServer) {
  // INT64_MIN / -1 through the full socket stack: the overflow must
  // come back as a structured runtime-error trap — a live response with
  // an empty worker heap, not a crashed or wedged server — whether the
  // request names the engine or not, and the connection must stay
  // usable afterwards.
  FrontEndConfig FC;
  Fixture F(FC, "fun main(a, b) { a / b }", "main");
  for (const char *Engine : {"", "\"engine\":\"vm\","}) {
    Client C(F.port());
    ASSERT_TRUE(C.ok());
    std::string Req = std::string("{\"entry\":\"main\",") + Engine +
                      "\"args\":[-9223372036854775808,-1]}";
    ASSERT_TRUE(C.sendFrame(FrameMode::Line, Req));
    std::string Payload;
    ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
    std::optional<JsonValue> Doc = parseWire(Payload);
    ASSERT_TRUE(Doc.has_value());
    const JsonValue *Svc = serviceObj(*Doc);
    ASSERT_NE(Svc, nullptr);
    EXPECT_EQ(Svc->find("status", JsonValue::Kind::String)->Str, "ok");
    EXPECT_TRUE(Svc->find("executed", JsonValue::Kind::Bool)->B);
    const JsonValue *Run = Doc->find("run", JsonValue::Kind::Object);
    ASSERT_NE(Run, nullptr);
    EXPECT_FALSE(Run->find("ok", JsonValue::Kind::Bool)->B);
    EXPECT_EQ(Run->find("trap", JsonValue::Kind::String)->Str,
              "runtime-error");
    EXPECT_NE(Run->find("result", JsonValue::Kind::Null), nullptr);
    // The trap message reaches the client, not just the trap kind.
    EXPECT_EQ(Svc->find("error", JsonValue::Kind::String)->Str,
              "integer overflow in division")
        << Engine;
    EXPECT_TRUE(Svc->find("heap_empty", JsonValue::Kind::Bool)->B);
    // Same connection, non-overflowing operands: still serviceable, and
    // the answer is on the wire as exact integer text.
    ASSERT_TRUE(C.sendFrame(
        FrameMode::Line,
        std::string("{\"entry\":\"main\",") + Engine +
            "\"args\":[-9223372036854775808,2]}"));
    ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
    Doc = parseWire(Payload);
    ASSERT_TRUE(Doc.has_value());
    Run = Doc->find("run", JsonValue::Kind::Object);
    ASSERT_NE(Run, nullptr);
    EXPECT_TRUE(Run->find("ok", JsonValue::Kind::Bool)->B);
    EXPECT_NE(Payload.find("\"result\":-4611686018427387904,"),
              std::string::npos)
        << Payload;
    EXPECT_EQ(serviceObj(*Doc)->find("error", JsonValue::Kind::String)->Str,
              "");
  }
}

TEST(Frontend, RetiredEngineNameIsABadRequestOnALiveConnection) {
  // The VM is the only engine. A request naming "cek" gets a structured
  // bad-request that names the engine — never a silent alias, since its
  // fuel would count different units — and the connection stays open:
  // the next request on it is answered.
  FrontEndConfig FC;
  Fixture F(FC, "fun main(a, b) { a / b }", "main");
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendFrame(FrameMode::Line,
                          "{\"entry\":\"main\",\"engine\":\"cek\","
                          "\"args\":[6,3]}"));
  std::string Payload;
  ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
  std::optional<JsonValue> Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value()) << Payload;
  const JsonValue *Svc = serviceObj(*Doc);
  ASSERT_NE(Svc, nullptr);
  EXPECT_EQ(Svc->find("status", JsonValue::Kind::String)->Str, "bad-request");
  EXPECT_FALSE(Svc->find("executed", JsonValue::Kind::Bool)->B);
  EXPECT_NE(Svc->find("error", JsonValue::Kind::String)
                ->Str.find("unknown engine \"cek\""),
            std::string::npos)
      << Payload;

  ASSERT_TRUE(
      C.sendFrame(FrameMode::Line, "{\"entry\":\"main\",\"args\":[6,3]}"));
  ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
  Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value()) << Payload;
  EXPECT_EQ(serviceObj(*Doc)->find("status", JsonValue::Kind::String)->Str,
            "ok");
  EXPECT_NE(Payload.find("\"result\":2,"), std::string::npos) << Payload;
}

TEST(Frontend, MalformedDocumentGetsBadRequestAndConnSurvives) {
  Fixture F;
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendFrame(FrameMode::Line, "{\"nonsense\":true}"));
  std::string Payload;
  ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
  std::optional<JsonValue> Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Svc = serviceObj(*Doc);
  EXPECT_EQ(Svc->find("status", JsonValue::Kind::String)->Str,
            "bad-request");
  // Same connection keeps working.
  ASSERT_TRUE(C.sendFrame(FrameMode::Line,
                          "{\"entry\":\"bench_mapsum\",\"args\":[10]}"));
  ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
  Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(serviceObj(*Doc)->find("status", JsonValue::Kind::String)->Str,
            "ok");
  EXPECT_EQ(F.Srv->stats().BadRequests, 1u);
}

// --- The malformed-frame robustness matrix ------------------------------

TEST(FrontendMatrix, TruncatedLengthPrefixThenDisconnect) {
  Fixture F;
  {
    Client C(F.port());
    ASSERT_TRUE(C.ok());
    ASSERT_TRUE(C.sendRaw(std::string("\x00\x00", 2)));
    C.close(); // disconnect mid-prefix
  }
  // The close is processed asynchronously; poll the counter.
  for (int I = 0; I != 100 && F.Srv->stats().TruncatedFrames == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ServerStats NS = F.Srv->stats();
  EXPECT_EQ(NS.TruncatedFrames, 1u);
  EXPECT_EQ(NS.ProtocolErrors, 0u);
  // Server still serviceable.
  Client C2(F.port());
  ASSERT_TRUE(C2.ok());
  ASSERT_TRUE(C2.sendFrame(FrameMode::Line,
                           "{\"entry\":\"bench_mapsum\",\"args\":[10]}"));
  std::string Payload;
  EXPECT_TRUE(C2.recvFrame(FrameMode::Line, Payload));
}

TEST(FrontendMatrix, OversizedFrameGetsStructuredRejectThenClose) {
  Fixture F(FrontEndConfig{}.withMaxFrameBytes(256));
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  std::string Huge = "{\"entry\":\"" + std::string(1000, 'a') + "\"}";
  ASSERT_TRUE(C.sendFrame(FrameMode::Length, Huge));
  std::string All;
  ASSERT_TRUE(C.recvUntilClosed(All)); // server closes after the reject
  FrameDecoder Dec(4u << 20);
  Dec.feed(All);
  std::string Payload;
  ASSERT_EQ(Dec.next(Payload), FrameStatus::Frame);
  std::optional<JsonValue> Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Svc = serviceObj(*Doc);
  EXPECT_EQ(Svc->find("status", JsonValue::Kind::String)->Str,
            "bad-request");
  EXPECT_NE(Svc->find("error", JsonValue::Kind::String)->Str.find("limit"),
            std::string::npos);
  EXPECT_EQ(F.Srv->stats().ProtocolErrors, 1u);
}

TEST(FrontendMatrix, SlowLorisPartialWritesStillParse) {
  Fixture F;
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  std::string Wire =
      encodeFrame(FrameMode::Length,
                  "{\"entry\":\"bench_mapsum\",\"args\":[25]}");
  for (size_t I = 0; I < Wire.size(); I += 3) {
    ASSERT_TRUE(C.sendRaw(std::string_view(Wire).substr(
        I, std::min<size_t>(3, Wire.size() - I))));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string Payload;
  ASSERT_TRUE(C.recvFrame(FrameMode::Length, Payload));
  std::optional<JsonValue> Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(serviceObj(*Doc)->find("status", JsonValue::Kind::String)->Str,
            "ok");
}

TEST(FrontendMatrix, SlowLorisThatNeverFinishesIsIdleClosed) {
  Fixture F(FrontEndConfig{}.withIdleTimeoutMs(150));
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRaw("{\"entry\":")); // dribble, then stall forever
  std::string All;
  EXPECT_TRUE(C.recvUntilClosed(All)); // the idle sweep cuts us off
  EXPECT_TRUE(All.empty());
  ServerStats NS = F.Srv->stats();
  EXPECT_EQ(NS.IdleClosed, 1u);
}

TEST(FrontendMatrix, GarbageBytesMidStreamCloseWithStructuredReject) {
  Fixture F;
  Client C(F.port());
  ASSERT_TRUE(C.ok());
  // A clean request first: the connection is in line mode.
  ASSERT_TRUE(C.sendFrame(FrameMode::Line,
                          "{\"entry\":\"bench_mapsum\",\"args\":[10]}"));
  std::string Payload;
  ASSERT_TRUE(C.recvFrame(FrameMode::Line, Payload));
  // Then garbage with no newline, larger than the frame budget: the
  // stream is no longer trustworthy, so one reject and a close.
  std::string Garbage(70 * 1024, '\xff');
  ASSERT_TRUE(C.sendRaw(Garbage));
  std::string All;
  ASSERT_TRUE(C.recvUntilClosed(All));
  FrameDecoder Dec(4u << 20);
  Dec.feed(All);
  ASSERT_EQ(Dec.next(Payload), FrameStatus::Frame);
  std::optional<JsonValue> Doc = parseWire(Payload);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(serviceObj(*Doc)->find("status", JsonValue::Kind::String)->Str,
            "bad-request");
  EXPECT_EQ(F.Srv->stats().ProtocolErrors, 1u);
}

TEST(FrontendMatrix, AbruptDisconnectWithRequestsInFlight) {
  Fixture F;
  {
    Client C(F.port());
    ASSERT_TRUE(C.ok());
    // Queue slow requests, wait until the loop has dispatched them all
    // into the service, then vanish with an RST — the responses finish
    // strictly after the connection is gone.
    // Big enough that the first request is still running when the RST
    // lands (~100ms each), small enough that all four finish inside the
    // wait budget even under a sanitizer's slowdown.
    for (int I = 0; I != 4; ++I)
      ASSERT_TRUE(C.sendFrame(FrameMode::Line,
                              "{\"entry\":\"bench_mapsum\","
                              "\"args\":[200000]}"));
    for (int I = 0; I != 500 && F.SS.stats().Submitted < 4; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(F.SS.stats().Submitted, 4u);
    C.abort();
  }
  // Workers finish the orphaned requests; their responses are dropped
  // by connection-id lookup, not delivered to freed memory.
  for (int I = 0; I != 9000 && F.SS.stats().Executed < 4; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(F.SS.stats().Executed, 4u);
  for (int I = 0; I != 500 && F.Srv->stats().DroppedResponses < 4; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(F.Srv->stats().DroppedResponses, 4u);
  // And the front end is still healthy.
  Client C2(F.port());
  ASSERT_TRUE(C2.ok());
  ASSERT_TRUE(C2.sendFrame(FrameMode::Line,
                           "{\"entry\":\"bench_mapsum\",\"args\":[10]}"));
  std::string Payload;
  EXPECT_TRUE(C2.recvFrame(FrameMode::Line, Payload));
}

// ------------------------------------------------------------------------

TEST(Frontend, ConnectionCapRefusesTheOverflow) {
  Fixture F(FrontEndConfig{}.withMaxConnections(1));
  Client C1(F.port());
  ASSERT_TRUE(C1.ok());
  // Make sure the first connection is registered before the second
  // arrives (accept order is the loop's).
  ASSERT_TRUE(C1.sendFrame(FrameMode::Line,
                           "{\"entry\":\"bench_mapsum\",\"args\":[10]}"));
  std::string Payload;
  ASSERT_TRUE(C1.recvFrame(FrameMode::Line, Payload));
  Client C2(F.port());
  ASSERT_TRUE(C2.ok()); // connect() succeeds (backlog), then server closes
  std::string All;
  EXPECT_TRUE(C2.recvUntilClosed(All));
  EXPECT_TRUE(All.empty());
  EXPECT_EQ(F.Srv->stats().Refused, 1u);
}

TEST(Frontend, FrontEndConfigBuildersAndAutoShards) {
  FrontEndConfig FC;
  FC.withShards(0)
      .withMaxFrameBytes(1024)
      .withListenBacklog(8)
      .withMaxConnections(2)
      .withIdleTimeoutMs(500)
      .withShard(ServiceConfig{}.withWorkers(2).withQueueCapacity(7));
  EXPECT_EQ(FC.MaxFrameBytes, 1024u);
  EXPECT_EQ(FC.ListenBacklog, 8);
  EXPECT_EQ(FC.MaxConnections, 2u);
  EXPECT_EQ(FC.IdleTimeoutMs, 500u);
  EXPECT_EQ(FC.Shard.Workers, 2u);
  EXPECT_EQ(FC.Shard.QueueCapacity, 7u);
  // Shards=0 resolves to hardware_concurrency clamped to [1, 8].
  ShardedService SS(FC);
  EXPECT_GE(SS.shardCount(), 1u);
  EXPECT_LE(SS.shardCount(), 8u);
  EXPECT_EQ(SS.shardCount(),
            resolveAutoParallelism(0, /*Max=*/8));
}

TEST(Frontend, PollFallbackBackendServesWhenForced) {
  // PERCEUS_NET_FORCE_POLL is a compile-time switch; at runtime we can
  // still prove the poll(2) path end-to-end only when it was selected.
  // What we always can check: the backend name is one of the two and
  // the server above already served on whichever was compiled in.
  std::string Backend = Poller::backendName();
  EXPECT_TRUE(Backend == "epoll" || Backend == "poll") << Backend;
}

} // namespace
