//===- net/Server.h - TCP front end for the sharded service -----*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket transport of `perc --listen`: one event-loop thread
/// (Poller, over epoll) accepting TCP connections and
/// speaking perceus-wire-v1 in either framing (Wire.h auto-detects per
/// connection). The loop never executes a request — it decodes frames,
/// parses them over the CLI's default-request template, and hands them
/// to ShardedService::submitWith. Shard workers finish requests and
/// post serialized responses back through a mailbox + wake-pipe; the
/// loop owns every socket exclusively, so there is no per-connection
/// locking anywhere.
///
/// Back-pressure and robustness model:
///   * admission pressure is the service's job — queue-full, shedding,
///     rate-limit and breaker verdicts come back as structured
///     responses with RetryAfterMs, never as dropped bytes;
///   * a malformed *document* (bad JSON, unknown key, schema mismatch)
///     is a "bad-request" response; the connection lives on;
///   * a malformed *stream* (oversized frame or line, zero-length
///     frame) gets one final "bad-request" response and the connection
///     closes — framing is no longer trustworthy;
///   * a peer that disconnects with requests in flight just stops
///     receiving: its responses are dropped by connection-id lookup
///     when the workers finish (counted in DroppedResponses), and the
///     heap-empty guarantee is untouched because it never depended on
///     the client reading anything;
///   * a slow-loris peer is bounded by FrontEndConfig::IdleTimeoutMs
///     and by MaxFrameBytes of buffered input; a peer that stops
///     reading is bounded by a fixed output-buffer cap.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_NET_SERVER_H
#define PERCEUS_NET_SERVER_H

#include "net/Poller.h"
#include "net/ShardedService.h"
#include "net/Wire.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace perceus {

/// Transport-level counters (the service layer keeps its own). Atomics;
/// stats() snapshots without stopping the loop.
struct ServerStats {
  uint64_t Accepted = 0;         ///< connections accepted
  uint64_t Refused = 0;          ///< closed at accept (MaxConnections)
  uint64_t Closed = 0;           ///< connections fully closed
  uint64_t IdleClosed = 0;       ///< closed by the idle sweep
  uint64_t FramesIn = 0;         ///< complete frames decoded
  uint64_t FramesOut = 0;        ///< responses queued for send
  uint64_t BadRequests = 0;      ///< malformed documents (conn survives)
  uint64_t ProtocolErrors = 0;   ///< malformed streams (conn closes)
  uint64_t TruncatedFrames = 0;  ///< disconnects mid-frame
  uint64_t DroppedResponses = 0; ///< finished after their conn died
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
};

/// See the file comment.
class Server {
public:
  /// \p Defaults is the request template CLI flags establish (source,
  /// config, engine, limits, tenant); each frame's JSON overlays it.
  Server(ShardedService &Sharded, const FrontEndConfig &FC,
         ServiceRequest Defaults);
  ~Server(); ///< stop()s
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on "HOST:PORT" (IPv4; port 0 picks an ephemeral
  /// port — read it back with port()). Returns false and fills
  /// \p Error on failure.
  bool listen(const std::string &HostPort, std::string *Error);

  /// The bound port (after listen()).
  uint16_t port() const { return Port; }

  /// Spawns the event-loop thread. listen() must have succeeded.
  bool start();

  /// Stops the loop, joins, closes every connection. Responses still in
  /// flight inside the service are dropped on arrival. Idempotent.
  void stop();

  ServerStats stats() const;

private:
  struct Conn {
    uint64_t Id = 0;
    int Fd = -1;
    FrameDecoder Dec;
    std::string Out;      ///< encoded responses awaiting send
    size_t OutOff = 0;    ///< sent prefix of Out
    uint64_t NextSeq = 1; ///< per-connection frame counter
    uint64_t InFlight = 0;
    bool ReadClosed = false;
    bool CloseAfterFlush = false;
    bool WantWrite = false;
    std::chrono::steady_clock::time_point LastActivity;

    explicit Conn(size_t MaxFrame) : Dec(MaxFrame) {}
  };

  /// Worker→loop handoff. Workers outlive neither the service nor this
  /// mailbox's shared_ptr, so a response finishing after stop() lands
  /// on a dead mailbox and is dropped, never on freed memory.
  struct Mailbox {
    std::mutex M;
    bool Alive = true;
    int WakeWr = -1;
    std::deque<std::pair<uint64_t, std::string>> Q; ///< (conn id, bytes)
    void post(uint64_t ConnId, std::string Bytes);
  };

  struct AtomicStats {
    std::atomic<uint64_t> Accepted{0}, Refused{0}, Closed{0}, IdleClosed{0},
        FramesIn{0}, FramesOut{0}, BadRequests{0}, ProtocolErrors{0},
        TruncatedFrames{0}, DroppedResponses{0}, BytesIn{0}, BytesOut{0};
  };

  void loop();
  Conn *connAt(int Fd, uint64_t Id);
  void acceptAll();
  void readInput(Conn &C);
  void processFrames(Conn &C);
  void dispatch(Conn &C, const std::string &Payload);
  void queueResponse(Conn &C, const std::string &Doc);
  void flushOut(Conn &C);
  void drainMailbox();
  void sweepIdle();
  void updateInterest(Conn &C);
  void closeConn(Conn &C, bool Idle = false);
  void maybeClose(Conn &C);

  ShardedService &Sharded;
  FrontEndConfig Config;
  ServiceRequest Defaults;

  Poller P;
  int ListenFd = -1;
  int WakeRd = -1;
  uint16_t Port = 0;
  std::shared_ptr<Mailbox> Mail;

  std::unordered_map<int, Conn> Conns;         ///< by fd
  std::unordered_map<uint64_t, int> ConnById;  ///< id -> fd
  uint64_t NextConnId = 1;

  mutable AtomicStats Stats;
  std::atomic<bool> StopFlag{false};
  std::thread LoopThread;
  bool Started = false;
};

} // namespace perceus

#endif // PERCEUS_NET_SERVER_H
