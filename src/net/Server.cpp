//===- net/Server.cpp - TCP front end for the sharded service -------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "service/ServiceJson.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perceus;

namespace {

/// A stalled or dead reader may not consume responses; cap what we will
/// buffer for it before declaring the connection unsalvageable.
constexpr size_t MaxOutBufBytes = 8u << 20;

/// listen(2) backlog for the accept socket.
constexpr int ListenBacklog = 64;

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// "HOST:PORT" with an IPv4 host (or "localhost"). Port 0 = ephemeral.
bool parseHostPort(const std::string &HostPort, sockaddr_in &Addr,
                   std::string &Error) {
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos) {
    Error = "expected HOST:PORT, got \"" + HostPort + "\"";
    return false;
  }
  std::string Host = HostPort.substr(0, Colon);
  std::string PortStr = HostPort.substr(Colon + 1);
  if (Host == "localhost")
    Host = "127.0.0.1";
  char *End = nullptr;
  long Port = std::strtol(PortStr.c_str(), &End, 10);
  if (PortStr.empty() || *End != '\0' || Port < 0 || Port > 65535) {
    Error = "bad port \"" + PortStr + "\"";
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Error = "bad IPv4 host \"" + Host + "\"";
    return false;
  }
  return true;
}

} // namespace

void Server::Mailbox::post(uint64_t ConnId, std::string Bytes) {
  std::lock_guard<std::mutex> Lock(M);
  if (!Alive)
    return;
  bool WasEmpty = Q.empty();
  Q.emplace_back(ConnId, std::move(Bytes));
  if (WasEmpty && WakeWr >= 0) {
    char B = 1;
    ssize_t Ignored = write(WakeWr, &B, 1);
    (void)Ignored; // pipe full just means a wakeup is already pending
  }
}

Server::Server(ShardedService &Sharded, const FrontEndConfig &FC,
               ServiceRequest Defaults)
    : Sharded(Sharded), Config(FC), Defaults(std::move(Defaults)),
      Mail(std::make_shared<Mailbox>()) {}

Server::~Server() { stop(); }

bool Server::listen(const std::string &HostPort, std::string *Error) {
  std::string Err;
  sockaddr_in Addr;
  if (!parseHostPort(HostPort, Addr, Err)) {
    if (Error)
      *Error = Err;
    return false;
  }
  ListenFd = socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(ListenFd, ListenBacklog) != 0 ||
      !setNonBlocking(ListenFd)) {
    if (Error)
      *Error = std::string("bind/listen: ") + std::strerror(errno);
    close(ListenFd);
    ListenFd = -1;
    return false;
  }
  sockaddr_in Bound;
  socklen_t Len = sizeof(Bound);
  if (getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
    Port = ntohs(Bound.sin_port);
  return true;
}

bool Server::start() {
  if (ListenFd < 0 || Started || !P.ok())
    return false;
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return false;
  setNonBlocking(Pipe[0]);
  setNonBlocking(Pipe[1]);
  WakeRd = Pipe[0];
  {
    std::lock_guard<std::mutex> Lock(Mail->M);
    Mail->WakeWr = Pipe[1];
  }
  P.add(ListenFd, /*Read=*/true, /*Write=*/false);
  P.add(WakeRd, /*Read=*/true, /*Write=*/false);
  Started = true;
  LoopThread = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  if (!Started) {
    if (ListenFd >= 0) {
      close(ListenFd);
      ListenFd = -1;
    }
    return;
  }
  StopFlag.store(true, std::memory_order_relaxed);
  Mail->post(0, ""); // any post wakes the loop; id 0 never matches
  LoopThread.join();
  Started = false;
  int WakeWr = -1;
  {
    // Dead mailbox first: a worker finishing now must see !Alive before
    // the pipe fd it would write to is closed (and possibly reused).
    std::lock_guard<std::mutex> Lock(Mail->M);
    Mail->Alive = false;
    WakeWr = Mail->WakeWr;
    Mail->WakeWr = -1;
    Mail->Q.clear();
  }
  if (WakeWr >= 0)
    close(WakeWr);
  if (WakeRd >= 0) {
    close(WakeRd);
    WakeRd = -1;
  }
  for (auto &KV : Conns)
    close(KV.second.Fd);
  Conns.clear();
  ConnById.clear();
  if (ListenFd >= 0) {
    close(ListenFd);
    ListenFd = -1;
  }
}

ServerStats Server::stats() const {
  ServerStats S;
  S.Accepted = Stats.Accepted.load(std::memory_order_relaxed);
  S.Refused = Stats.Refused.load(std::memory_order_relaxed);
  S.Closed = Stats.Closed.load(std::memory_order_relaxed);
  S.IdleClosed = Stats.IdleClosed.load(std::memory_order_relaxed);
  S.FramesIn = Stats.FramesIn.load(std::memory_order_relaxed);
  S.FramesOut = Stats.FramesOut.load(std::memory_order_relaxed);
  S.BadRequests = Stats.BadRequests.load(std::memory_order_relaxed);
  S.ProtocolErrors = Stats.ProtocolErrors.load(std::memory_order_relaxed);
  S.TruncatedFrames = Stats.TruncatedFrames.load(std::memory_order_relaxed);
  S.DroppedResponses = Stats.DroppedResponses.load(std::memory_order_relaxed);
  S.BytesIn = Stats.BytesIn.load(std::memory_order_relaxed);
  S.BytesOut = Stats.BytesOut.load(std::memory_order_relaxed);
  return S;
}

void Server::loop() {
  std::vector<PollEvent> Evs;
  while (!StopFlag.load(std::memory_order_relaxed)) {
    // A finite timeout backs up the wake-pipe (stop, idle sweep) so a
    // lost wakeup can only ever delay, not deadlock.
    P.wait(Evs, Config.IdleTimeoutMs ? 100 : 500);
    for (const PollEvent &Ev : Evs) {
      if (Ev.Fd == WakeRd) {
        char Buf[256];
        while (read(WakeRd, Buf, sizeof(Buf)) > 0)
          ;
        continue;
      }
      if (Ev.Fd == ListenFd) {
        acceptAll();
        continue;
      }
      auto It = Conns.find(Ev.Fd);
      if (It == Conns.end())
        continue; // closed earlier in this batch
      uint64_t Id = It->second.Id;
      if (Ev.Writable)
        flushOut(It->second);
      // flushOut may close; re-find before reading.
      if (Conn *C = connAt(Ev.Fd, Id))
        if (Ev.Readable || Ev.Hangup)
          readInput(*C);
    }
    drainMailbox();
    if (Config.IdleTimeoutMs)
      sweepIdle();
  }
}

void Server::acceptAll() {
  for (;;) {
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or transient error; the poller will re-arm
    if (Conns.size() >= Config.MaxConnections || !setNonBlocking(Fd)) {
      Stats.Refused.fetch_add(1, std::memory_order_relaxed); // see closeConn
      close(Fd);
      continue;
    }
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    Conn C(Config.MaxFrameBytes);
    C.Id = NextConnId++;
    C.Fd = Fd;
    C.LastActivity = std::chrono::steady_clock::now();
    ConnById.emplace(C.Id, Fd);
    Conns.emplace(Fd, std::move(C));
    P.add(Fd, /*Read=*/true, /*Write=*/false);
    Stats.Accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

Server::Conn *Server::connAt(int Fd, uint64_t Id) {
  auto It = Conns.find(Fd);
  return It != Conns.end() && It->second.Id == Id ? &It->second : nullptr;
}

void Server::readInput(Conn &C0) {
  // queueResponse/flushOut on the paths below can erase the connection;
  // revalidate by (fd, id) after every call that might.
  const int Fd = C0.Fd;
  const uint64_t Id = C0.Id;
  char Buf[16384];
  for (;;) {
    Conn *C = connAt(Fd, Id);
    if (!C)
      return;
    ssize_t N = recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Stats.BytesIn.fetch_add(uint64_t(N), std::memory_order_relaxed);
      C->LastActivity = std::chrono::steady_clock::now();
      C->Dec.feed(std::string_view(Buf, size_t(N)));
      processFrames(*C);
      C = connAt(Fd, Id);
      if (!C || C->ReadClosed)
        return; // closed, or protocol error: ignore further input
      continue;
    }
    if (N == 0) {
      // Orderly shutdown from the peer. Half-close is honored: anything
      // already dispatched still gets written back. A partial frame in
      // the buffer means the peer died mid-send.
      if (C->Dec.hasPartial())
        Stats.TruncatedFrames.fetch_add(1, std::memory_order_relaxed);
      C->ReadClosed = true;
      updateInterest(*C);
      maybeClose(*C);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    if (errno == EINTR)
      continue;
    closeConn(*C); // ECONNRESET and friends
    return;
  }
}

void Server::processFrames(Conn &C0) {
  const int Fd = C0.Fd;
  const uint64_t Id = C0.Id;
  std::string Payload;
  for (;;) {
    Conn *C = connAt(Fd, Id);
    if (!C)
      return;
    FrameStatus St = C->Dec.next(Payload);
    if (St == FrameStatus::NeedMore)
      return;
    if (St == FrameStatus::Error) {
      // The byte stream itself is broken; answer once, then close.
      Stats.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      ServiceResponse Bad;
      Bad.Seq = C->NextSeq++;
      Bad.Tenant = Defaults.Tenant;
      Bad.Reject = RejectKind::BadRequest;
      Bad.Error = "malformed frame: " + C->Dec.error();
      C->ReadClosed = true;
      C->CloseAfterFlush = true;
      queueResponse(*C, wireResponseJson(Bad));
      if ((C = connAt(Fd, Id)))
        maybeClose(*C);
      return;
    }
    Stats.FramesIn.fetch_add(1, std::memory_order_relaxed);
    dispatch(*C, Payload);
  }
}

void Server::dispatch(Conn &C, const std::string &Payload) {
  uint64_t Seq = C.NextSeq++;
  ServiceRequest R = Defaults;
  std::string Err;
  if (!parseServiceRequestJson(Payload, R, Err)) {
    // A malformed document, not a malformed stream: answer structurally
    // and keep the connection.
    Stats.BadRequests.fetch_add(1, std::memory_order_relaxed);
    ServiceResponse Bad;
    Bad.Seq = Seq;
    Bad.Tenant = R.Tenant;
    Bad.Reject = RejectKind::BadRequest;
    Bad.Error = Err;
    queueResponse(C, wireResponseJson(Bad));
    return;
  }
  ++C.InFlight;
  auto MB = Mail;
  uint64_t ConnId = C.Id;
  FrameMode Mode = C.Dec.mode();
  Sharded.submitWith(std::move(R),
                     [MB, ConnId, Seq, Mode](ServiceResponse Resp) {
                       Resp.Seq = Seq;
                       // Serialize on the worker: the loop thread only
                       // moves bytes.
                       MB->post(ConnId,
                                encodeFrame(Mode, wireResponseJson(Resp)));
                     });
}

void Server::queueResponse(Conn &C, const std::string &Doc) {
  FrameMode Mode =
      C.Dec.mode() == FrameMode::Unknown ? FrameMode::Line : C.Dec.mode();
  C.Out += encodeFrame(Mode, Doc);
  Stats.FramesOut.fetch_add(1, std::memory_order_relaxed);
  if (C.Out.size() - C.OutOff > MaxOutBufBytes) {
    closeConn(C);
    return;
  }
  flushOut(C);
}

void Server::flushOut(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    ssize_t N = send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                     MSG_NOSIGNAL);
    if (N > 0) {
      Stats.BytesOut.fetch_add(uint64_t(N), std::memory_order_relaxed);
      C.OutOff += size_t(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      updateInterest(C);
      return;
    }
    if (N < 0 && errno == EINTR)
      continue;
    closeConn(C); // EPIPE: the peer is gone
    return;
  }
  C.Out.clear();
  C.OutOff = 0;
  updateInterest(C);
  maybeClose(C);
}

void Server::drainMailbox() {
  std::deque<std::pair<uint64_t, std::string>> Q;
  {
    std::lock_guard<std::mutex> Lock(Mail->M);
    Q.swap(Mail->Q);
  }
  for (auto &Item : Q) {
    auto IdIt = ConnById.find(Item.first);
    if (IdIt == ConnById.end()) {
      if (Item.first != 0) // 0 is the stop() wake sentinel
        Stats.DroppedResponses.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Conn &C = Conns.at(IdIt->second);
    if (C.InFlight > 0)
      --C.InFlight;
    C.Out += Item.second;
    Stats.FramesOut.fetch_add(1, std::memory_order_relaxed);
    if (C.Out.size() - C.OutOff > MaxOutBufBytes) {
      closeConn(C);
      continue;
    }
    flushOut(C);
  }
}

void Server::sweepIdle() {
  auto Now = std::chrono::steady_clock::now();
  std::vector<int> Victims;
  for (auto &KV : Conns) {
    Conn &C = KV.second;
    if (C.InFlight != 0 || C.OutOff < C.Out.size())
      continue;
    auto IdleMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Now - C.LastActivity)
                      .count();
    if (IdleMs >= 0 && uint64_t(IdleMs) >= Config.IdleTimeoutMs)
      Victims.push_back(KV.first);
  }
  for (int Fd : Victims) {
    auto It = Conns.find(Fd);
    if (It != Conns.end())
      closeConn(It->second, /*Idle=*/true);
  }
}

void Server::updateInterest(Conn &C) {
  bool WantWrite = C.OutOff < C.Out.size();
  if (WantWrite == C.WantWrite)
    return;
  C.WantWrite = WantWrite;
  P.update(C.Fd, /*Read=*/!C.ReadClosed, WantWrite);
}

void Server::closeConn(Conn &C, bool Idle) {
  // Count before closing: a peer that sees the close may read the stats.
  Stats.Closed.fetch_add(1, std::memory_order_relaxed);
  if (Idle)
    Stats.IdleClosed.fetch_add(1, std::memory_order_relaxed);
  P.remove(C.Fd);
  close(C.Fd);
  ConnById.erase(C.Id);
  Conns.erase(C.Fd); // invalidates C; must be last
}

void Server::maybeClose(Conn &C) {
  bool Flushed = C.OutOff >= C.Out.size();
  if (Flushed && (C.CloseAfterFlush || (C.ReadClosed && C.InFlight == 0)))
    closeConn(C);
}
