//===- net/Poller.h - epoll readiness abstraction ---------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one readiness primitive the event loop needs: register a file
/// descriptor for read and/or write interest, wait, get back which fds
/// are ready. Backed by Linux's epoll(7) (O(ready) wakeups, interest
/// list kept in the kernel). Level-triggered, so the server may leave
/// bytes unconsumed and be re-woken.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_NET_POLLER_H
#define PERCEUS_NET_POLLER_H

#include <vector>

namespace perceus {

/// One ready fd out of wait().
struct PollEvent {
  int Fd = -1;
  bool Readable = false;
  bool Writable = false;
  /// Peer hung up or the fd errored; treat as readable-to-EOF.
  bool Hangup = false;
};

/// See the file comment.
class Poller {
public:
  Poller();
  ~Poller();
  Poller(const Poller &) = delete;
  Poller &operator=(const Poller &) = delete;

  bool ok() const;

  bool add(int Fd, bool Read, bool Write);
  bool update(int Fd, bool Read, bool Write);
  void remove(int Fd);

  /// Blocks up to \p TimeoutMs (-1 = forever) and fills \p Out with the
  /// ready set. Returns the count, 0 on timeout or EINTR.
  int wait(std::vector<PollEvent> &Out, int TimeoutMs);

private:
  int EpFd = -1;
};

} // namespace perceus

#endif // PERCEUS_NET_POLLER_H
