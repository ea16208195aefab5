//===- net/Poller.cpp - epoll readiness abstraction -----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Poller.h"

#include <sys/epoll.h>
#include <unistd.h>

using namespace perceus;

Poller::Poller() { EpFd = epoll_create1(0); }

Poller::~Poller() {
  if (EpFd >= 0)
    close(EpFd);
}

bool Poller::ok() const { return EpFd >= 0; }

static uint32_t toEpoll(bool Read, bool Write) {
  uint32_t E = 0;
  if (Read)
    E |= EPOLLIN;
  if (Write)
    E |= EPOLLOUT;
  return E;
}

bool Poller::add(int Fd, bool Read, bool Write) {
  epoll_event Ev{};
  Ev.events = toEpoll(Read, Write);
  Ev.data.fd = Fd;
  return epoll_ctl(EpFd, EPOLL_CTL_ADD, Fd, &Ev) == 0;
}

bool Poller::update(int Fd, bool Read, bool Write) {
  epoll_event Ev{};
  Ev.events = toEpoll(Read, Write);
  Ev.data.fd = Fd;
  return epoll_ctl(EpFd, EPOLL_CTL_MOD, Fd, &Ev) == 0;
}

void Poller::remove(int Fd) { epoll_ctl(EpFd, EPOLL_CTL_DEL, Fd, nullptr); }

int Poller::wait(std::vector<PollEvent> &Out, int TimeoutMs) {
  epoll_event Evs[64];
  int N = epoll_wait(EpFd, Evs, 64, TimeoutMs);
  Out.clear();
  if (N <= 0)
    return 0; // EINTR and timeout both mean "nothing ready"
  for (int I = 0; I != N; ++I) {
    PollEvent E;
    E.Fd = Evs[I].data.fd;
    E.Readable = (Evs[I].events & EPOLLIN) != 0;
    E.Writable = (Evs[I].events & EPOLLOUT) != 0;
    E.Hangup = (Evs[I].events & (EPOLLHUP | EPOLLERR)) != 0;
    Out.push_back(E);
  }
  return N;
}
