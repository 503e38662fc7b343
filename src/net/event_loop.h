// Copyright 2026 The GraphRARE Authors.
//
// Single-threaded epoll event loop: the reactor under the HTTP server.
// One thread calls Run() and owns every registered fd callback; other
// threads (batch workers, the reload thread, signal handlers) interact
// only through Post() / Stop(), both of which are safe to call from any
// thread — Stop() is additionally async-signal-safe (an atomic store plus
// an eventfd write), so a SIGINT handler can shut the server down cleanly.

#ifndef GRAPHRARE_NET_EVENT_LOOP_H_
#define GRAPHRARE_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace graphrare {
namespace net {

class EventLoop {
 public:
  /// Called with the ready epoll event mask (EPOLLIN/EPOLLOUT/...).
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Whether the epoll + wakeup fds came up; Run() refuses otherwise.
  Status Ok() const;

  /// Registers `fd` for `events` (level-triggered). The callback runs on
  /// the loop thread only.
  Status Add(int fd, uint32_t events, FdCallback callback);
  /// Changes the event mask of a registered fd.
  Status Modify(int fd, uint32_t events);
  /// Unregisters a fd. Does not close it.
  void Remove(int fd);

  /// Queues `fn` to run on the loop thread and wakes the loop. Safe from
  /// any thread; the queue drains once per poll iteration.
  void Post(std::function<void()> fn);

  /// Runs until Stop(). `tick_ms` bounds the poll timeout; `on_tick` (may
  /// be empty) runs after every poll wake-up — the place for coarse timers
  /// such as idle-connection sweeps and drain checks.
  void Run(int tick_ms, const std::function<void()>& on_tick);

  /// Requests Run() to return after the current iteration. Callable from
  /// any thread or from a signal handler.
  void Stop();

  /// Clears a previous Stop() so the loop can be reused (tests).
  void ResetStop() { stop_.store(false); }

 private:
  void DrainWakeFd();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::unordered_map<int, FdCallback> callbacks_;
};

}  // namespace net
}  // namespace graphrare

#endif  // GRAPHRARE_NET_EVENT_LOOP_H_
