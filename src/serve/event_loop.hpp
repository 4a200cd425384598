// dnsctx — single-threaded epoll event loop for the telemetry server.
//
// One thread owns the loop; every handler callback, timer, and deferred
// task runs on it, so the serve layer needs no locks around connection
// or tenant state. The only thread-safe entry points are stop() and
// wake(), which post to an eventfd.
//
// Fds register a FdHandler with level- or edge-triggered semantics
// (edge-triggered handlers must drain until EAGAIN — the HTTP
// connections do; ingest connections are level-triggered and read one
// chunk per wakeup). Handler dispatch looks the fd up in the live
// table per event, so a handler removed mid-batch (a connection closing
// itself) never sees the rest of its batch; the underlying close() is
// deferred to the end of the batch so the kernel cannot recycle the fd
// number into a stale queued event.
//
// An iteration dispatches the ready fds, fires the due timers and runs
// the deferred tasks; no other work is scheduled between iterations, so
// a handler finishes its job inside its callback.
//
// Timers sit in an ordered map keyed by (deadline, id): each iteration
// fires every timer whose deadline has passed, and the first key bounds
// how long epoll_wait may block. The serve workload holds at most one
// timer (idle-tenant eviction), so nothing cleverer pays for itself.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace dnsctx::serve {

class FdHandler {
 public:
  virtual ~FdHandler() = default;
  virtual void on_readable() {}
  virtual void on_writable() {}
  /// EPOLLERR / EPOLLHUP. Default folds into on_readable so a peer
  /// reset surfaces as a read() error on the next drain.
  virtual void on_error() { on_readable(); }
};

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` with `handler`. `edge` requests EPOLLET — the
  /// handler must then read/write until EAGAIN on every callback.
  void add(int fd, FdHandler* handler, bool want_read, bool want_write, bool edge = false);

  /// Change the interest set of a registered fd (trigger mode sticks).
  void modify(int fd, bool want_read, bool want_write);

  /// Deregister `fd`. The loop close()s it at the end of the current
  /// dispatch batch (immediately when called outside run()).
  void remove(int fd);

  /// One-shot timer `delay` from now; returns an id for cancel_timer.
  TimerId add_timer(std::chrono::milliseconds delay, std::function<void()> fn);
  void cancel_timer(TimerId id);

  /// Run `fn` on the loop thread after the current dispatch batch.
  void defer(std::function<void()> fn);

  /// Dispatch until stop(). Re-entrant calls are a programming error.
  void run();

  /// Single poll-and-dispatch iteration (tests drive the loop manually).
  void run_once(int timeout_ms);

  /// Thread-safe: request run() to return after the current iteration.
  void stop();

  /// Thread-safe: wake a blocking epoll_wait without stopping.
  void wake();

  /// Route SIGINT/SIGTERM into stop() via a self-pipe (CLI mode; at
  /// most one loop per process may watch). `on_signal` runs on the
  /// loop thread before the loop exits.
  void watch_signals(std::function<void()> on_signal = {});

  [[nodiscard]] bool stopped() const { return stop_requested_.load(std::memory_order_relaxed); }

 private:
  void advance_timers();
  [[nodiscard]] int poll_timeout_ms() const;
  void drain_wakeup();
  void run_deferred();
  void close_pending();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int signal_fd_ = -1;  ///< read end of the self-pipe (-1 = not watching)
  std::function<void()> on_signal_;

  std::map<int, FdHandler*> handlers_;
  std::map<int, bool> edge_;  ///< trigger mode per fd (modify() preserves it)
  std::vector<int> pending_close_;
  std::vector<std::function<void()>> deferred_;

  std::map<std::pair<Clock::time_point, TimerId>, std::function<void()>> timers_;
  TimerId next_timer_id_ = 1;

  bool running_ = false;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace dnsctx::serve
