#include "serve/event_loop.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "util/strings.hpp"

namespace dnsctx::serve {

namespace {

/// Write end of the signal self-pipe. Written from the async signal
/// handler, so it must be a plain volatile int set before handlers are
/// installed (write() is async-signal-safe; nothing else is).
volatile int g_signal_pipe_wr = -1;

extern "C" void dnsctx_serve_on_signal(int) {
  const int fd = g_signal_pipe_wr;
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error{"serve: epoll_create1 failed"};
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error{"serve: eventfd failed"};
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw std::runtime_error{"serve: cannot register wakeup fd"};
  }
}

EventLoop::~EventLoop() {
  if (signal_fd_ >= 0) {
    g_signal_pipe_wr = -1;
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    ::close(signal_fd_);
  }
  close_pending();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::add(int fd, FdHandler* handler, bool want_read, bool want_write, bool edge) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u) |
              (edge ? EPOLLET : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw std::runtime_error{strfmt("serve: epoll add fd %d: %s", fd, std::strerror(errno))};
  }
  handlers_[fd] = handler;
  edge_.insert_or_assign(fd, edge);
}

void EventLoop::modify(int fd, bool want_read, bool want_write) {
  const auto it = edge_.find(fd);
  const bool edge = it != edge_.end() && it->second;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u) |
              (edge ? EPOLLET : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw std::runtime_error{strfmt("serve: epoll mod fd %d: %s", fd, std::strerror(errno))};
  }
}

void EventLoop::remove(int fd) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
  edge_.erase(fd);
  if (running_) {
    pending_close_.push_back(fd);
  } else {
    ::close(fd);
  }
}

EventLoop::TimerId EventLoop::add_timer(std::chrono::milliseconds delay,
                                        std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  timers_.emplace(std::pair{Clock::now() + delay, id}, std::move(fn));
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  const auto it = std::find_if(timers_.begin(), timers_.end(),
                               [id](const auto& t) { return t.first.second == id; });
  if (it != timers_.end()) timers_.erase(it);
}

void EventLoop::defer(std::function<void()> fn) { deferred_.push_back(std::move(fn)); }

void EventLoop::advance_timers() {
  const auto now = Clock::now();
  // Take the due timers out first: a callback may add or cancel timers.
  std::vector<std::function<void()>> fired;
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    fired.push_back(std::move(timers_.begin()->second));
    timers_.erase(timers_.begin());
  }
  for (auto& fn : fired) fn();
}

int EventLoop::poll_timeout_ms() const {
  if (stopped() || !deferred_.empty()) return 0;
  if (timers_.empty()) return -1;
  const auto soonest = timers_.begin()->first.first;
  const auto now = Clock::now();
  if (soonest <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(soonest - now);
  return static_cast<int>(std::min<std::int64_t>(ms.count() + 1, 60'000));
}

void EventLoop::drain_wakeup() {
  std::uint64_t v = 0;
  while (::read(wake_fd_, &v, sizeof v) > 0) {
  }
}

void EventLoop::run_deferred() {
  while (!deferred_.empty()) {
    std::vector<std::function<void()>> batch;
    batch.swap(deferred_);
    for (auto& fn : batch) fn();
  }
}

void EventLoop::close_pending() {
  for (const int fd : pending_close_) ::close(fd);
  pending_close_.clear();
}

void EventLoop::run_once(int timeout_ms) {
  running_ = true;
  std::array<epoll_event, 64> events{};
  const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                             timeout_ms);
  for (std::size_t i = 0; i < static_cast<std::size_t>(std::max(n, 0)); ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t ev = events[i].events;
    if (fd == wake_fd_) {
      drain_wakeup();
      continue;
    }
    if (fd == signal_fd_) {
      char buf[16];
      while (::read(signal_fd_, buf, sizeof buf) > 0) {
      }
      if (on_signal_) on_signal_();
      stop();
      continue;
    }
    // Look the handler up per phase: a callback may remove its own fd
    // (or another's), and stale events must then be dropped.
    if (ev & EPOLLERR) {
      if (const auto it = handlers_.find(fd); it != handlers_.end()) it->second->on_error();
      continue;
    }
    if (ev & (EPOLLIN | EPOLLHUP)) {
      if (const auto it = handlers_.find(fd); it != handlers_.end()) it->second->on_readable();
    }
    if (ev & EPOLLOUT) {
      if (const auto it = handlers_.find(fd); it != handlers_.end()) it->second->on_writable();
    }
  }
  advance_timers();
  run_deferred();
  close_pending();
  running_ = false;
}

void EventLoop::run() {
  stop_requested_.store(false, std::memory_order_relaxed);
  while (!stopped()) {
    run_once(poll_timeout_ms());
  }
  run_deferred();
  close_pending();
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake();
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto rc = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::watch_signals(std::function<void()> on_signal) {
  if (signal_fd_ >= 0) return;
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    throw std::runtime_error{"serve: cannot create signal pipe"};
  }
  signal_fd_ = fds[0];
  g_signal_pipe_wr = fds[1];
  on_signal_ = std::move(on_signal);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = signal_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, signal_fd_, &ev) < 0) {
    throw std::runtime_error{"serve: cannot register signal pipe"};
  }
  struct sigaction sa{};
  sa.sa_handler = dnsctx_serve_on_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace dnsctx::serve
