// dnsctx — event loop unit tests: timers, deferred work, fd dispatch,
// and cross-thread stop.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include <unistd.h>

#include "serve/event_loop.hpp"

namespace dnsctx::serve {
namespace {

TEST(EventLoop, TimerFires) {
  EventLoop loop;
  int fired = 0;
  loop.add_timer(std::chrono::milliseconds{5}, [&] { ++fired; });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{2};
  while (fired == 0 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.add_timer(std::chrono::milliseconds{5}, [&] { ++fired; });
  loop.cancel_timer(id);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds{100};
  while (std::chrono::steady_clock::now() < deadline) {
    loop.run_once(10);
  }
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, TimersBeyondOneWheelRevolutionFire) {
  // A 100ms timer and a short one must both fire, each exactly once.
  EventLoop loop;
  int fast = 0, slow = 0;
  loop.add_timer(std::chrono::milliseconds{5}, [&] { ++fast; });
  loop.add_timer(std::chrono::milliseconds{100}, [&] { ++slow; });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{3};
  while ((fast == 0 || slow == 0) && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);
  }
  EXPECT_EQ(fast, 1);
  EXPECT_EQ(slow, 1);
}

TEST(EventLoop, TimerFiresOnTimeAfterAnEarlyIteration) {
  // An iteration that runs before a timer's deadline must not lose the
  // timer: run() returns as soon as it fires. Several rounds, because
  // the early iteration need not land close to the deadline.
  for (int round = 0; round < 8; ++round) {
    EventLoop loop;
    bool fired = false;
    loop.add_timer(std::chrono::milliseconds{1}, [&] {
      fired = true;
      loop.stop();
    });
    loop.run_once(0);
    if (fired) continue;  // the iteration came after the deadline after all
    const auto start = std::chrono::steady_clock::now();
    loop.run();
    EXPECT_TRUE(fired);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds{500})
        << "round " << round;
  }
}

TEST(EventLoop, DeferredRunsAfterBatchAndCanChain) {
  EventLoop loop;
  std::vector<int> order;
  loop.defer([&] {
    order.push_back(1);
    loop.defer([&] { order.push_back(2); });
  });
  loop.run_once(0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, StopFromAnotherThreadWakesRun) {
  EventLoop loop;
  std::thread stopper{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    loop.stop();
  }};
  loop.run();  // would block forever without the wake
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

class PipeReader : public FdHandler {
 public:
  explicit PipeReader(EventLoop& loop, int fd) : loop_{loop}, fd_{fd} {}
  void on_readable() override {
    char buf[64];
    const auto n = ::read(fd_, buf, sizeof buf);
    if (n > 0) bytes_ += static_cast<std::size_t>(n);
    if (remove_on_read_) loop_.remove(fd_);
  }
  std::size_t bytes_ = 0;
  bool remove_on_read_ = false;

 private:
  EventLoop& loop_;
  int fd_;
};

TEST(EventLoop, DispatchesReadableFd) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  PipeReader reader{loop, fds[0]};
  loop.add(fds[0], &reader, /*read=*/true, /*write=*/false);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  loop.run_once(100);
  EXPECT_EQ(reader.bytes_, 3u);
  loop.remove(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, HandlerMayRemoveItselfMidDispatch) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  PipeReader reader{loop, fds[0]};
  reader.remove_on_read_ = true;
  loop.add(fds[0], &reader, /*read=*/true, /*write=*/false);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run_once(100);  // must not crash or double-dispatch
  EXPECT_EQ(reader.bytes_, 1u);
  loop.run_once(0);  // fd closed by remove(); nothing further fires
  EXPECT_EQ(reader.bytes_, 1u);
  ::close(fds[1]);
}

}  // namespace
}  // namespace dnsctx::serve
