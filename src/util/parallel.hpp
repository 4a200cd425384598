// dnsctx — deterministic parallel execution primitives.
//
// Determinism contract: every helper here partitions work into chunks
// whose layout depends ONLY on the problem size (and a fixed grain),
// never on the thread count, and reduces per-chunk results in chunk
// order. A caller that is itself order-independent within a chunk
// therefore produces bit-identical output for any `threads` value —
// including `threads = 1`, which runs the very same chunked code inline
// with no pool at all (so single-threaded callers keep exercising the
// exact sequential path).
//
// The pool is deliberately work-stealing-free: workers pull chunk
// indices from one shared atomic counter. Chunks are coarse (thousands
// of records each), so contention on the counter is negligible and the
// scheduling stays trivial to reason about. A helper never starts more
// threads than it has tasks, however many were requested.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dnsctx::util {

/// Map a requested thread count onto an effective one: 0 = "use the
/// hardware", anything else is taken literally (clamped to >= 1).
[[nodiscard]] unsigned resolve_thread_count(unsigned requested);

/// A minimal fixed-size pool. `dispatch(count, task)` runs task(i) for
/// every i in [0, count) across the workers plus the calling thread and
/// blocks until all are done; the first exception thrown by any task is
/// rethrown on the caller. With zero workers (thread_count <= 1) the
/// dispatch degenerates to a plain inline loop.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned thread_count);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executing threads (workers + the dispatching caller).
  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  void dispatch(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  void worker_loop();
  void run_tasks(std::size_t count, const std::function<void(std::size_t)>& task);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t job_id_ = 0;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t task_count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;  ///< workers still inside the current job
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Default records-per-chunk grain for the analysis passes. Fixed so the
/// chunk layout — and hence every merged accumulator — is independent of
/// the machine and the thread count.
inline constexpr std::size_t kDefaultGrain = 65'536;

[[nodiscard]] constexpr std::size_t chunk_count(std::size_t n, std::size_t grain) {
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// Run body(begin, end) over [0, n) split into grain-sized chunks.
/// Chunk layout is thread-count-independent; bodies must only write
/// state disjoint per chunk (or otherwise commutative).
template <typename Body>
void parallel_for_chunks(unsigned threads, std::size_t n, std::size_t grain, Body&& body) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return;
  auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    body(begin, std::min(begin + grain, n));
  };
  const unsigned effective = resolve_thread_count(threads);
  if (effective <= 1 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  ThreadPool pool{static_cast<unsigned>(std::min<std::size_t>(effective, chunks))};
  pool.dispatch(chunks, run_chunk);
}

/// Run body(i) for every i in [0, n) (grain 1 — per-item tasks; used
/// where items are heavy, e.g. one simulation shard or one house).
template <typename Body>
void parallel_for_each(unsigned threads, std::size_t n, Body&& body) {
  const unsigned effective = resolve_thread_count(threads);
  if (effective <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool{static_cast<unsigned>(std::min<std::size_t>(effective, n))};
  pool.dispatch(n, [&](std::size_t i) { body(i); });
}

/// Map [0, n) in grain-sized chunks through `map(begin, end) -> Acc`,
/// then fold the per-chunk accumulators IN CHUNK ORDER with
/// `reduce(Acc& into, Acc&& part)`. Because the chunk layout and the
/// reduce order are fixed, the result is identical for any `threads`.
template <typename Acc, typename Map, typename Reduce>
[[nodiscard]] Acc parallel_map_reduce(unsigned threads, std::size_t n, std::size_t grain,
                                      Map&& map, Reduce&& reduce) {
  const std::size_t chunks = chunk_count(n, grain);
  Acc out{};
  if (chunks == 0) return out;
  std::vector<Acc> parts(chunks);
  parallel_for_chunks(threads, n, grain, [&](std::size_t begin, std::size_t end) {
    parts[begin / grain] = map(begin, end);
  });
  for (auto& part : parts) reduce(out, std::move(part));
  return out;
}

}  // namespace dnsctx::util
