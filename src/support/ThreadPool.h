//===- support/ThreadPool.h - Simple parallel-for pool ----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool exposing a blocking parallelFor. Primitives use
/// it for the paper's multithreaded configuration (§5.2: "multi-threaded
/// benchmarks were run using all cores available on the machine").
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SUPPORT_THREADPOOL_H
#define PRIMSEL_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace primsel {

/// Fixed-size thread pool with a blocking chunked parallel-for.
///
/// A pool of size 1 executes everything inline on the caller thread, which is
/// the single-threaded configuration used in the paper's (S) experiments.
class ThreadPool {
public:
  /// \param NumThreads total workers including the caller. 0 means
  /// hardware_concurrency().
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return NumThreads; }

  /// Run Body(I) for every I in [Begin, End), splitting the range across all
  /// workers in contiguous chunks. Blocks until every iteration finished.
  /// The caller thread participates, so a 1-thread pool runs inline.
  /// \p MaxWorkers > 0 caps how many workers the split may use (a plan that
  /// priced a node at T threads runs it with at most T, whatever the pool
  /// size); 0 means the whole pool.
  void parallelFor(int64_t Begin, int64_t End,
                   const std::function<void(int64_t)> &Body,
                   int MaxWorkers = 0);

  /// Chunks run so far by the spawned workers (not the caller thread): a
  /// read-only probe that a capped loop never left the calling thread.
  uint64_t workerChunks() const {
    return WorkerChunks.load(std::memory_order_relaxed);
  }

private:
  struct Task {
    int64_t Begin = 0;
    int64_t End = 0;
    const std::function<void(int64_t)> *Body = nullptr;
  };

  void workerLoop(unsigned WorkerIndex);
  void runChunk(const Task &T);

  unsigned NumThreads;
  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable WakeMaster;
  std::vector<Task> PendingTasks;
  unsigned Outstanding = 0;
  bool ShuttingDown = false;
  std::atomic<uint64_t> WorkerChunks{0};
};

} // namespace primsel

#endif // PRIMSEL_SUPPORT_THREADPOOL_H
