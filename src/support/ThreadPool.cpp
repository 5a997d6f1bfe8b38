//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace primsel;

ThreadPool::ThreadPool(unsigned NumThreadsIn) {
  NumThreads = NumThreadsIn ? NumThreadsIn
                            : std::max(1u, std::thread::hardware_concurrency());
  // The caller thread counts as one worker; spawn the rest.
  for (unsigned I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runChunk(const Task &T) {
  for (int64_t I = T.Begin; I < T.End; ++I)
    (*T.Body)(I);
}

void ThreadPool::workerLoop(unsigned) {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WakeWorkers.wait(Lock,
                     [&] { return ShuttingDown || !PendingTasks.empty(); });
    if (ShuttingDown && PendingTasks.empty())
      return;
    Task T = PendingTasks.back();
    PendingTasks.pop_back();
    Lock.unlock();
    runChunk(T);
    WorkerChunks.fetch_add(1, std::memory_order_relaxed);
    Lock.lock();
    assert(Outstanding > 0 && "chunk accounting out of sync");
    if (--Outstanding == 0)
      WakeMaster.notify_all();
  }
}

void ThreadPool::parallelFor(int64_t Begin, int64_t End,
                             const std::function<void(int64_t)> &Body,
                             int MaxWorkers) {
  if (Begin >= End)
    return;
  int64_t N = End - Begin;
  int64_t Workers = NumThreads;
  if (MaxWorkers > 0)
    Workers = std::min<int64_t>(Workers, MaxWorkers);
  if (Workers == 1 || N == 1) {
    Task All{Begin, End, &Body};
    runChunk(All);
    return;
  }

  // Split into one contiguous chunk per worker; the caller keeps the first
  // chunk for itself so small loops pay no synchronization for it.
  int64_t NumChunks = std::min<int64_t>(Workers, N);
  int64_t ChunkSize = (N + NumChunks - 1) / NumChunks;
  Task MyChunk{Begin, std::min(End, Begin + ChunkSize), &Body};
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (int64_t C = 1; C < NumChunks; ++C) {
      int64_t ChunkBegin = Begin + C * ChunkSize;
      int64_t ChunkEnd = std::min(End, ChunkBegin + ChunkSize);
      if (ChunkBegin >= ChunkEnd)
        break;
      PendingTasks.push_back(Task{ChunkBegin, ChunkEnd, &Body});
      ++Outstanding;
    }
  }
  WakeWorkers.notify_all();
  runChunk(MyChunk);
  std::unique_lock<std::mutex> Lock(Mutex);
  WakeMaster.wait(Lock, [&] { return Outstanding == 0; });
}
