//===- engine/Ladder.cpp --------------------------------------------------===//

#include "engine/Ladder.h"

#include <algorithm>
#include <cassert>

using namespace primsel;

CompiledNetLadder::CompiledNetLadder(
    std::vector<int64_t> BucketsIn, std::shared_ptr<const CompiledNet> Bucket1,
    BucketCompiler CompilerIn, bool BackgroundIn)
    : Buckets(std::move(BucketsIn)), Compiler(std::move(CompilerIn)),
      Background(BackgroundIn) {
  assert(!Buckets.empty() && Buckets.front() == 1 &&
         "Engine::compileLadder normalizes the bucket list");
  assert(Bucket1 && "the anchor artifact is mandatory");
  Rungs[1] = std::move(Bucket1);
  Counters.ResidentBuckets = 1;

  if (Background) {
    Worker = std::thread([this] { backgroundLoop(); });
    return;
  }
  // Synchronous ladder: the whole ladder exists before the first request
  // (fleet budget accounting charges it in one shot).
  for (int64_t B : Buckets)
    compileBucketSync(B);
}

CompiledNetLadder::~CompiledNetLadder() {
  {
    std::lock_guard<std::mutex> L(Mutex);
    Stop = true;
  }
  WorkCv.notify_all();
  if (Worker.joinable())
    Worker.join();
}

int64_t CompiledNetLadder::idealBucket(int64_t K) const {
  for (int64_t B : Buckets)
    if (B >= K)
      return B;
  return 0;
}

CompiledNetLadder::Rung CompiledNetLadder::acquire(int64_t K) {
  assert(K >= 1 && "batches have at least one request");
  std::lock_guard<std::mutex> L(Mutex);
  // The smallest resident bucket that can hold K.
  Rung Found;
  auto It = Rungs.lower_bound(K);
  if (It != Rungs.end()) {
    ++Counters.Hits;
    Found = Rung{It->first, It->second};
  } else {
    ++Counters.Misses;
  }
  // Unless it is what K gets, queue the ideal bucket for the background
  // thread, on a miss and on a hit on a larger bucket alike; the request
  // path itself never compiles. Failed buckets stay in Requested and are
  // not retried.
  int64_t Ideal = idealBucket(K);
  if (Background && Ideal != 0 && Found.Bucket != Ideal &&
      Requested.insert(Ideal).second) {
    Queue.push_back(Ideal);
    WorkCv.notify_one();
  }
  return Found;
}

std::shared_ptr<const CompiledNet> CompiledNetLadder::bucket(int64_t B) const {
  std::lock_guard<std::mutex> L(Mutex);
  auto It = Rungs.find(B);
  return It == Rungs.end() ? nullptr : It->second;
}

void CompiledNetLadder::publish(int64_t B, std::shared_ptr<const CompiledNet> CN,
                                bool FromBackground) {
  std::lock_guard<std::mutex> L(Mutex);
  if (!CN) {
    ++Counters.CompileFailures;
    return;
  }
  if (!Rungs.emplace(B, std::move(CN)).second)
    return; // raced with another publisher; keep the resident rung
  ++Counters.ResidentBuckets;
  if (FromBackground)
    ++Counters.BackgroundCompiles;
  else
    ++Counters.SyncCompiles;
}

bool CompiledNetLadder::compileBucketSync(int64_t B) {
  if (std::find(Buckets.begin(), Buckets.end(), B) == Buckets.end())
    return false;
  if (bucket(B))
    return true;
  std::shared_ptr<const CompiledNet> CN;
  {
    std::lock_guard<std::mutex> C(CompileMutex);
    if (bucket(B)) // the background thread got there first
      return true;
    CN = Compiler(B);
  }
  publish(B, std::move(CN), /*FromBackground=*/false);
  return bucket(B) != nullptr;
}

void CompiledNetLadder::waitForCompiles() {
  std::unique_lock<std::mutex> L(Mutex);
  IdleCv.wait(L, [this] { return Queue.empty() && !CompileInFlight; });
}

std::vector<CompiledNetLadder::Rung> CompiledNetLadder::residentRungs() const {
  std::lock_guard<std::mutex> L(Mutex);
  std::vector<Rung> Out;
  Out.reserve(Rungs.size());
  for (const auto &[B, Artifact] : Rungs)
    Out.push_back(Rung{B, Artifact});
  return Out;
}

LadderStats CompiledNetLadder::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Counters;
}

void CompiledNetLadder::backgroundLoop() {
  for (;;) {
    int64_t B = 0;
    {
      std::unique_lock<std::mutex> L(Mutex);
      WorkCv.wait(L, [this] { return Stop || !Queue.empty(); });
      if (Stop)
        return;
      B = Queue.front();
      Queue.pop_front();
      CompileInFlight = true;
    }
    std::shared_ptr<const CompiledNet> CN;
    bool Attempted = false;
    {
      std::lock_guard<std::mutex> C(CompileMutex);
      if (!bucket(B)) { // a sync caller may have beaten us to it
        Attempted = true;
        CN = Compiler(B);
      }
    }
    if (Attempted)
      publish(B, std::move(CN), /*FromBackground=*/true);
    {
      std::lock_guard<std::mutex> L(Mutex);
      CompileInFlight = false;
    }
    IdleCv.notify_all();
  }
}
