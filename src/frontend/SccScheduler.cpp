//===- SccScheduler.cpp - Dependency-counted SCC scheduler ----------------===//

#include "frontend/SccScheduler.h"

#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

using namespace retypd;

void SccScheduler::run(const SccPhase &P) {
  const std::vector<uint32_t> &Seq = P.Seq;
  const size_t N = Seq.size();

  // Uncommitted-dependency counts. Only the main thread touches them:
  // workers publish slots, they never touch readiness state.
  std::vector<uint32_t> DepCount(N, 0);
  for (uint32_t Scc = 0; Scc < N; ++Scc)
    DepCount[Scc] = static_cast<uint32_t>(P.Deps(Scc).size());
  std::vector<uint8_t> IsTrivial(N, 0);

  std::vector<std::atomic<uint8_t>> Done(N); // value-initialized to 0
  std::atomic<size_t> NextCommit{0};
  std::atomic<uint64_t> Stalls{0};
  std::atomic<bool> HasErr{false};
  std::mutex Mu;
  std::condition_variable Cv;
  std::exception_ptr Err; // guarded by Mu

  // FIFO ready queue (main thread only): SCCs whose dependencies have all
  // committed, in deterministic commit-discovery order.
  std::vector<uint32_t> ReadyQ;
  size_t ReadyHead = 0;
  auto pushReady = [&](uint32_t Scc) {
    ReadyQ.push_back(Scc);
    Stats.MaxReadyQueue =
        std::max<uint64_t>(Stats.MaxReadyQueue, ReadyQ.size() - ReadyHead);
  };
  for (uint32_t Scc : Seq)
    if (DepCount[Scc] == 0)
      pushReady(Scc);

  // One pool work unit: compute a group of slots and publish each as it
  // finishes. A publish of the slot the drainer is blocked on wakes it;
  // an out-of-order publish counts as a commit stall.
  auto submitUnit = [&](std::vector<uint32_t> Unit) {
    ++Stats.BatchesFormed;
    Pool.submit([&, Unit = std::move(Unit)] {
      for (uint32_t Scc : Unit) {
        try {
          P.Compute(Scc);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(Mu);
          if (!Err)
            Err = std::current_exception();
          HasErr.store(true, std::memory_order_relaxed);
        }
        // An uncommitted slot sits at or after NextCommit, so the index is
        // in range.
        if (Seq[NextCommit.load(std::memory_order_relaxed)] != Scc) {
          Stalls.fetch_add(1, std::memory_order_relaxed);
          trace::instant("commit-stall", "sched", 1, Scc);
        }
        Done[Scc].store(1, std::memory_order_release);
      }
      // Lock-then-notify so a publish cannot slip between the drainer's
      // predicate check and its wait.
      { std::lock_guard<std::mutex> Lock(Mu); }
      Cv.notify_one();
    });
  };

  constexpr size_t kMaxBatchSccs = 64;
  std::vector<uint32_t> TinyBatch;
  auto flushTiny = [&] {
    if (!TinyBatch.empty())
      submitUnit(std::exchange(TinyBatch, {}));
  };
  auto prep = [&](uint32_t Scc) {
    SccPrep R = P.Prep(Scc);
    if (R.K != SccPrep::Compute) {
      IsTrivial[Scc] = R.K == SccPrep::Trivial;
      Done[Scc].store(1, std::memory_order_release);
      return;
    }
    ++Stats.SccsScheduled;
    if (TinyMax != 0 && R.Cost < TinyMax) {
      TinyBatch.push_back(Scc);
      if (TinyBatch.size() >= kMaxBatchSccs)
        flushTiny();
    } else {
      submitUnit({Scc});
    }
  };

  // The drainer loop. Priorities: commit whatever is committable (it
  // releases dependents), then prep newly-ready SCCs (it feeds the pool),
  // then flush a pending tiny batch, then help the pool; only when the
  // queues are empty and the next slot is still in flight on a worker
  // does the main thread sleep.
  try {
    size_t Next = 0;
    while (Next < N && !HasErr.load(std::memory_order_relaxed)) {
      uint32_t Scc = Seq[Next];
      if (Done[Scc].load(std::memory_order_acquire)) {
        // Read after the acquire, so a slot whose Compute threw is seen as
        // failed and never commits.
        if (HasErr.load(std::memory_order_relaxed))
          break;
        if (!IsTrivial[Scc])
          P.Commit(Scc);
        trace::instant("commit", "sched", -1, Scc);
        for (uint32_t D : P.Dependents(Scc))
          if (--DepCount[D] == 0)
            pushReady(D);
        NextCommit.store(++Next, std::memory_order_relaxed);
        continue;
      }
      if (ReadyHead < ReadyQ.size()) {
        prep(ReadyQ[ReadyHead++]);
        continue;
      }
      if (!TinyBatch.empty()) {
        flushTiny();
        continue;
      }
      if (Pool.tryRunOne())
        continue;
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] {
        return Done[Scc].load(std::memory_order_acquire) ||
               HasErr.load(std::memory_order_relaxed);
      });
    }
  } catch (...) {
    Pool.waitAll(); // in-flight units reference this frame
    throw;
  }
  // Teardown join, not a scheduling barrier: on the normal path every slot
  // has committed, so this only waits out a work unit's final bookkeeping;
  // on the error path it drains in-flight units before their slots leave
  // scope.
  Pool.waitAll();
  Stats.CommitStalls += Stalls.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(Mu);
  if (Err)
    std::rethrow_exception(Err);
}
