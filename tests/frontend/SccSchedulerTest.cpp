//===- SccSchedulerTest.cpp - SCC scheduler on synthetic DAGs ----------------===//
//
// Drives frontend/SccScheduler directly on synthetic condensation DAGs —
// chain, star, diamond ladder, and seeded random DAGs — with no module at
// all, at 1 and 4 executors. Pins the scheduler's contract: commits in
// sequence order, prep only once every dependency has committed, trivial
// and replay slots never computed, batch counts per tiny threshold, and
// the error path (first compute exception rethrown on the main thread, no
// later slot committed, pool reusable afterwards).
//
//===----------------------------------------------------------------------===//

#include "frontend/SccScheduler.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace retypd;

namespace {

/// A synthetic condensation DAG. Every edge points from a higher SCC id to
/// a lower one, so ascending ids are a topological order.
struct Dag {
  std::vector<std::vector<uint32_t>> Deps, Dependents;
  std::vector<uint32_t> Seq;

  explicit Dag(size_t N) : Deps(N), Dependents(N) {}

  void edge(uint32_t Waiter, uint32_t Dep) {
    Deps[Waiter].push_back(Dep);
    Dependents[Dep].push_back(Waiter);
  }

  /// Commit sequence in the style of CallGraph::bottomUpOrder: ids stably
  /// sorted by depth, so the sequence is a topological order that is not
  /// simply ascending ids.
  void finish() {
    std::vector<uint32_t> Depth(Deps.size(), 0);
    for (uint32_t S = 0; S < Deps.size(); ++S)
      for (uint32_t T : Deps[S])
        Depth[S] = std::max(Depth[S], Depth[T] + 1);
    Seq.resize(Deps.size());
    std::iota(Seq.begin(), Seq.end(), 0u);
    std::stable_sort(Seq.begin(), Seq.end(), [&](uint32_t A, uint32_t B) {
      return Depth[A] < Depth[B];
    });
  }
};

Dag chainDag(unsigned N) {
  Dag D(N);
  for (uint32_t S = 1; S < N; ++S)
    D.edge(S, S - 1);
  D.finish();
  return D;
}

/// Leaves 0..N-1, hub N waiting on all of them.
Dag starDag(unsigned N) {
  Dag D(N + 1);
  for (uint32_t S = 0; S < N; ++S)
    D.edge(N, S);
  D.finish();
  return D;
}

/// d0 = 0; layer i adds a_i, b_i (waiting on d_(i-1)) and d_i (waiting on
/// a_i and b_i).
Dag diamondDag(unsigned Layers) {
  Dag D(1 + 3 * Layers);
  for (uint32_t I = 1; I <= Layers; ++I) {
    uint32_t Prev = 3 * (I - 1), A = Prev + 1, B = Prev + 2, Join = Prev + 3;
    D.edge(A, Prev);
    D.edge(B, Prev);
    D.edge(Join, A);
    D.edge(Join, B);
  }
  D.finish();
  return D;
}

Dag randomDag(unsigned N, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  Dag D(N);
  for (uint32_t S = 1; S < N; ++S) {
    unsigned Fanout = Rng() % 4;
    std::vector<uint32_t> Picked;
    for (unsigned K = 0; K < Fanout; ++K) {
      uint32_t T = Rng() % S;
      if (std::find(Picked.begin(), Picked.end(), T) == Picked.end())
        Picked.push_back(T);
    }
    for (uint32_t T : Picked)
      D.edge(S, T);
  }
  D.finish();
  return D;
}

/// How each slot's prep files it: a per-id kind and cost.
struct SlotPlan {
  std::vector<SccPrep> Preps;
  size_t Computes = 0;
  size_t NonTinyComputes(unsigned Tiny) const {
    size_t N = 0;
    for (const SccPrep &P : Preps)
      N += P.K == SccPrep::Compute && (Tiny == 0 || P.Cost >= Tiny);
    return N;
  }
};

SlotPlan allCompute(size_t N, size_t Cost) {
  SlotPlan Plan;
  Plan.Preps.assign(N, {SccPrep::Compute, Cost});
  Plan.Computes = N;
  return Plan;
}

/// Every fifth slot trivial, every fifth replay, the rest compute with
/// costs spread across the default tiny threshold.
SlotPlan mixedPlan(size_t N) {
  SlotPlan Plan;
  for (uint32_t S = 0; S < N; ++S) {
    if (S % 5 == 3) {
      Plan.Preps.push_back({SccPrep::Trivial});
    } else if (S % 5 == 4) {
      Plan.Preps.push_back({SccPrep::Replay});
    } else {
      Plan.Preps.push_back({SccPrep::Compute, (S * 37u) % 128u});
      ++Plan.Computes;
    }
  }
  return Plan;
}

/// What one run observed. Prep and commit bookkeeping is main-thread only;
/// compute bookkeeping is per-slot atomics.
struct Observed {
  std::vector<uint32_t> Commits;
  std::vector<char> Prepped, Committed;
  std::vector<std::atomic<int>> ComputeCalls;
  std::atomic<int> InFlight{0};
  size_t ReadinessViolations = 0;
  size_t OffThreadCallbacks = 0;

  explicit Observed(size_t N) : Prepped(N), Committed(N), ComputeCalls(N) {}
};

struct Failure {
  uint32_t ThrowInCompute = UINT32_MAX;
  uint32_t ThrowInCommit = UINT32_MAX;
};

void runDag(SccScheduler &Sched, const Dag &D, const SlotPlan &Plan,
            Observed &Obs, Failure Fail = {}) {
  const std::thread::id Main = std::this_thread::get_id();
  auto Deps = [&](uint32_t S) -> const std::vector<uint32_t> & {
    return D.Deps[S];
  };
  auto Dependents = [&](uint32_t S) -> const std::vector<uint32_t> & {
    return D.Dependents[S];
  };
  auto Prep = [&](uint32_t S) {
    Obs.OffThreadCallbacks += std::this_thread::get_id() != Main;
    // Trivial slots never reach Commit, so "committed" for them is
    // "prepped" (the scheduler publishes them at prep).
    for (uint32_t T : D.Deps[S]) {
      bool Trivial = Plan.Preps[T].K == SccPrep::Trivial;
      if (Trivial ? !Obs.Prepped[T] : !Obs.Committed[T])
        ++Obs.ReadinessViolations;
    }
    Obs.Prepped[S] = 1;
    return Plan.Preps[S];
  };
  auto Compute = [&](uint32_t S) {
    Obs.InFlight.fetch_add(1);
    Obs.ComputeCalls[S].fetch_add(1);
    // A little real work so units overlap on the workers.
    volatile unsigned Sink = 0;
    for (unsigned I = 0; I < 200; ++I)
      Sink = Sink + I;
    Obs.InFlight.fetch_sub(1);
    if (S == Fail.ThrowInCompute)
      throw std::runtime_error("compute failed");
  };
  auto Commit = [&](uint32_t S) {
    Obs.OffThreadCallbacks += std::this_thread::get_id() != Main;
    if (S == Fail.ThrowInCommit)
      throw std::logic_error("commit failed");
    Obs.Commits.push_back(S);
    Obs.Committed[S] = 1;
  };
  Sched.run({D.Seq, Deps, Dependents, Prep, Compute, Commit});
}

std::vector<uint32_t> nonTrivialSeq(const Dag &D, const SlotPlan &Plan) {
  std::vector<uint32_t> Out;
  for (uint32_t S : D.Seq)
    if (Plan.Preps[S].K != SccPrep::Trivial)
      Out.push_back(S);
  return Out;
}

/// Checks the contract invariants of a successful run.
void checkRun(const Dag &D, const SlotPlan &Plan, const Observed &Obs,
              const SccSchedulerStats &St, const std::string &Ctx) {
  EXPECT_EQ(Obs.Commits, nonTrivialSeq(D, Plan)) << Ctx;
  EXPECT_EQ(Obs.ReadinessViolations, 0u) << Ctx;
  EXPECT_EQ(Obs.OffThreadCallbacks, 0u) << Ctx;
  for (uint32_t S = 0; S < D.Seq.size(); ++S) {
    EXPECT_TRUE(Obs.Prepped[S]) << Ctx << " scc " << S;
    int Expected = Plan.Preps[S].K == SccPrep::Compute ? 1 : 0;
    EXPECT_EQ(Obs.ComputeCalls[S].load(), Expected) << Ctx << " scc " << S;
  }
  EXPECT_EQ(St.SccsScheduled, Plan.Computes) << Ctx;
  if (Plan.Computes > 0) {
    EXPECT_GE(St.MaxReadyQueue, 1u) << Ctx;
  }
}

std::string ctxOf(const std::string &Name, unsigned Workers, unsigned Tiny) {
  return Name + " executors=" + std::to_string(Workers + 1) + " tiny=" +
         std::to_string(Tiny);
}

struct Shape {
  std::string Name;
  Dag D;
  SlotPlan Plan;
};

constexpr unsigned kThresholds[] = {0u, 64u, 1u << 20};

} // namespace

TEST(SccSchedulerTest, CommitsInSequenceAndRespectsReadiness) {
  std::vector<Shape> Shapes;
  Shapes.push_back({"chain", chainDag(150), mixedPlan(150)});
  Shapes.push_back({"star", starDag(200), mixedPlan(201)});
  Shapes.push_back({"diamond", diamondDag(20), mixedPlan(61)});
  for (uint32_t Seed : {1u, 2u, 3u}) {
    Dag D = randomDag(300, Seed);
    Shapes.push_back(
        {"random-" + std::to_string(Seed), std::move(D), mixedPlan(300)});
  }
  // Top-down: the same DAG walked with the roles swapped.
  {
    Dag Up = randomDag(300, 7);
    Dag Down(300);
    Down.Deps = Up.Dependents;
    Down.Dependents = Up.Deps;
    Down.Seq.assign(Up.Seq.rbegin(), Up.Seq.rend());
    Shapes.push_back({"random-topdown", std::move(Down), mixedPlan(300)});
  }

  for (unsigned Workers : {0u, 3u}) {
    ThreadPool Pool(Workers);
    for (const Shape &Sh : Shapes)
      for (unsigned Tiny : kThresholds) {
        std::string Ctx = ctxOf(Sh.Name, Workers, Tiny);
        SccScheduler Sched(Pool, Tiny);
        Observed Obs(Sh.D.Seq.size());
        runDag(Sched, Sh.D, Sh.Plan, Obs);
        const SccSchedulerStats &St = Sched.stats();
        checkRun(Sh.D, Sh.Plan, Obs, St, Ctx);
        // Non-tiny slots are units of their own; tiny ones share units of
        // at most 64; batching off means one unit per slot.
        size_t NonTiny = Sh.Plan.NonTinyComputes(Tiny);
        size_t Tinies = Sh.Plan.Computes - NonTiny;
        EXPECT_LE(St.BatchesFormed, Sh.Plan.Computes) << Ctx;
        EXPECT_GE(St.BatchesFormed, NonTiny + (Tinies + 63) / 64) << Ctx;
        if (Tiny == 0) {
          EXPECT_EQ(St.BatchesFormed, Sh.Plan.Computes) << Ctx;
        }
      }
  }
}

TEST(SccSchedulerTest, BatchCountsPerTinyThreshold) {
  // Shapes whose batching is fixed by readiness alone, so the exact unit
  // counts hold at every executor count.
  struct Case {
    const char *Name;
    Dag D;
    size_t Cost;
    uint64_t Batches[3]; // per kThresholds entry
  };
  std::vector<Case> Cases;
  // A chain readies one SCC at a time: never anything to batch with.
  Cases.push_back({"chain", chainDag(100), 10, {100, 100, 100}});
  // 200 leaves ready at once: at cost 10 they batch 64 to a unit under
  // thresholds 64 and 1M (4 units), then the hub.
  Cases.push_back({"star", starDag(200), 10, {201, 5, 5}});
  // At cost 100 only the 1M threshold batches them.
  Cases.push_back({"star-heavy", starDag(200), 100, {201, 201, 5}});
  // Each layer's two arms ready together and share one unit.
  Cases.push_back({"diamond", diamondDag(10), 10, {31, 21, 21}});

  for (unsigned Workers : {0u, 3u}) {
    ThreadPool Pool(Workers);
    for (const Case &C : Cases)
      for (size_t T = 0; T < 3; ++T) {
        SlotPlan Plan = allCompute(C.D.Seq.size(), C.Cost);
        SccScheduler Sched(Pool, kThresholds[T]);
        Observed Obs(C.D.Seq.size());
        runDag(Sched, C.D, Plan, Obs);
        std::string Ctx = ctxOf(C.Name, Workers, kThresholds[T]);
        checkRun(C.D, Plan, Obs, Sched.stats(), Ctx);
        EXPECT_EQ(Sched.stats().BatchesFormed, C.Batches[T]) << Ctx;
      }
  }
}

TEST(SccSchedulerTest, StatsAccumulateAcrossRuns) {
  ThreadPool Pool(0);
  SccScheduler Sched(Pool, 0);
  Dag Chain = chainDag(10), Star = starDag(30);
  Observed First(10), Second(31);
  runDag(Sched, Chain, allCompute(10, 1), First);
  runDag(Sched, Star, allCompute(31, 1), Second);
  // Scheduled and batch counts add up; the ready-queue high-water mark is
  // the maximum over both runs (all 30 leaves ready at once).
  EXPECT_EQ(Sched.stats().SccsScheduled, 41u);
  EXPECT_EQ(Sched.stats().BatchesFormed, 41u);
  EXPECT_EQ(Sched.stats().MaxReadyQueue, 30u);
}

TEST(SccSchedulerTest, ComputeErrorRethrownAndLaterSlotsNeverCommit) {
  for (unsigned Workers : {0u, 3u}) {
    ThreadPool Pool(Workers);
    SccScheduler Sched(Pool, 64);
    for (const char *Name : {"star", "random"}) {
      Dag D = std::string(Name) == "star" ? starDag(300) : randomDag(300, 11);
      SlotPlan Plan = allCompute(D.Seq.size(), 10);
      const uint32_t Bad = D.Seq[D.Seq.size() / 3];
      std::string Ctx = ctxOf(Name, Workers, 64);

      Observed Obs(D.Seq.size());
      EXPECT_THROW(runDag(Sched, D, Plan, Obs, {.ThrowInCompute = Bad}),
                   std::runtime_error)
          << Ctx;
      // Every in-flight unit drained before run() returned.
      EXPECT_EQ(Obs.InFlight.load(), 0) << Ctx;
      // Commits are a prefix of the sequence that stops before the failed
      // slot: neither it nor anything after it committed.
      std::vector<uint32_t> Prefix(D.Seq.begin(),
                                   D.Seq.begin() + Obs.Commits.size());
      EXPECT_EQ(Obs.Commits, Prefix) << Ctx;
      EXPECT_FALSE(Obs.Committed[Bad]) << Ctx;
      EXPECT_LT(Obs.Commits.size(), D.Seq.size() / 3 + 1) << Ctx;

      // The same scheduler and pool run cleanly afterwards.
      Observed Again(D.Seq.size());
      runDag(Sched, D, Plan, Again);
      EXPECT_EQ(Again.Commits, D.Seq) << Ctx;
    }
  }
}

TEST(SccSchedulerTest, CommitErrorPropagatesAfterDrain) {
  for (unsigned Workers : {0u, 3u}) {
    ThreadPool Pool(Workers);
    SccScheduler Sched(Pool, 0);
    Dag D = starDag(300);
    SlotPlan Plan = allCompute(D.Seq.size(), 10);
    Observed Obs(D.Seq.size());
    EXPECT_THROW(runDag(Sched, D, Plan, Obs, {.ThrowInCommit = D.Seq[5]}),
                 std::logic_error);
    EXPECT_EQ(Obs.InFlight.load(), 0);
    EXPECT_EQ(Obs.Commits.size(), 5u);

    Observed Again(D.Seq.size());
    runDag(Sched, D, Plan, Again);
    EXPECT_EQ(Again.Commits, D.Seq);
  }
}
