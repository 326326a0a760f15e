//===- MetricsTest.cpp - Per-run metrics isolation tests ------------------===//
//
// Two sessions analyzing on two threads must each report exactly their own
// counters: every figure in PipelineStats comes from the run's RunMetrics
// (support/Metrics.h), installed per thread, never from a delta over
// process-wide state. Also pins the RunScope nesting and ScopedRegion
// contracts. Runs under ThreadSanitizer (RETYPD_TSAN_TESTS).
//
//===----------------------------------------------------------------------===//

#include "frontend/Session.h"
#include "support/Metrics.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

using namespace retypd;

namespace {

Module synthModule(uint64_t Seed) {
  SynthGenerator Gen;
  SynthOptions O;
  O.Seed = Seed;
  O.TargetInstructions = 1500;
  return Gen.generate("metrics", O).M;
}

/// One analyze() in a fresh session; returns the run's stats.
PipelineStats analyzeOnce(const Module &M, const SessionOptions &Opts) {
  AnalysisSession S(makeDefaultLattice(), Opts);
  EXPECT_TRUE(S.storeError().empty()) << S.storeError();
  S.loadModule(M);
  S.analyze();
  return S.report()->Stats;
}

uint64_t probes(const PipelineStats &S) { return S.CacheHits + S.CacheMisses; }

} // namespace

TEST(MetricsTest, StoreWarmAndCachelessSessionsKeepTheirOwnCounters) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "retypd_metrics_store";
  fs::remove_all(Dir);
  const Module Warm = synthModule(11);
  const Module Plain = synthModule(12);
  SessionOptions StoreOpts;
  StoreOpts.StoreDir = Dir.string();
  analyzeOnce(Warm, StoreOpts); // cold: fills the store
  const PipelineStats Solo = analyzeOnce(Warm, StoreOpts);
  ASSERT_GT(Solo.StoreHits, 0u);
  ASSERT_GT(Solo.PoolBindHits, 0u);

  // The cacheless session keeps analyzing until the store-warm one is
  // done, so its runs overlap every store probe of the other thread.
  SessionOptions NoCache;
  NoCache.UseSummaryCache = false;
  std::vector<PipelineStats> WarmRuns, PlainRuns;
  std::atomic<bool> WarmDone{false};
  std::thread T([&] {
    for (int I = 0; I < 3; ++I)
      WarmRuns.push_back(analyzeOnce(Warm, StoreOpts));
    WarmDone.store(true);
  });
  do
    PlainRuns.push_back(analyzeOnce(Plain, NoCache));
  while (!WarmDone.load());
  T.join();

  for (const PipelineStats &W : WarmRuns) {
    EXPECT_EQ(W.StoreHits, Solo.StoreHits);
    EXPECT_EQ(W.PoolBindHits, Solo.PoolBindHits);
    EXPECT_EQ(W.StoreAppends, Solo.StoreAppends);
    EXPECT_EQ(W.CacheHits, Solo.CacheHits);
    EXPECT_EQ(W.CacheMisses, Solo.CacheMisses);
    EXPECT_EQ(W.GenCacheHits, Solo.GenCacheHits);
    EXPECT_EQ(W.GenCacheMisses, Solo.GenCacheMisses);
    EXPECT_GT(W.secs(Region::Decode), 0.0);
  }
  for (const PipelineStats &P : PlainRuns) {
    EXPECT_EQ(P.StoreHits, 0u);
    EXPECT_EQ(P.PoolBindHits, 0u);
    EXPECT_EQ(P.StoreAppends, 0u);
    EXPECT_EQ(probes(P), 0u);
    EXPECT_EQ(P.secs(Region::Decode), 0.0)
        << "a cacheless run decoded nothing; the time is the other run's";
    EXPECT_GT(P.secs(Region::Simplify), 0.0);
  }
  fs::remove_all(Dir);
}

TEST(MetricsTest, SessionsSharingACacheCountOnlyTheirOwnProbes) {
  // Hit/miss splits depend on which session populates the shared cache
  // first, but each run probes once per gen entry, member scheme and
  // solve, so its probe total is fixed by its own module.
  const Module A = synthModule(21);
  const Module B = synthModule(22);
  auto soloProbes = [](const Module &M) {
    SummaryCache Own;
    SessionOptions O;
    O.ExternalCache = &Own;
    return probes(analyzeOnce(M, O));
  };
  const uint64_t SoloA = soloProbes(A);
  const uint64_t SoloB = soloProbes(B);
  ASSERT_GT(SoloA, 0u);

  SummaryCache Shared;
  SessionOptions O;
  O.ExternalCache = &Shared;
  PipelineStats RunA;
  std::thread T([&] { RunA = analyzeOnce(A, O); });
  const PipelineStats RunB = analyzeOnce(B, O);
  T.join();
  EXPECT_EQ(probes(RunA), SoloA);
  EXPECT_EQ(probes(RunB), SoloB);
  EXPECT_EQ(Shared.hits() + Shared.misses(), SoloA + SoloB);
}

TEST(MetricsTest, RunScopesNestAndRestoreTheOuterRun) {
  const CounterSnapshot Before = CounterSnapshot::take();
  RunMetrics Outer, Inner;
  EXPECT_EQ(currentRun(), nullptr);
  {
    RunScope A(&Outer);
    count(Counter::StoreHits);
    {
      RunScope B(&Inner);
      EXPECT_EQ(currentRun(), &Inner);
      count(Counter::StoreHits, 2);
    }
    EXPECT_EQ(currentRun(), &Outer);
    count(Counter::StoreHits, 4);
  }
  EXPECT_EQ(currentRun(), nullptr);
  count(Counter::StoreHits, 8); // unscoped: process-wide only
  EXPECT_EQ(Outer.count(Counter::StoreHits), 5u);
  EXPECT_EQ(Inner.count(Counter::StoreHits), 2u);
  EXPECT_EQ(Before.delta().StoreHits, 15u);
}

TEST(MetricsTest, ScopedRegionRecordsOnlyIntoAnInstalledRun) {
  using namespace std::chrono_literals;
  RunMetrics Run;
  {
    RunScope Scope(&Run);
    ScopedRegion R(Region::Decode);
    std::this_thread::sleep_for(1ms);
  }
  const double Scoped = Run.seconds(Region::Decode);
  EXPECT_GE(Scoped, 0.001);

  const uint64_t Events0 = EventCounters::TraceEvents.load();
  {
    ScopedRegion R(Region::Decode, "decode", "test");
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(Run.seconds(Region::Decode), Scoped);
  EXPECT_EQ(EventCounters::TraceEvents.load(), Events0)
      << "tracing is off: no span may be recorded";
}

TEST(MetricsTest, TracedRegionSpanMatchesTheRegionTotal) {
  RunMetrics Run;
  trace::start();
  {
    RunScope Scope(&Run);
    ScopedRegion R(Region::Convert, "convert", "phase");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trace::stop();
  std::vector<trace::Event> Events = trace::collect();
  auto It = std::find_if(Events.begin(), Events.end(), [](const auto &E) {
    return std::string_view(E.Name) == "convert";
  });
  ASSERT_NE(It, Events.end());
  // One pair of clock readings feeds both: they agree to rounding.
  EXPECT_NEAR(It->DurUs * 1e-6, Run.seconds(Region::Convert), 1e-8);
}
