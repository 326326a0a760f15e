//===- StatsTest.cpp - CounterSnapshot tests ------------------------------===//
//
// Covers the CounterSnapshot take()/delta() pair generated from the
// counter table in support/Metrics.h.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace retypd;

TEST(StatsTest, CounterSnapshotDeltaIsolatesTheMeasuredRegion) {
  EventCounters::reset();
  EventCounters::StoreHits.fetch_add(5, std::memory_order_relaxed);
  EventCounters::PoolBinds.fetch_add(2, std::memory_order_relaxed);

  const CounterSnapshot Before = CounterSnapshot::take();
  EXPECT_EQ(Before.StoreHits, 5u);

  // The "measured region".
  EventCounters::StoreHits.fetch_add(3, std::memory_order_relaxed);
  EventCounters::TraceEvents.fetch_add(7, std::memory_order_relaxed);
  EventCounters::GenCacheMisses.fetch_add(1, std::memory_order_relaxed);

  const CounterSnapshot D = Before.delta();
  EXPECT_EQ(D.StoreHits, 3u);       // pre-region hits excluded
  EXPECT_EQ(D.TraceEvents, 7u);
  EXPECT_EQ(D.GenCacheMisses, 1u);
  EXPECT_EQ(D.PoolBinds, 0u);       // untouched counters delta to zero
  EXPECT_EQ(D.ConstraintParseCalls, 0u);
  EXPECT_EQ(D.VerifierChecks, 0u);
  EventCounters::reset();
}

TEST(StatsTest, CounterSnapshotCoversEveryCounter) {
  // Bump every counter by a distinct amount and check take() sees each —
  // a new EventCounters member added without a CounterSnapshot field (or
  // take()/delta() wiring) shows up here as a miscount.
  EventCounters::reset();
  EventCounters::ConstraintParseCalls.fetch_add(1);
  EventCounters::SchemeDecodes.fetch_add(2);
  EventCounters::SchemeEncodes.fetch_add(3);
  EventCounters::GenCacheHits.fetch_add(4);
  EventCounters::GenCacheMisses.fetch_add(5);
  EventCounters::StoreHits.fetch_add(6);
  EventCounters::StoreAppends.fetch_add(7);
  EventCounters::StoreCompactions.fetch_add(8);
  EventCounters::StorePayloadCopies.fetch_add(9);
  EventCounters::SegmentValidates.fetch_add(10);
  EventCounters::PoolBinds.fetch_add(11);
  EventCounters::PoolBindHits.fetch_add(12);
  EventCounters::VerifierChecks.fetch_add(13);
  EventCounters::TraceEvents.fetch_add(14);

  const CounterSnapshot S = CounterSnapshot::take();
  EXPECT_EQ(S.ConstraintParseCalls, 1u);
  EXPECT_EQ(S.SchemeDecodes, 2u);
  EXPECT_EQ(S.SchemeEncodes, 3u);
  EXPECT_EQ(S.GenCacheHits, 4u);
  EXPECT_EQ(S.GenCacheMisses, 5u);
  EXPECT_EQ(S.StoreHits, 6u);
  EXPECT_EQ(S.StoreAppends, 7u);
  EXPECT_EQ(S.StoreCompactions, 8u);
  EXPECT_EQ(S.StorePayloadCopies, 9u);
  EXPECT_EQ(S.SegmentValidates, 10u);
  EXPECT_EQ(S.PoolBinds, 11u);
  EXPECT_EQ(S.PoolBindHits, 12u);
  EXPECT_EQ(S.VerifierChecks, 13u);
  EXPECT_EQ(S.TraceEvents, 14u);

  EventCounters::reset();
  const CounterSnapshot Z = CounterSnapshot::take();
  EXPECT_EQ(Z.StoreCompactions, 0u);
  EXPECT_EQ(Z.TraceEvents, 0u);
}
