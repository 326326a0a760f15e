//===- Metrics.h - Per-run counters and timed regions ----------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one path by which event counts and region timings reach a report.
/// Every counter and timed region is one row of the tables below, which
/// generate EventCounters, CounterSnapshot, the RunMetrics arrays and the
/// stats-JSON region keys. analyze() installs its RunMetrics with a
/// thread-local RunScope on the main thread and in the pool-side compute
/// callbacks, so two sessions on two threads never see each other's
/// counts or times.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_SUPPORT_METRICS_H
#define RETYPD_SUPPORT_METRICS_H

#include "support/Trace.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace retypd {

/// Every event counter: X(Name, Doc).
#define RETYPD_COUNTERS(X)                                                     \
  X(ConstraintParseCalls, "ConstraintParser runs; zero on a warm run")         \
  X(SchemeDecodes, "binary payload decodes")                                   \
  X(SchemeEncodes, "binary payload encodes")                                   \
  X(CacheHits, "summary-cache probes (scheme, solution, gen) that hit")        \
  X(CacheMisses, "summary-cache probes that missed")                           \
  X(GenCacheHits, "generation-result cache probes that hit")                   \
  X(GenCacheMisses, "generation-result cache probes that missed")              \
  X(StoreHits, "cache probes served from the mapped artifact store")           \
  X(StoreAppends, "records journaled to the artifact store")                   \
  X(StoreCompactions, "artifact-store compactions")                            \
  X(StorePayloadCopies, "store lookups not served zero-copy; zero on mmap")    \
  X(SegmentValidates, "store records validated once, at segment open")         \
  X(PoolBinds, "store name-pool entries translated to symbol ids")             \
  X(PoolBindHits, "store probes that resolved every name through the pool")    \
  X(VerifierChecks, "formation-rule verifier checks; zero with --verify off") \
  X(TraceEvents, "trace events recorded; zero with tracing off")

/// Every timed region: X(Name, display name, stats-JSON key). Regions nest
/// (generate holds gencache.key, cache.hash and gen-meta decodes), and
/// worker-side regions sum over work units, so totals can exceed wall time.
#define RETYPD_REGIONS(X)                                                      \
  X(Phase0, "pipeline.phase0", "phase0_secs")                                  \
  X(Generate, "pipeline.generate", "generate_secs")                            \
  X(GenKey, "gencache.key", "genkey_secs")                                     \
  X(Hash, "cache.hash", "hash_secs")                                           \
  X(Simplify, "pipeline.simplify", "simplify_secs")                            \
  X(SolvePrep, "pipeline.solveprep", "solveprep_secs")                         \
  X(Solve, "pipeline.solve", "solve_secs")                                     \
  X(Convert, "pipeline.convert", "convert_secs")                               \
  X(Parse, "parser.parse", "parse_secs")                                       \
  X(PoolBind, "cache.poolbind", "poolbind_secs")                               \
  X(Decode, "cache.decode", "decode_secs")                                     \
  X(Encode, "cache.encode", "encode_secs")                                     \
  X(StoreFlush, "store.flush", "flush_secs")

#define RETYPD_ENUMERATOR(Name, ...) Name,
#define RETYPD_PLUS_ONE(...) +1
enum class Counter : uint8_t { RETYPD_COUNTERS(RETYPD_ENUMERATOR) };
enum class Region : uint8_t { RETYPD_REGIONS(RETYPD_ENUMERATOR) };
inline constexpr size_t kNumCounters = 0 RETYPD_COUNTERS(RETYPD_PLUS_ONE);
inline constexpr size_t kNumRegions = 0 RETYPD_REGIONS(RETYPD_PLUS_ONE);
#undef RETYPD_PLUS_ONE
#undef RETYPD_ENUMERATOR

struct RegionInfo {
  const char *Name; ///< display name, e.g. "pipeline.generate"
  const char *Key;  ///< stats-JSON key, e.g. "generate_secs"
};
#define RETYPD_REGION_INFO(Name, Display, Key) {Display, Key},
inline constexpr RegionInfo kRegions[] = {RETYPD_REGIONS(RETYPD_REGION_INFO)};
#undef RETYPD_REGION_INFO

/// Per-region seconds of one run, indexed by Region.
using RegionSeconds = std::array<double, kNumRegions>;

/// Process-wide counters: every run's events plus unscoped ones. Tests and
/// benchmarks reset and read them; reports use their own RunMetrics.
struct EventCounters {
#define RETYPD_DECLARE(Name, Doc) static std::atomic<uint64_t> Name;
  RETYPD_COUNTERS(RETYPD_DECLARE)
#undef RETYPD_DECLARE

  /// Zeroes every counter. Call between measured runs.
  static void reset();
};

/// Point-in-time copy of every EventCounters value: take() one snapshot
/// before a measured region, then delta() against the live counters.
struct CounterSnapshot {
#define RETYPD_FIELD(Name, Doc) uint64_t Name = 0;
  RETYPD_COUNTERS(RETYPD_FIELD)
#undef RETYPD_FIELD

  static CounterSnapshot take();
  /// Member-wise (current counters) - (this snapshot).
  CounterSnapshot delta() const;
};

/// One run's counters and region nanoseconds: relaxed atomics written
/// concurrently by the run's main thread and its workers.
struct RunMetrics {
  std::array<std::atomic<uint64_t>, kNumCounters> Counts{};
  std::array<std::atomic<uint64_t>, kNumRegions> Nanos{};

  uint64_t count(Counter C) const;
  double seconds(Region R) const;
  RegionSeconds regionSeconds() const;
};

/// The run installed on the calling thread, or nullptr.
RunMetrics *currentRun();

/// Installs \p Run on the calling thread for its lifetime, then restores
/// the outer run (scopes nest).
class RunScope {
public:
  explicit RunScope(RunMetrics *Run);
  ~RunScope();
  RunScope(const RunScope &) = delete;
  RunScope &operator=(const RunScope &) = delete;

private:
  RunMetrics *Outer;
};

/// Counts \p N events on the process-wide counter and on the calling
/// thread's run, if one is installed.
void count(Counter C, uint64_t N = 1);

/// Times its lifetime onto the installed run's region total, reading the
/// clock once at each end. Given a span name (a static literal), it also
/// records that trace span from the same readings while tracing; guard
/// dynamic Args setup with tracing(). With no run installed and tracing
/// off it reads no clock.
class ScopedRegion {
public:
  explicit ScopedRegion(Region R, const char *Span = nullptr,
                        const char *Cat = nullptr)
      : Run(currentRun()), R(R), Span(Span), Cat(Cat),
        Tracing(Span && trace::enabled()) {
    if (Run || Tracing)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedRegion();
  ScopedRegion(const ScopedRegion &) = delete;
  ScopedRegion &operator=(const ScopedRegion &) = delete;

  bool tracing() const { return Tracing; }

  trace::SpanArgs Args;

private:
  RunMetrics *Run;
  Region R;
  const char *Span;
  const char *Cat;
  bool Tracing;
  std::chrono::steady_clock::time_point Start;
};

} // namespace retypd

#endif // RETYPD_SUPPORT_METRICS_H
