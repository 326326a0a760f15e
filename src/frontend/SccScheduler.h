//===- SccScheduler.h - Dependency-counted SCC scheduler -------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness scheduler both inference phases run over the call-graph
/// SCC condensation. Appendix F walks the condensation twice — bottom-up
/// to infer schemes (F.1), top-down to solve sketches (F.2) — and only the
/// direction and the per-SCC work differ, so one scheduler serves both;
/// a phase is three callbacks plus its commit sequence.
///
/// Every SCC owns a commit slot at its fixed position in the commit
/// sequence. It becomes ready the moment its last dependency commits, and
/// the main thread then calls `Prep`, which files the slot as
///
///  - Trivial: nothing to do beyond readiness bookkeeping;
///  - Replay:  no pool work; effects happen in `Prep` or `Commit`;
///  - Compute: `Compute` runs on the pool, as a work unit of its own or —
///    when its cost is below the tiny threshold — batched with other ready
///    tiny SCCs into one unit, which amortizes dispatch.
///
/// `Commit` runs on the main thread for every Replay and Compute slot,
/// strictly in sequence order; the committed SCC's dependents then lose one
/// dependency. The commit order replays the sequential schedule, so what a
/// callback does in `Prep` or `Commit` cannot depend on the worker count.
/// The main thread is an executor too: between commits it runs queued work
/// units itself, so a pool without workers runs everything inline.
///
/// Errors: the first exception a `Compute` throws is recorded. Neither its
/// slot nor any later one in the sequence commits; in-flight units drain
/// and run() rethrows the exception on the main thread. An exception from
/// `Prep` or `Commit` leaves run() after the same drain.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_FRONTEND_SCCSCHEDULER_H
#define RETYPD_FRONTEND_SCCSCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace retypd {

class ThreadPool;

/// How `Prep` filed a ready SCC.
struct SccPrep {
  enum Kind : uint8_t { Trivial, Replay, Compute };
  Kind K = Trivial;
  size_t Cost = 0; ///< Compute only: constraint count, the batching key
};

/// One phase's walk over the condensation DAG.
struct SccPhase {
  /// Commit sequence: every SCC id in [0, size) once, dependencies first.
  const std::vector<uint32_t> &Seq;
  /// The SCCs an SCC waits for, and the SCCs its commit releases.
  std::function<const std::vector<uint32_t> &(uint32_t)> Deps, Dependents;
  std::function<SccPrep(uint32_t)> Prep; ///< main thread, once ready
  std::function<void(uint32_t)> Compute; ///< pool (or main) thread
  std::function<void(uint32_t)> Commit;  ///< main thread, in Seq order
};

/// Counters accumulated over every run() of one scheduler (the matching
/// PipelineStats fields document them).
struct SccSchedulerStats {
  uint64_t SccsScheduled = 0; ///< Compute slots dispatched
  uint64_t BatchesFormed = 0; ///< work units (a tiny batch counts once)
  uint64_t MaxReadyQueue = 0; ///< high-water mark of ready, unprepped SCCs
  uint64_t CommitStalls = 0;  ///< Compute slots published out of order
};

class SccScheduler {
public:
  /// Compute slots costing less than \p TinySccConstraints are batched
  /// (0 disables batching).
  SccScheduler(ThreadPool &Pool, unsigned TinySccConstraints)
      : Pool(Pool), TinyMax(TinySccConstraints) {}

  /// Runs \p Phase to completion: every slot commits, or the first error
  /// is rethrown after in-flight work drains. The pool is reusable either
  /// way.
  void run(const SccPhase &Phase);

  const SccSchedulerStats &stats() const { return Stats; }

private:
  ThreadPool &Pool;
  const unsigned TinyMax;
  SccSchedulerStats Stats;
};

} // namespace retypd

#endif // RETYPD_FRONTEND_SCCSCHEDULER_H
