//===- Stats.h - Lightweight statistics & memory counters -----*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide allocation counters used by the scaling benchmarks
/// (Figures 11 and 12). They are driven by operator new/delete hooks that
/// are only linked into benchmark binaries (bench/MemHooks.cpp); in
/// ordinary builds they stay at zero. Event counters and timed regions
/// live in support/Metrics.h, included here for its consumers.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_SUPPORT_STATS_H
#define RETYPD_SUPPORT_STATS_H

#include "support/Metrics.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace retypd {

/// Global allocation counters. Updated by the benchmark-only operator
/// new/delete hooks; read by the Figure 12 harness.
struct MemStats {
  static std::atomic<uint64_t> LiveBytes;
  static std::atomic<uint64_t> PeakBytes;
  static std::atomic<uint64_t> TotalAllocs;

  /// Resets the peak to the current live size. Call before a measured phase.
  static void resetPeak();

  /// Records an allocation of \p Size bytes.
  static void noteAlloc(size_t Size);

  /// Records a deallocation of \p Size bytes.
  static void noteFree(size_t Size);
};

} // namespace retypd

#endif // RETYPD_SUPPORT_STATS_H
