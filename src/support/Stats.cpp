//===- Stats.cpp - Lightweight statistics & memory counters --------------===//

#include "support/Stats.h"

using namespace retypd;

std::atomic<uint64_t> MemStats::LiveBytes{0};
std::atomic<uint64_t> MemStats::PeakBytes{0};
std::atomic<uint64_t> MemStats::TotalAllocs{0};

void MemStats::resetPeak() {
  PeakBytes.store(LiveBytes.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

void MemStats::noteAlloc(size_t Size) {
  TotalAllocs.fetch_add(1, std::memory_order_relaxed);
  uint64_t Live = LiveBytes.fetch_add(Size, std::memory_order_relaxed) + Size;
  uint64_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Live > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Live,
                                          std::memory_order_relaxed)) {
  }
}

void MemStats::noteFree(size_t Size) {
  LiveBytes.fetch_sub(Size, std::memory_order_relaxed);
}
