//===- Metrics.cpp - Per-run counters and timed regions -------------------===//

#include "support/Metrics.h"

using namespace retypd;

#define RETYPD_DEFINE(Name, Doc) std::atomic<uint64_t> EventCounters::Name{0};
RETYPD_COUNTERS(RETYPD_DEFINE)
#undef RETYPD_DEFINE

namespace {

#define RETYPD_ADDRESS(Name, Doc) &EventCounters::Name,
std::atomic<uint64_t> *const kGlobal[] = {RETYPD_COUNTERS(RETYPD_ADDRESS)};
#undef RETYPD_ADDRESS

constinit thread_local RunMetrics *CurrentRun = nullptr;

constexpr auto kRelaxed = std::memory_order_relaxed;

} // namespace

void EventCounters::reset() {
  for (std::atomic<uint64_t> *C : kGlobal)
    C->store(0, kRelaxed);
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot S;
#define RETYPD_LOAD(Name, Doc) S.Name = EventCounters::Name.load(kRelaxed);
  RETYPD_COUNTERS(RETYPD_LOAD)
#undef RETYPD_LOAD
  return S;
}

CounterSnapshot CounterSnapshot::delta() const {
  CounterSnapshot D = take();
#define RETYPD_SUBTRACT(Name, Doc) D.Name -= this->Name;
  RETYPD_COUNTERS(RETYPD_SUBTRACT)
#undef RETYPD_SUBTRACT
  return D;
}

uint64_t RunMetrics::count(Counter C) const {
  return Counts[static_cast<size_t>(C)].load(kRelaxed);
}

double RunMetrics::seconds(Region R) const {
  return static_cast<double>(Nanos[static_cast<size_t>(R)].load(kRelaxed)) *
         1e-9;
}

RegionSeconds RunMetrics::regionSeconds() const {
  RegionSeconds Out{};
  for (size_t I = 0; I < kNumRegions; ++I)
    Out[I] = seconds(static_cast<Region>(I));
  return Out;
}

RunMetrics *retypd::currentRun() { return CurrentRun; }

RunScope::RunScope(RunMetrics *Run) : Outer(CurrentRun) { CurrentRun = Run; }

RunScope::~RunScope() { CurrentRun = Outer; }

void retypd::count(Counter C, uint64_t N) {
  kGlobal[static_cast<size_t>(C)]->fetch_add(N, kRelaxed);
  if (CurrentRun)
    CurrentRun->Counts[static_cast<size_t>(C)].fetch_add(N, kRelaxed);
}

ScopedRegion::~ScopedRegion() {
  if (!Run && !Tracing)
    return;
  const auto End = std::chrono::steady_clock::now();
  if (Run)
    Run->Nanos[static_cast<size_t>(R)].fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count(),
        kRelaxed);
  if (Tracing) {
    const double StartUs = trace::detail::toUs(Start);
    trace::detail::record(Span, Cat, 'X', StartUs,
                          trace::detail::toUs(End) - StartUs,
                          std::move(Args));
  }
}
