//===- MemHooks.cpp - Heap accounting for peak_heap_mib -------------------===//
//
// Routes the global allocation operators through the engine's MemStats
// counters (support/Stats.h), the same hooks the paper-figure benches use.
// Only this benchmark binary links them; the engine never depends on them.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <cstdlib>
#include <malloc.h>
#include <new>

using retypd::MemStats;

void *operator new(size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    throw std::bad_alloc();
  MemStats::noteAlloc(malloc_usable_size(P));
  return P;
}

void *operator new[](size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept {
  if (!P)
    return;
  MemStats::noteFree(malloc_usable_size(P));
  std::free(P);
}

void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete(void *P, size_t) noexcept { ::operator delete(P); }
void operator delete[](void *P, size_t) noexcept { ::operator delete(P); }
