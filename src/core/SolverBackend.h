//===- SolverBackend.h - Pluggable solver-layer backends ------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver backend seam: everything between per-SCC canonical
/// constraint sets and their results — simplified `TypeScheme`s (phase 1)
/// and `SketchSolution`s (phase 2) — goes through this interface. The
/// frontend's scheduler, caching, refinement, and conversion layers are
/// backend-agnostic; a backend only has to be
///
///  - a pure function of its inputs (the constraint set, the procedure /
///    wanted variables, and the shared symbol table + lattice), and
///  - deterministic: identical inputs must produce identical outputs,
///    including fresh-existential naming, because the pipeline's
///    `--jobs N` byte-identity and the content-addressed summary cache
///    both replay backend results verbatim;
///  - const / thread-safe: the readiness scheduler calls simplify() and
///    solve() from pool workers concurrently. Backends hold only
///    references to shared state whose mutation paths are themselves
///    thread-safe (SymbolTable interning is).
///
/// Two implementations ship today:
///
///  - `RetypdBackend` (core/Simplifier.h + core/Solver.h): the paper's
///    pipeline — transducer saturation (Algorithm D.2), elementary-proof
///    trimming, and saturated-graph lattice-bound queries.
///  - `BinSubBackend` (core/BinSub.h): BinSub-style algebraic subtyping
///    (arXiv:2409.01841) — bisubstitution-based variable elimination with
///    polarity-directed constraint decomposition instead of saturation,
///    and shape-class-local bound propagation instead of path queries.
///
/// Cached artifacts are keyed and tagged by `BackendKind` (see
/// core/SummaryCache.h and the payload tag bit in core/SchemeCodec.h), so
/// artifacts produced by different backends never collide in a shared
/// cache or store.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_CORE_SOLVERBACKEND_H
#define RETYPD_CORE_SOLVERBACKEND_H

#include "core/BackendKind.h"
#include "core/Simplifier.h"
#include "core/Solver.h"

#include <memory>
#include <unordered_set>
#include <vector>

namespace retypd {

/// Abstract solver backend. One instance serves a whole analyze() call;
/// both entry points are const and safe to invoke concurrently.
class SolverBackend {
public:
  virtual ~SolverBackend() = default;

  virtual BackendKind kind() const = 0;
  const char *name() const { return backendName(kind()); }

  /// Phase 1: simplify \p C into a most-general scheme for \p ProcVar,
  /// preserving \p Interesting variables by name. Fresh existentials must
  /// be named deterministically from the inputs alone (the `τ$proc$N`
  /// convention), never from global interning state.
  virtual TypeScheme
  simplify(const ConstraintSet &C, TypeVariable ProcVar,
           const std::unordered_set<TypeVariable> &Interesting) const = 0;

  /// Phase 2: solve \p C into sketches for the \p Wanted variables.
  virtual SketchSolution solve(const ConstraintSet &C,
                               std::span<const TypeVariable> Wanted) const = 0;
};

/// Additive-constraint anchoring, shared by both backends' scheme export.
/// Bases of \p C are partitioned into components: each subtype constraint
/// joins its two bases and each add/sub joins its non-constant operand
/// bases. Lattice constants join nothing (everything would otherwise
/// connect through `int`). An add/sub is *anchored* when its component
/// holds \p ProcVar or a member of \p Interesting; only anchored ones say
/// anything to a caller, so only they are exported. Detached ones are
/// dropped — re-importing them at every call site is what made per-SCC
/// constraint sets double per layer of a diamond call graph.
/// Returns one flag per entry of `C.addSubs()`, in order.
std::vector<bool>
anchoredAddSubs(const ConstraintSet &C, TypeVariable ProcVar,
                const std::unordered_set<TypeVariable> &Interesting);

/// The non-constant operand bases of the add/subs \p Anchored flags (see
/// anchoredAddSubs). Both backends treat them as live, protect them from
/// elimination, and export their capability declarations as the pointer
/// evidence the Figure 13 classification reads.
std::unordered_set<TypeVariable>
anchoredOperandBases(const ConstraintSet &C, const std::vector<bool> &Anchored);

/// Constructs the backend for \p Kind. The references must outlive the
/// returned backend; \p Opts is copied.
std::unique_ptr<SolverBackend> makeSolverBackend(BackendKind Kind,
                                                 SymbolTable &Syms,
                                                 const Lattice &Lat,
                                                 const SimplifyOptions &Opts);

} // namespace retypd

#endif // RETYPD_CORE_SOLVERBACKEND_H
