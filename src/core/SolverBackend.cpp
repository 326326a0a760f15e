//===- SolverBackend.cpp - Backend registry + retypd backend --------------===//

#include "core/SolverBackend.h"

#include "core/BinSub.h"
#include "support/Trace.h"
#include "support/UnionFind.h"

#include <optional>
#include <unordered_map>

using namespace retypd;

const char *retypd::backendName(BackendKind K) {
  switch (K) {
  case BackendKind::Retypd:
    return "retypd";
  case BackendKind::BinSub:
    return "binsub";
  }
  return "retypd";
}

std::optional<BackendKind> retypd::parseBackendKind(std::string_view Name) {
  if (Name == "retypd")
    return BackendKind::Retypd;
  if (Name == "binsub")
    return BackendKind::BinSub;
  return std::nullopt;
}

std::vector<bool>
retypd::anchoredAddSubs(const ConstraintSet &C, TypeVariable ProcVar,
                        const std::unordered_set<TypeVariable> &Interesting) {
  if (C.addSubs().empty())
    return {};
  std::unordered_map<TypeVariable, uint32_t> Key;
  UnionFind UF;
  auto KeyOf = [&](TypeVariable V) {
    auto [It, Inserted] = Key.emplace(V, 0);
    if (Inserted)
      It->second = UF.makeSet();
    return It->second;
  };
  for (const SubtypeConstraint &SC : C.subtypes()) {
    TypeVariable L = SC.Lhs.base(), R = SC.Rhs.base();
    if (!L.isConstant() && !R.isConstant())
      UF.unite(KeyOf(L), KeyOf(R));
  }
  // One operand key per add/sub (none if all operands are constants).
  std::vector<std::optional<uint32_t>> OperandKey;
  OperandKey.reserve(C.addSubs().size());
  for (const AddSubConstraint &AC : C.addSubs()) {
    std::optional<uint32_t> First;
    for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z}) {
      if (D->base().isConstant())
        continue;
      uint32_t K = KeyOf(D->base());
      First = First ? UF.unite(*First, K) : K;
    }
    OperandKey.push_back(First);
  }

  std::unordered_set<uint32_t> AnchorRoots;
  auto NoteAnchor = [&](TypeVariable V) {
    auto It = Key.find(V);
    if (It != Key.end())
      AnchorRoots.insert(UF.find(It->second));
  };
  NoteAnchor(ProcVar);
  for (TypeVariable V : Interesting)
    NoteAnchor(V);

  std::vector<bool> Anchored;
  Anchored.reserve(OperandKey.size());
  for (const std::optional<uint32_t> &K : OperandKey)
    Anchored.push_back(K && AnchorRoots.count(UF.find(*K)) != 0);
  return Anchored;
}

std::unordered_set<TypeVariable>
retypd::anchoredOperandBases(const ConstraintSet &C,
                             const std::vector<bool> &Anchored) {
  std::unordered_set<TypeVariable> Bases;
  for (size_t I = 0; I < Anchored.size(); ++I) {
    if (!Anchored[I])
      continue;
    const AddSubConstraint &AC = C.addSubs()[I];
    for (const DerivedTypeVariable *D : {&AC.X, &AC.Y, &AC.Z})
      if (!D->base().isConstant())
        Bases.insert(D->base());
  }
  return Bases;
}

namespace {

/// The paper's pipeline behind the seam: Simplifier (saturation + proof
/// trimming) for phase 1, SketchSolver (saturated-graph bound queries)
/// for phase 2. Both engines are cheap reference-holders, so each call
/// constructs its own — that is what makes the backend const-callable
/// from concurrent pool workers.
class RetypdBackend : public SolverBackend {
public:
  RetypdBackend(SymbolTable &Syms, const Lattice &Lat, SimplifyOptions Opts)
      : Syms(Syms), Lat(Lat), Opts(Opts) {}

  BackendKind kind() const override { return BackendKind::Retypd; }

  TypeScheme
  simplify(const ConstraintSet &C, TypeVariable ProcVar,
           const std::unordered_set<TypeVariable> &Interesting) const override {
    trace::TraceSpan Span("retypd.simplify", "backend");
    if (Span.active()) {
      Span.Args.Backend = "retypd";
      Span.Args.Constraints = static_cast<int64_t>(C.size());
    }
    Simplifier Simp(Syms, Lat, Opts);
    return Simp.simplify(C, ProcVar, Interesting);
  }

  SketchSolution solve(const ConstraintSet &C,
                       std::span<const TypeVariable> Wanted) const override {
    trace::TraceSpan Span("retypd.solve", "backend");
    if (Span.active()) {
      Span.Args.Backend = "retypd";
      Span.Args.Constraints = static_cast<int64_t>(C.size());
    }
    return SketchSolver(Lat).solve(C, Wanted);
  }

private:
  SymbolTable &Syms;
  const Lattice &Lat;
  SimplifyOptions Opts;
};

} // namespace

std::unique_ptr<SolverBackend>
retypd::makeSolverBackend(BackendKind Kind, SymbolTable &Syms,
                          const Lattice &Lat, const SimplifyOptions &Opts) {
  switch (Kind) {
  case BackendKind::BinSub:
    return std::make_unique<BinSubBackend>(Syms, Lat, Opts);
  case BackendKind::Retypd:
    break;
  }
  return std::make_unique<RetypdBackend>(Syms, Lat, Opts);
}
