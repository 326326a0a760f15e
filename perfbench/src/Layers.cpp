//===- Layers.cpp - Outside-in replay of one op, layer by layer ----------===//
//
// Part of the Retypd reproduction. See perfbench/README.md.
//
// The engine's analyze() is one opaque call. To say which layer an op's
// time went to, the traced run replays the op's work by calling each
// layer's public functions in the order analyze() does, on the op's own
// input and into a fresh symbol table. Callee schemes are the replay's own
// (or, for SCCs an incremental op did not recompute, the op's report's).
// Every call is wrapped in a benchmark-owned span; nothing inside src/ is
// instrumented.
// Replaying scheme simplification must reproduce the analyzed schemes, and
// the share that does (bench.replay_match_ratio) says how faithful the
// replay is.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "absint/ConstraintGen.h"
#include "analysis/CallGraph.h"
#include "analysis/InterfaceRecovery.h"
#include "core/SchemeCodec.h"
#include "core/SolverBackend.h"
#include "core/SummaryCache.h"
#include "ctypes/Conversion.h"
#include "frontend/KnownFunctions.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_set>

using namespace retypd;

namespace pb {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Keys one SCC's artifacts were stored under (store probe replay).
struct SccKeys {
  SummaryKey Gen{};
  std::vector<SummaryKey> Schemes;
  std::optional<SummaryKey> Solve;
};

std::vector<std::string> varNames(const SymbolTable &S,
                                  const std::vector<TypeVariable> &Vars) {
  std::vector<std::string> Names;
  for (TypeVariable V : Vars)
    if (V.isVar())
      Names.push_back(S.name(V.symbol()));
  return Names;
}

} // namespace

ReplayResult replayLayers(const ReplayRequest &Req, Tracer &T) {
  ReplayResult Out;
  const TypeReport &R = *Req.Report;
  const Lattice &Lat = *Req.Lat;
  // The replay interns into a fresh symbol table, as the op's session did:
  // replaying into the op's populated table would find every fresh name
  // already interned and under-measure generation and simplification.
  SymbolTable S;
  const SymbolTable &OpSyms = *R.Syms;
  Out.ParseMiB = static_cast<double>(Req.Text->size()) / kMiB;

  Module M = parseVerified(*Req.Text, &T);

  std::unordered_map<uint32_t, TypeScheme> Schemes;
  {
    Scope Sp(&T, "analysis.phase0");
    recoverInterfaces(M);
    registerKnownFunctions(M, S, Lat, Schemes);
  }
  std::optional<CallGraph> CGStore;
  {
    Scope Sp(&T, "analysis.callgraph");
    CGStore.emplace(M);
  }
  const CallGraph &CG = *CGStore;
  const size_t NumSccs = CG.sccs().size();
  Out.Sccs = static_cast<double>(NumSccs);

  for (const auto &[F, FT] : R.Funcs)
    Out.SchemeConstraints += static_cast<double>(FT.Scheme.Constraints.size());

  // Which SCCs the op (re)computed: all of them, or those holding an
  // edited function or a caller whose callee's scheme changed.
  std::vector<char> Selected(NumSccs, Req.Dirty == nullptr);
  if (Req.Dirty) {
    std::unordered_set<std::string> Dirty(Req.Dirty->begin(),
                                          Req.Dirty->end());
    for (uint32_t Scc = 0; Scc < NumSccs; ++Scc)
      for (uint32_t F : CG.sccs()[Scc])
        if (Dirty.count(M.Funcs[F].Name))
          Selected[Scc] = 1;
  }
  // Callees outside the replayed SCCs keep the op's schemes, carried into
  // the fresh table through the binary codec.
  for (uint32_t Scc = 0; Scc < NumSccs; ++Scc)
    if (!Selected[Scc])
      for (uint32_t F : CG.sccs()[Scc])
        if (const FunctionTypes *FT = R.typesOf(F))
          if (auto Sc = decodeScheme(encodeScheme(FT->Scheme, OpSyms, Lat), S,
                                     Lat))
            Schemes[F] = std::move(*Sc);

  std::optional<ConstraintGenerator> GenStore;
  {
    Scope Sp(&T, "absint.generate");
    GenStore.emplace(S, Lat, M);
  }
  ConstraintGenerator &Gen = *GenStore;
  const SimplifyOptions SimplifyOpts = SessionOptions().Simplify;
  const std::unique_ptr<SolverBackend> Backend =
      makeSolverBackend(BackendKind::Retypd, S, Lat, SimplifyOpts);
  const Hash128 EnvSig = ConstraintGenerator::envSig(M, Lat);
  std::unordered_map<uint32_t, Hash128> SchemeHashMemo;
  auto schemeHashFor = [&](uint32_t Callee) -> const Hash128 * {
    auto It = Schemes.find(Callee);
    if (It == Schemes.end())
      return nullptr;
    auto [Memo, Inserted] = SchemeHashMemo.try_emplace(Callee);
    if (Inserted)
      Memo->second = schemeStructuralHash(It->second, S, Lat);
    return &Memo->second;
  };

  SummaryCache Fresh; // the replayed artifacts, for encode + cold append
  std::vector<ConstraintSet> Combined(NumSccs);
  std::vector<Hash128> SetHash(NumSccs);
  std::vector<std::vector<uint32_t>> Members(NumSccs);
  std::vector<double> P1(NumSccs, 0), P2(NumSccs, 0);
  std::vector<SccKeys> Keys(NumSccs);

  // ---- Phase 1: generate, hash, simplify, encode (bottom-up) ----------
  for (uint32_t Scc : CG.bottomUpOrder()) {
    const std::vector<uint32_t> &All = CG.sccs()[Scc];
    for (uint32_t F : All)
      if (!M.Funcs[F].IsExternal)
        Members[Scc].push_back(F);
    std::sort(Members[Scc].begin(), Members[Scc].end());
    if (Members[Scc].empty() || !Selected[Scc])
      continue;
    Clock::time_point T0 = Clock::now();
    std::set<uint32_t> Mates(All.begin(), All.end());
    {
      Scope Sp(&T, "absint.genkey");
      Fnv128 KeyHash;
      KeyHash.update("retypd-genscc-v1");
      KeyHash.sep();
      KeyHash.updateU64(Members[Scc].size());
      for (uint32_t F : Members[Scc]) {
        Hash128 K = Gen.genKey(F, Mates, EnvSig, schemeHashFor);
        KeyHash.updateU64(K.Hi);
        KeyHash.updateU64(K.Lo);
      }
      Keys[Scc].Gen = KeyHash.digest();
    }
    std::unordered_set<TypeVariable> Interesting;
    std::vector<TypeVariable> Callsites;
    {
      Scope Sp(&T, "absint.generate");
      for (uint32_t F : Members[Scc]) {
        GenResult G = Gen.generate(F, Schemes, Mates);
        if (Members[Scc].size() == 1)
          Combined[Scc] = std::move(G.C); // single member: no merge
        else
          Combined[Scc].merge(G.C);
        Interesting.insert(G.Interesting.begin(), G.Interesting.end());
        Callsites.insert(Callsites.end(), G.Callsites.begin(),
                         G.Callsites.end());
      }
      Combined[Scc].canonicalize(S, Lat);
    }
    const double Size = static_cast<double>(Combined[Scc].size());
    Out.Constraints += Size;
    Out.MaxSccConstraints = std::max(Out.MaxSccConstraints, Size);
    {
      Scope Sp(&T, "core.hash");
      SetHash[Scc] = canonicalSetHash(Combined[Scc], S, Lat);
    }
    // Each member's scheme keeps the SCC's interesting variables and its
    // mates' procedure variables.
    std::vector<std::vector<TypeVariable>> Keeps;
    std::vector<TypeScheme> Simplified;
    {
      Scope Sp(&T, "core.simplify");
      for (uint32_t F : Members[Scc]) {
        std::unordered_set<TypeVariable> Keep = Interesting;
        for (uint32_t Mate : All)
          if (Mate != F)
            Keep.insert(Gen.procVar(Mate));
        TypeScheme Sc = Backend->simplify(Combined[Scc], Gen.procVar(F), Keep);
        Sc.Constraints.canonicalize(S, Lat);
        Simplified.push_back(std::move(Sc));
        Keeps.emplace_back(Keep.begin(), Keep.end());
      }
    }
    P1[Scc] = secondsSince(T0);
    for (size_t I = 0; I < Members[Scc].size(); ++I) {
      const FunctionTypes *FT = R.typesOf(Members[Scc][I]);
      Out.Compared += 1;
      Out.Matched += FT && schemeStructuralHash(FT->Scheme, OpSyms, Lat) ==
                               schemeStructuralHash(Simplified[I], S, Lat);
      Schemes[Members[Scc][I]] = Simplified[I]; // callers instantiate it
    }
    {
      Scope Sp(&T, "core.encode");
      std::vector<TypeVariable> InterestingVec(Interesting.begin(),
                                               Interesting.end());
      Fresh.insertGen(Keys[Scc].Gen, Combined[Scc], SetHash[Scc],
                      InterestingVec, Callsites, S, Lat);
      for (size_t I = 0; I < Members[Scc].size(); ++I) {
        SummaryKey K = SummaryCache::keyFor(
            SetHash[Scc], M.Funcs[Members[Scc][I]].Name, varNames(S, Keeps[I]),
            SimplifyOpts, BackendKind::Retypd);
        Fresh.insert(K, Simplified[I], S, Lat);
        Keys[Scc].Schemes.push_back(K);
      }
    }
  }

  // ---- Phase 2: solve (top-down) ---------------------------------------
  for (uint32_t Scc : CG.topDownOrder()) {
    if (!Selected[Scc] || Combined[Scc].empty())
      continue;
    const std::vector<uint32_t> &All = CG.sccs()[Scc];
    std::vector<TypeVariable> Wanted;
    for (uint32_t F : Members[Scc]) {
      Wanted.push_back(Gen.procVar(F));
      for (uint32_t Idx = 0; Idx < M.Funcs[F].Body.size(); ++Idx) {
        const Instr &I = M.Funcs[F].Body[Idx];
        if (I.Op != Opcode::Call || I.Target >= M.Funcs.size() ||
            std::find(All.begin(), All.end(), I.Target) != All.end())
          continue;
        SymbolId Sym;
        if (S.lookup(M.Funcs[F].Name + "!" + M.Funcs[I.Target].Name + "@" +
                         std::to_string(Idx),
                     Sym))
          Wanted.push_back(TypeVariable::var(Sym));
      }
    }
    Clock::time_point T0 = Clock::now();
    {
      Scope Sp(&T, "core.solve");
      SketchSolution Sol = Backend->solve(Combined[Scc], Wanted);
      (void)Sol;
    }
    P2[Scc] = secondsSince(T0);
    Keys[Scc].Solve =
        SummaryCache::solveKeyFor(SetHash[Scc], varNames(S, Wanted));
  }

  // Work and critical path over the condensation: phase 1 runs callees
  // before callers, phase 2 callers before callees, with a barrier between.
  {
    std::vector<double> Fin1(NumSccs, 0), Fin2(NumSccs, 0);
    double Span1 = 0, Span2 = 0;
    for (uint32_t Scc : CG.bottomUpOrder()) {
      double Dep = 0;
      for (uint32_t C : CG.sccCallees(Scc))
        Dep = std::max(Dep, Fin1[C]);
      Fin1[Scc] = Dep + P1[Scc];
      Span1 = std::max(Span1, Fin1[Scc]);
      Out.WorkS += P1[Scc] + P2[Scc];
    }
    for (uint32_t Scc : CG.topDownOrder()) {
      double Dep = 0;
      for (uint32_t C : CG.sccCallers(Scc))
        Dep = std::max(Dep, Fin2[C]);
      Fin2[Scc] = Dep + P2[Scc];
      Span2 = std::max(Span2, Fin2[Scc]);
    }
    Out.SpanS = Span1 + Span2;
  }

  // ---- Phase 3: C-type conversion (always whole-module) ---------------
  {
    Scope Sp(&T, "ctypes.convert");
    CTypePool Pool;
    CTypeConverter Conv(Pool, Lat, SessionOptions().Conversion);
    for (const auto &[F, FT] : R.Funcs)
      Conv.convertFunction(FT.FuncSketch);
  }

  // ---- Data plane: cold append of the replayed artifacts ---------------
  {
    if (!Fresh.openStore(Req.ScratchStore))
      throw std::runtime_error("cannot open scratch store " +
                               Req.ScratchStore);
    Out.PayloadMiB = static_cast<double>(Fresh.payloadBytes()) / kMiB;
    Clock::time_point T0 = Clock::now();
    {
      Scope Sp(&T, "store.append");
      if (!Fresh.flushToStore())
        throw std::runtime_error("scratch store flush failed");
    }
    double Secs = secondsSince(T0);
    Out.AppendMiBPerS = Secs > 0 ? Out.PayloadMiB / Secs : 0;
  }

  // ---- Store read side: a fresh cache probing the op's store ----------
  if (!Req.ProbeStore.empty()) {
    SummaryCache Probe;
    SymbolTable PS; // the warm op's session starts from an empty table
    {
      Scope Sp(&T, "store.open");
      if (!Probe.openStore(Req.ProbeStore))
        throw std::runtime_error("cannot open store " + Req.ProbeStore);
    }
    // The probes the warm op makes, in its order. The first one binds the
    // store's name pool; the rest share one span (each is microseconds).
    std::vector<std::function<bool()>> Probes;
    for (uint32_t Scc : CG.bottomUpOrder()) {
      if (Members[Scc].empty() || !Selected[Scc])
        continue;
      Probes.push_back([&, Scc] {
        return Probe.lookupGenMeta(Keys[Scc].Gen, PS, Lat).has_value();
      });
      for (const SummaryKey &K : Keys[Scc].Schemes)
        Probes.push_back([&, K] { return Probe.lookup(K, PS, Lat).has_value(); });
    }
    for (uint32_t Scc : CG.topDownOrder())
      if (Keys[Scc].Solve)
        Probes.push_back([&, Scc] {
          return Probe.lookupSolution(*Keys[Scc].Solve, PS, Lat).has_value();
        });
    Out.Probes = static_cast<double>(Probes.size());
    if (!Probes.empty()) {
      Scope Sp(&T, "core.first_probe");
      Out.ProbeHits += Probes.front()();
    }
    {
      Scope Sp(&T, "core.decode");
      for (size_t I = 1; I < Probes.size(); ++I)
        Out.ProbeHits += Probes[I]();
    }
  }
  return Out;
}

} // namespace pb
