//===- Inputs.cpp - Seeded workload inputs and shared engine calls --------===//
//
// Part of the Retypd reproduction. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "eval/Metrics.h"
#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "mir/AsmParser.h"
#include "mir/Verifier.h"
#include "synth/Synth.h"

#include <sstream>
#include <stdexcept>

using namespace retypd;

namespace pb {

SynthInput makeSynthInput(uint64_t Seed, unsigned Instructions) {
  SynthGenerator Gen;
  SynthOptions O;
  O.Seed = Seed;
  O.TargetInstructions = Instructions;
  SynthProgram P = Gen.generate("bench", O);
  return SynthInput{std::move(P.AsmText), std::move(P.Truth)};
}

std::string makeDiamondText(uint64_t Seed, unsigned Depth) {
  std::mt19937_64 Rng(Seed);
  auto Imm = [&] { return std::to_string(1 + Rng() % 1000); };
  std::string Asm = "fn d0:\n  load eax, [esp+4]\n  add eax, " + Imm() +
                    "\n  ret\n";
  for (unsigned I = 1; I <= Depth; ++I) {
    std::string N = std::to_string(I), P = "d" + std::to_string(I - 1);
    Asm += "fn a" + N + ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
           "\n  add esp, 4\n  ret\n";
    Asm += "fn b" + N + ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
           "\n  add esp, 4\n  ret\n";
    Asm += "fn d" + N + ":\n  push " + Imm() + "\n  call a" + N +
           "\n  add esp, 4\n  push " + Imm() + "\n  call b" + N +
           "\n  add esp, 4\n  ret\n";
  }
  return Asm;
}

//===----------------------------------------------------------------------===//
// Edit stream
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : Line) {
    if (C == ' ' || C == '\t' || C == ',') {
      if (!Cur.empty())
        Out.push_back(std::move(Cur));
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(std::move(Cur));
  return Out;
}

bool isInt(const std::string &S) {
  size_t I = S[0] == '-' ? 1 : 0;
  if (I >= S.size())
    return false;
  for (; I < S.size(); ++I)
    if (S[I] < '0' || S[I] > '9')
      return false;
  return true;
}

/// "push IMM" or "add|sub|mov|cmp REG, IMM" on a register other than the
/// stack and frame pointers (tweaking those would change the interface).
bool isImmLine(const std::vector<std::string> &T) {
  if (T.size() == 2 && T[0] == "push")
    return isInt(T[1]);
  if (T.size() != 3 || !isInt(T[2]) || T[1] == "esp" || T[1] == "ebp")
    return false;
  return T[0] == "add" || T[0] == "sub" || T[0] == "mov" || T[0] == "cmp";
}

} // namespace

EditStream::EditStream(const std::string &Text, uint64_t Seed)
    : Rng(Seed ^ 0x9e3779b97f4a7c15ull) {
  std::stringstream In(Text);
  std::string Line, Fn;
  std::vector<std::string> Internal;
  while (std::getline(In, Line)) {
    std::vector<std::string> T = tokens(Line);
    if (T.size() == 2 && T[0] == "fn" && T[1].back() == ':') {
      Fn = T[1].substr(0, T[1].size() - 1);
      Internal.push_back(Fn);
    }
    Lines.push_back(Line);
    FuncOfLine.push_back(Fn);
  }
  std::map<std::string, bool> CallsInternal;
  for (const std::string &F : Internal)
    CallsInternal[F] = false;
  for (size_t L = 0; L < Lines.size(); ++L) {
    std::vector<std::string> T = tokens(Lines[L]);
    if (FuncOfLine[L].empty() || T.empty() || (T[0] == "fn" && T.size() == 2))
      continue;
    if (T.size() == 2 && T[0] == "call" && CallsInternal.count(T[1])) {
      CallLines.push_back(L);
      CallsInternal[FuncOfLine[L]] = true;
    } else if (isImmLine(T)) {
      ImmLines.push_back(L);
    }
  }
  for (const auto &[F, Calls] : CallsInternal)
    if (!Calls)
      Leaves.push_back(F);
  if (ImmLines.empty() || CallLines.empty() || Leaves.size() < 2)
    throw std::runtime_error("edit stream: module has nothing to edit");
}

std::string EditStream::next() {
  if (Rng() % 2 == 0) {
    size_t L = ImmLines[Rng() % ImmLines.size()];
    std::vector<std::string> T = tokens(Lines[L]);
    long long V = std::stoll(T.back()) + 1 + static_cast<long long>(Rng() % 5);
    Lines[L] = T.size() == 2 ? "  push " + std::to_string(V)
                             : "  " + T[0] + " " + T[1] + ", " +
                                   std::to_string(V);
    return FuncOfLine[L];
  }
  // Rewire a call to a leaf: callers gain no new callee with calls of its
  // own, so no edit can close a call-graph cycle.
  size_t L = CallLines[Rng() % CallLines.size()];
  std::string Old = tokens(Lines[L])[1], New = Old;
  while (New == Old)
    New = Leaves[Rng() % Leaves.size()];
  Lines[L] = "  call " + New;
  return FuncOfLine[L];
}

std::string EditStream::text() const {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared engine calls
//===----------------------------------------------------------------------===//

Module parseVerified(const std::string &Text, Tracer *T) {
  AsmParser P;
  std::optional<Module> M;
  {
    Scope S(T, "mir.parse");
    M = P.parse(Text);
  }
  if (!M)
    throw std::runtime_error("parse failed: " + P.error());
  ModuleVerifyResult V;
  {
    Scope S(T, "mir.verify");
    V = verifyModule(*M);
  }
  if (!V.ok())
    throw std::runtime_error("verify failed:\n" +
                             renderModuleDiags(*M, V, "input",
                                               &P.lineTable()));
  return std::move(*M);
}

std::string render(const TypeReport &R, const Module &M, const Lattice &Lat,
                   bool Schemes) {
  ReportPrintOptions Print;
  Print.Schemes = Schemes;
  return renderReport(R, M, Lat, Print);
}

std::string referenceRender(const std::string &Text, const GroundTruth *Truth,
                            Accuracy *Acc) {
  Module M = parseVerified(Text);
  Lattice Lat = makeDefaultLattice();
  PipelineOptions O;
  O.Jobs = 1;
  Pipeline Pipe(Lat, O);
  TypeReport R = Pipe.run(M);
  if (Truth && Acc) {
    MetricSummary S = Evaluator(Lat).scoreRetypd(M, R, *Truth);
    *Acc = Accuracy{S.meanDistance(), S.conservativeness(),
                    S.pointerAccuracy(), S.constRecall(), false};
    Acc->Passes = S.Slots > 0 && Acc->TypeDistance <= 1.0 &&
                  Acc->Conservativeness >= 0.8 &&
                  Acc->PointerAccuracy >= 0.5 && Acc->ConstRecall >= 0.5;
  }
  return render(R, M, Lat);
}

bool corruptOnePrototype(TypeReport &R, const Module &M) {
  for (auto &[F, FT] : R.Funcs) {
    if (M.Funcs[F].IsExternal)
      continue;
    std::string Before = R.prototypeOf(F, M);
    for (const auto &[G, GT] : R.Funcs) {
      if (G == F || GT.CType == NoCType ||
          R.Pool.prototype(GT.CType, M.Funcs[F].Name) == Before)
        continue;
      FT.CType = GT.CType;
      return true;
    }
  }
  return false;
}

} // namespace pb
