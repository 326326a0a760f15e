//===- Workloads.cpp - The four named workloads ---------------------------===//
//
// Part of the Retypd reproduction. See perfbench/README.md.
//
//   synth-cold      fresh cacheless session per op over a ~65k-instruction
//                   synthetic module (the first look at a new binary)
//   diamond-ladder  fresh session per op over the depth-16 diamond ladder
//   store-warm      fresh session per op over an artifact store populated
//                   by one cold run (a new process on a known binary)
//   edit-stream     one resident store-backed session; each op applies one
//                   single-function edit and re-analyzes incrementally
//
// Every op parses and verifies the .asm text, analyzes, and renders the
// report; each op's output is checked outside the timed region.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/CallGraph.h"
#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "store/Store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

using namespace retypd;
namespace fs = std::filesystem;

namespace pb {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + P.string());
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

unsigned synthSize(const Config &C) { return C.Toy ? 3000 : 65536; }

/// Layers each op calls directly, timed from the op's own spans when the op
/// has them; every other layer metric comes from the replay.
const char *const kDirectLayers[] = {"mir.parse", "mir.verify", "store.open",
                                     "frontend.render"};

/// A synth op is correct when its report is byte-identical to the
/// from-scratch reference, and that reference scores within the accuracy
/// floors against the ground truth.
bool checkSynth(const std::string &Got, const std::string &Ref,
                const Accuracy &Acc, std::string &Why) {
  if (Got != Ref)
    Why = "report differs from a from-scratch analysis";
  else if (!Acc.Passes)
    Why = "accuracy below the floors";
  return Why.empty();
}

/// Shared per-op plumbing: the op's session, input and rendered output.
class Base : public Workload {
public:
  explicit Base(const Config &C) : C(C) {}

  size_t instructions() const override {
    return Sess ? Sess->module().instructionCount() : 0;
  }

protected:
  /// Parses, verifies, loads (or updates) and analyzes \p Text, then
  /// renders: the body of every op.
  void runOp(const std::string &Text, Tracer *T, bool Update) {
    Module M = parseVerified(Text, T);
    if (Update)
      Sess->updateModule(std::move(M));
    else
      Sess->loadModule(std::move(M));
    {
      Scope S(T, "frontend.analyze");
      Sess->analyze();
    }
    if (!Sess->report()->StoreError.empty())
      throw std::runtime_error("store error: " + Sess->report()->StoreError);
    Scope S(T, "frontend.render");
    Out = render(*Sess->report(), Sess->module(), Sess->lattice());
  }

  /// The output op \p I is checked against: the rendered report, or a
  /// deliberately corrupted one when the self-test asks for it.
  std::string checkedOutput(int I) const {
    if (I != C.CorruptOp)
      return Out;
    TypeReport Bad = *Sess->report();
    if (!corruptOnePrototype(Bad, Sess->module()))
      throw std::runtime_error("nothing to corrupt");
    return render(Bad, Sess->module(), Sess->lattice());
  }

  /// Jobs = 1; a store implies the summary cache. A session that serves
  /// one op and is dropped keeps no incremental history, as the one-shot
  /// Pipeline facade does.
  static SessionOptions options(const std::string &StoreDir, bool Resident) {
    SessionOptions O;
    O.Jobs = 1;
    O.UseSummaryCache = !StoreDir.empty();
    O.StoreDir = StoreDir;
    O.KeepHistory = Resident;
    return O;
  }

  /// Layer figures every workload reports, from the op's spans and stats
  /// plus the replay; \p OpLayers are the replayed layers the op runs.
  LayerSample sample(Tracer &T, int OpSpan, int ReplaySpan,
                     const ReplayResult &R,
                     const std::vector<std::string> &OpLayers,
                     const std::string &StoreDir) const {
    std::map<std::string, double> OpSelf = T.selfTimes(OpSpan);
    std::map<std::string, double> Rep = T.selfTimes(ReplaySpan);
    for (const char *L : kDirectLayers)
      if (OpSelf.count(L))
        Rep[L] = OpSelf[L];
    LayerSample V;
    auto secs = [&](const std::string &L) { return Rep.count(L) ? Rep[L] : 0; };
    for (const char *L :
         {"absint.generate", "core.simplify", "core.solve", "analysis.phase0",
          "analysis.callgraph", "ctypes.convert", "store.open",
          "core.first_probe", "core.decode", "absint.genkey", "mir.parse",
          "mir.verify", "store.flush", "frontend.render", "core.hash",
          "core.encode"})
      V[std::string(L) + "_s"] = secs(L);
    // An op without a store has no flush of its own: its figure is the
    // replay's flush of the op's artifacts into the scratch store.
    if (!Rep.count("store.flush"))
      V["store.flush_s"] = secs("store.append");
    V["absint.constraints"] = R.Constraints;
    V["core.scheme_constraints"] = R.SchemeConstraints;
    V["core.max_scc_constraints"] = R.MaxSccConstraints;
    V["analysis.sccs"] = R.Sccs;
    const PipelineStats &St = Sess->report()->Stats;
    uint64_t Probes = St.CacheHits + St.CacheMisses;
    V["core.cache_hit_ratio"] =
        Probes ? static_cast<double>(St.CacheHits) / Probes : 0;
    V["mir.parse_mib_per_s"] =
        secs("mir.parse") > 0 ? R.ParseMiB / secs("mir.parse") : 0;
    V["store.append_mib_per_s"] = R.AppendMiBPerS;
    V["core.payload_mib"] = R.PayloadMiB;
    V["store.dead_ratio"] = 0;
    V["store.disk_mib"] = 0;
    if (!StoreDir.empty()) {
      StoreInfo Info = Store::inspect(StoreDir, kSummaryCacheSchemaVersion);
      size_t Bytes = Info.LiveBytes + Info.DeadBytes;
      V["store.dead_ratio"] =
          Bytes ? static_cast<double>(Info.DeadBytes) / Bytes : 0;
      V["store.disk_mib"] =
          static_cast<double>(Bytes + Info.PoolBytes) / kMiB;
    }
    V["frontend.sccs_simplified"] = static_cast<double>(St.SccsSimplified);
    V["frontend.sccs_reused"] = static_cast<double>(St.SccsReused);
    double Attributed = 0;
    for (const char *L : kDirectLayers)
      Attributed += OpSelf.count(L) ? OpSelf[L] : 0;
    for (const std::string &L : OpLayers)
      Attributed += secs(L);
    V["frontend.unattributed_s"] = T.duration(OpSpan) - Attributed;
    V["frontend.work_s"] = R.WorkS;
    V["frontend.span_s"] = R.SpanS;
    V["frontend.parallelism"] = R.SpanS > 0 ? R.WorkS / R.SpanS : 0;
    V["bench.replay_match_ratio"] =
        R.Compared > 0 ? R.Matched / R.Compared : 0;
    return V;
  }

  /// A fresh scratch directory for one replay's cold append.
  std::string scratchStore() const {
    fs::path P = fs::path(C.WorkDir) / "scratch-store";
    fs::remove_all(P);
    return P.string();
  }

  const Config &C;
  std::unique_ptr<AnalysisSession> Sess;
  std::string Out;
};

//===----------------------------------------------------------------------===//
// synth-cold and diamond-ladder: a fresh cacheless session per op
//===----------------------------------------------------------------------===//

class ColdWorkload : public Base {
public:
  ColdWorkload(const Config &C, bool Diamond) : Base(C), Diamond(Diamond) {}

  void setup() override {
    if (Diamond) {
      Text = makeDiamondText(C.Seed, Depth);
      parseVerified(Text); // the generator's output must be well formed
    } else {
      Synth = makeSynthInput(C.Seed, synthSize(C));
      Text = Synth.Text;
    }
  }

  void prepare() override {
    if (!Diamond)
      Ref = referenceRender(Text, Synth.Truth.get(), &Acc);
  }

  void release() override { Sess.reset(); }

  double op(int /*I*/, Tracer *T) override {
    Clock::time_point T0 = Clock::now();
    {
      Scope S(T, "op");
      Sess = std::make_unique<AnalysisSession>(makeDefaultLattice(),
                                               options("", false));
      runOp(Text, T, /*Update=*/false);
    }
    return secondsSince(T0);
  }

  bool check(int I, std::string &Why) override {
    std::string Got = checkedOutput(I);
    if (Diamond)
      return checkDiamond(Got, Why);
    return checkSynth(Got, Ref, Acc, Why);
  }

  const Accuracy *accuracy() const override {
    return Diamond ? nullptr : &Acc;
  }

  LayerSample replay(Tracer &T, int OpSpan) override {
    Scope Root(&T, "replay");
    ReplayRequest Req;
    Req.Text = &Text;
    Req.Report = Sess->report();
    Req.Lat = &Sess->lattice();
    Req.ScratchStore = scratchStore();
    Req.ProbeStore = Req.ScratchStore;
    ReplayResult R = replayLayers(Req, T);
    fs::remove_all(Req.ScratchStore);
    return sample(T, OpSpan, Root.id(), R,
                  {"analysis.phase0", "analysis.callgraph", "absint.generate",
                   "core.simplify", "core.solve", "ctypes.convert"},
                  "");
  }

private:
  /// dN(void) for N >= 1; aN, bN and the leaf d0 each take one integral
  /// parameter.
  bool checkDiamond(const std::string &Got, std::string &Why) const {
    static const std::regex Proto(R"(^.*\b([abd])(\d+)\((.*)\);$)");
    static const std::regex Integral(
        R"(^((un)?signed )?(char|short|int|long|long long)( int)?$)"
        R"(|^u?int(8|16|32|64)_t$|^unsigned$)");
    std::stringstream In(Got);
    std::string Line;
    unsigned Seen = 0;
    while (std::getline(In, Line)) {
      std::smatch Mt;
      if (!std::regex_match(Line, Mt, Proto))
        continue;
      ++Seen;
      std::string Params = Mt[3];
      bool Ok = Mt[1] == "d" && Mt[2] != "0"
                    ? Params == "void"
                    : std::regex_match(Params, Integral);
      if (!Ok) {
        Why = "unexpected prototype: " + Line;
        return false;
      }
    }
    if (Seen != 3 * Depth + 1) {
      Why = "expected " + std::to_string(3 * Depth + 1) + " prototypes, saw " +
            std::to_string(Seen);
      return false;
    }
    return true;
  }

  bool Diamond;
  unsigned Depth = C.Toy ? 6 : 16;
  SynthInput Synth;
  std::string Text, Ref;
  Accuracy Acc;
};

//===----------------------------------------------------------------------===//
// store-warm: a fresh session per op over a populated artifact store
//===----------------------------------------------------------------------===//

class StoreWarmWorkload : public Base {
public:
  using Base::Base;

  void setup() override {
    Synth = makeSynthInput(C.Seed, synthSize(C));
    StoreDir = (fs::path(C.WorkDir) / "store").string();
    fs::remove_all(StoreDir);
    AnalysisSession Cold(makeDefaultLattice(), options(StoreDir, false));
    Cold.loadModule(parseVerified(Synth.Text));
    Cold.analyze();
    if (!Cold.report()->StoreError.empty())
      throw std::runtime_error("cannot populate store: " +
                               Cold.report()->StoreError);
  }

  void prepare() override {
    Ref = referenceRender(Synth.Text, Synth.Truth.get(), &Acc);
  }

  void release() override { Sess.reset(); }

  double op(int /*I*/, Tracer *T) override {
    Clock::time_point T0 = Clock::now();
    {
      Scope S(T, "op");
      {
        Scope Open(T, "store.open");
        Sess = std::make_unique<AnalysisSession>(makeDefaultLattice(),
                                                 options(StoreDir, false));
      }
      if (!Sess->storeError().empty())
        throw std::runtime_error(Sess->storeError());
      runOp(Synth.Text, T, /*Update=*/false);
    }
    return secondsSince(T0);
  }

  bool check(int I, std::string &Why) override {
    return checkSynth(checkedOutput(I), Ref, Acc, Why);
  }

  const Accuracy *accuracy() const override { return &Acc; }

  LayerSample replay(Tracer &T, int OpSpan) override {
    Scope Root(&T, "replay");
    {
      // The op's end-of-run flush, repeated on the op's own cache.
      Scope S(&T, "store.flush");
      Sess->summaryCache().flushToStore();
    }
    ReplayRequest Req;
    Req.Text = &Synth.Text;
    Req.Report = Sess->report();
    Req.Lat = &Sess->lattice();
    Req.ScratchStore = scratchStore();
    Req.ProbeStore = StoreDir;
    ReplayResult R = replayLayers(Req, T);
    fs::remove_all(Req.ScratchStore);
    // The replayed keys follow the engine's key derivation; a miss means
    // they drifted apart and core.decode_s under-counts.
    if (R.ProbeHits < R.Probes)
      std::printf("warning: %.0f of %.0f replayed store probes missed\n",
                  R.Probes - R.ProbeHits, R.Probes);
    return sample(T, OpSpan, Root.id(), R,
                  {"analysis.phase0", "analysis.callgraph", "absint.genkey",
                   "core.first_probe", "core.decode", "ctypes.convert",
                   "store.flush"},
                  StoreDir);
  }

private:
  SynthInput Synth;
  std::string StoreDir, Ref;
  Accuracy Acc;
};

//===----------------------------------------------------------------------===//
// edit-stream: one resident store-backed session, one edit per op
//===----------------------------------------------------------------------===//

class EditStreamWorkload : public Base {
public:
  using Base::Base;

  void setup() override {
    Sess.reset();
    SynthInput In = makeSynthInput(C.Seed, synthSize(C));
    Edits = std::make_unique<EditStream>(In.Text, C.Seed);
    StoreDir = (fs::path(C.WorkDir) / "store").string();
    fs::remove_all(StoreDir);
    Sess = std::make_unique<AnalysisSession>(makeDefaultLattice(),
                                             options(StoreDir, true));
    if (!Sess->storeError().empty())
      throw std::runtime_error(Sess->storeError());
    runOp(In.Text, nullptr, /*Update=*/false);
  }

  double op(int /*I*/, Tracer *T) override {
    if (T)
      PrevHashes = schemeHashes();
    Edited = Edits->next();
    Text = Edits->text();
    Clock::time_point T0 = Clock::now();
    {
      Scope S(T, "op");
      runOp(Text, T, /*Update=*/true);
    }
    return secondsSince(T0);
  }

  /// A seeded sample of ops is re-run from scratch (about two seconds
  /// each at full size): one of the first five, chosen by the seed, and any
  /// op the self-test corrupts.
  bool check(int I, std::string &Why) override {
    if (I != static_cast<int>(C.Seed % 5) && I != C.CorruptOp)
      return true;
    if (checkedOutput(I) != referenceRender(Text)) {
      Why = "incremental report differs from a from-scratch session";
      return false;
    }
    return true;
  }

  LayerSample replay(Tracer &T, int OpSpan) override {
    // The op re-ran the SCCs of the edited function and of every caller
    // of a function whose scheme changed (the session's early cutoff).
    std::unordered_map<std::string, Hash128> Now = schemeHashes();
    std::vector<std::string> Dirty{Edited};
    const Module &M = Sess->module();
    CallGraph CG(M);
    for (uint32_t F = 0; F < M.Funcs.size(); ++F)
      for (uint32_t Callee : CG.callees(F)) {
        auto N = Now.find(M.Funcs[Callee].Name); // externals have none
        auto P = PrevHashes.find(M.Funcs[Callee].Name);
        if (N != Now.end() && (P == PrevHashes.end() || P->second != N->second))
          Dirty.push_back(M.Funcs[F].Name);
      }
    Scope Root(&T, "replay");
    {
      Scope S(&T, "store.flush");
      Sess->summaryCache().flushToStore();
    }
    ReplayRequest Req;
    Req.Text = &Text;
    Req.Report = Sess->report();
    Req.Lat = &Sess->lattice();
    Req.Dirty = &Dirty;
    Req.ScratchStore = scratchStore();
    Req.ProbeStore = StoreDir;
    ReplayResult R = replayLayers(Req, T);
    fs::remove_all(Req.ScratchStore);
    return sample(T, OpSpan, Root.id(), R,
                  {"analysis.phase0", "analysis.callgraph", "absint.genkey",
                   "absint.generate", "core.hash", "core.simplify",
                   "core.encode", "core.solve", "ctypes.convert",
                   "store.flush"},
                  StoreDir);
  }

private:
  std::unordered_map<std::string, Hash128> schemeHashes() const {
    std::unordered_map<std::string, Hash128> H;
    const TypeReport &R = *Sess->report();
    for (const auto &[F, FT] : R.Funcs)
      H[Sess->module().Funcs[F].Name] =
          schemeStructuralHash(FT.Scheme, *R.Syms, Sess->lattice());
    return H;
  }

  std::unique_ptr<EditStream> Edits;
  std::string StoreDir, Text, Edited;
  std::unordered_map<std::string, Hash128> PrevHashes;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "synth-cold", "diamond-ladder", "store-warm", "edit-stream"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const Config &C) {
  if (C.Workload == "synth-cold")
    return std::make_unique<ColdWorkload>(C, false);
  if (C.Workload == "diamond-ladder")
    return std::make_unique<ColdWorkload>(C, true);
  if (C.Workload == "store-warm")
    return std::make_unique<StoreWarmWorkload>(C);
  if (C.Workload == "edit-stream")
    return std::make_unique<EditStreamWorkload>(C);
  return nullptr;
}

unsigned goldenMismatches(const std::string &Root) {
  fs::path Dir = fs::path(Root) / "tests" / "frontend" / "golden";
  std::vector<fs::path> Programs;
  if (fs::is_directory(Dir))
    for (const auto &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".asm")
        Programs.push_back(E.path());
  if (Programs.empty())
    throw std::runtime_error("golden corpus not found under " + Dir.string());
  std::sort(Programs.begin(), Programs.end());
  unsigned Bad = 0;
  for (const fs::path &P : Programs) {
    fs::path Expected = P;
    Expected.replace_extension(".expected");
    Module M = parseVerified(slurp(P));
    Lattice Lat = makeDefaultLattice();
    PipelineOptions O;
    O.Jobs = 1;
    Pipeline Pipe(Lat, O);
    TypeReport R = Pipe.run(M);
    Bad += render(R, M, Lat, /*Schemes=*/true) != slurp(Expected);
  }
  return Bad;
}

} // namespace pb
