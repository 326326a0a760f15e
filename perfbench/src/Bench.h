//===- Bench.h - Shared declarations of the repository benchmark -*- C++ -*-===//
//
// Part of the Retypd reproduction. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the engine only through its public API. This header
/// holds what the benchmark's files share: the run configuration, the span
/// recorder used by traced runs, the seeded input generators, the workload
/// interface, and the outside-in layer replay.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_PERFBENCH_BENCH_H
#define RETYPD_PERFBENCH_BENCH_H

#include "eval/GroundTruth.h"
#include "frontend/Session.h"
#include "lattice/Lattice.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Command-line configuration of one benchmark run.
struct Config {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Toy-sized inputs for the self-test (seconds, not minutes).
  bool Toy = false;
  /// Self-test hook: alter one prototype of op number CorruptOp's report
  /// before it is checked (-1 = never).
  int CorruptOp = -1;
  /// Repository root (engine sources, golden corpus) and the scratch
  /// directory for stores, both inside the checkout.
  std::string Root;
  std::string WorkDir;
  std::string Rev = "unknown";
};

//===----------------------------------------------------------------------===//
// Spans (traced runs only)
//===----------------------------------------------------------------------===//

/// One benchmark-owned span: a call the benchmark made into one layer.
struct Span {
  std::string Name;
  double Start = 0, End = 0; ///< seconds since the tracer's epoch
  int Parent = -1;           ///< index of the enclosing span, -1 at top
  int Op = -1;               ///< op id the span belongs to
};

/// In-memory span recorder. Spans nest strictly (the benchmark is single
/// threaded), so a span's self time is its duration minus the durations of
/// its direct children.
class Tracer {
public:
  explicit Tracer(std::string Workload) : Workload(std::move(Workload)) {}

  int begin(const std::string &Name);
  void end(int Id);
  int CurrentOp = -1;

  /// Self time of every span with parent \p Root (recursively, all spans
  /// below it), summed by span name.
  std::map<std::string, double> selfTimes(int Root) const;
  double duration(int Id) const { return Spans[Id].End - Spans[Id].Start; }
  size_t size() const { return Spans.size(); }

  /// Writes every span as Chrome trace-event JSON.
  bool writeChrome(const std::string &Path) const;

private:
  std::string Workload;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const std::string &Name)
      : T(T), Id(T ? T->begin(Name) : -1) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int id() const { return Id; }

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// A synthetic module's text plus its declared types.
struct SynthInput {
  std::string Text;
  std::shared_ptr<retypd::GroundTruth> Truth;
};

SynthInput makeSynthInput(uint64_t Seed, unsigned Instructions);

/// The diamond call-graph ladder: d0 <- {aN, bN} <- dN per layer. The seed
/// only picks the pushed immediates; the shape is fixed.
std::string makeDiamondText(uint64_t Seed, unsigned Depth);

/// Seeded single-function edits of a module text: an immediate tweak or a
/// call-edge rewire to a leaf function (never a new cycle).
class EditStream {
public:
  EditStream(const std::string &Text, uint64_t Seed);
  /// Applies the next edit; returns the edited function's name.
  std::string next();
  std::string text() const;

private:
  std::vector<std::string> Lines;
  std::vector<size_t> ImmLines, CallLines;
  std::vector<std::string> FuncOfLine; ///< parallel to Lines
  std::vector<std::string> Leaves;
  std::mt19937_64 Rng;
};

//===----------------------------------------------------------------------===//
// Engine calls shared by ops and checks
//===----------------------------------------------------------------------===//

/// AsmParser::parse + verifyModule; throws std::runtime_error on failure.
retypd::Module parseVerified(const std::string &Text, Tracer *T = nullptr);

/// The canonical report text (what retypd-cli prints).
std::string render(const retypd::TypeReport &R, const retypd::Module &M,
                   const retypd::Lattice &Lat, bool Schemes = false);

/// Ground-truth accuracy of one report (the paper's §6.5 metrics).
struct Accuracy {
  double TypeDistance = 0, Conservativeness = 0, PointerAccuracy = 0,
         ConstRecall = 0;
  /// Within the floors every correct report clears by a wide margin.
  bool Passes = false;
};

/// A from-scratch, cacheless, storeless analysis of \p Text through the
/// one-shot Pipeline facade: the reference every op must match byte for
/// byte. With \p Truth, also scores the report into \p Acc.
std::string referenceRender(const std::string &Text,
                            const retypd::GroundTruth *Truth = nullptr,
                            Accuracy *Acc = nullptr);

/// Swaps one function's prototype for another's with a different rendering
/// (the self-test's deliberate corruption). Returns false if none exists.
bool corruptOnePrototype(retypd::TypeReport &R, const retypd::Module &M);

//===----------------------------------------------------------------------===//
// Layer replay (traced runs)
//===----------------------------------------------------------------------===//

/// What one replay should cover.
struct ReplayRequest {
  const std::string *Text = nullptr;          ///< the op's input
  const retypd::TypeReport *Report = nullptr; ///< the op's result
  const retypd::Lattice *Lat = nullptr;       ///< the op's lattice
  /// SCC filter by member name: replay generate/simplify/solve only for
  /// SCCs with a member in this set (null = every SCC).
  const std::vector<std::string> *Dirty = nullptr;
  /// Replay the data plane: gen keys, hashing, encoding, and a cold append
  /// into a fresh store in this directory.
  std::string ScratchStore;
  /// Probe this store from a fresh cache (open, first probe, decodes) with
  /// the replayed keys; may be ScratchStore itself ("" = skip).
  std::string ProbeStore;
};

/// Counts and per-SCC times the replay measured besides its spans.
struct ReplayResult {
  double Constraints = 0, SchemeConstraints = 0, MaxSccConstraints = 0;
  double Sccs = 0, WorkS = 0, SpanS = 0;
  double Matched = 0, Compared = 0;
  double PayloadMiB = 0, AppendMiBPerS = 0;
  double ProbeHits = 0, Probes = 0;
  double ParseMiB = 0;
};

/// Replays each layer of one op by calling the layer's public functions,
/// each call wrapped in a span of \p T named "<module>.<layer>".
ReplayResult replayLayers(const ReplayRequest &Req, Tracer &T);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Per-layer figures of one traced op and its replay, by metric name.
using LayerSample = std::map<std::string, double>;

/// One named workload. setup() builds the inputs and any state ops start
/// from; op() is the timed, user-visible request; check() verifies the op's
/// output outside the timed region.
class Workload {
public:
  virtual ~Workload() = default;
  /// Set-up; runs several times per run (setup_s is their median), each
  /// run discarding the previous one's state.
  virtual void setup() = 0;
  /// Untimed preparation after the last set-up (reference outputs).
  virtual void prepare() {}
  /// Untimed: drops the previous op's state before the next op starts.
  virtual void release() {}
  /// Runs op \p I and returns its wall time in seconds.
  virtual double op(int I, Tracer *T) = 0;
  /// Checks op \p I's output; on failure sets \p Why.
  virtual bool check(int I, std::string &Why) = 0;
  /// Instructions of the module the last op typed.
  virtual size_t instructions() const = 0;
  /// Ground-truth accuracy of the workload's reference report (every op
  /// must reproduce it byte for byte), synth workloads only.
  virtual const Accuracy *accuracy() const { return nullptr; }
  /// Replays the last op layer by layer under a span of \p T; \p OpSpan is
  /// the op's own span (for the layers the op calls directly).
  virtual LayerSample replay(Tracer &T, int OpSpan) = 0;
};

std::unique_ptr<Workload> makeWorkload(const Config &C);

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Diffs the golden corpus under \p Root against its .expected files;
/// returns the number of mismatches (throws if the corpus is missing).
unsigned goldenMismatches(const std::string &Root);

} // namespace pb

#endif // RETYPD_PERFBENCH_BENCH_H
