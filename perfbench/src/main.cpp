//===- main.cpp - The repository benchmark program ------------------------===//
//
// Part of the Retypd reproduction. See perfbench/README.md.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--root DIR] [--work-dir DIR] [--out-dir DIR] [--rev REV]
//             [--toy] [--corrupt-op K]
//
// Untraced (--trace 0): set up several times (setup_s is the median), then
// run ops back to back for S seconds of op time and report the end-to-end
// metrics.
// Traced (--trace 1): the same set-up, then cycles of one untraced op, one
// op under benchmark-owned spans, and a layer-by-layer replay of that op;
// reports the per-layer metrics and writes the spans as a Chrome trace.
// Every op's output is checked; the last stdout line is the JSON result.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Stats.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace retypd;
namespace fs = std::filesystem;

namespace pb {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// One metric line: value (or n/a) with its unit and a note.
struct Metric {
  std::string Name, Unit;
  double Value = 0;
  bool Applies = true;
  std::string Note;
};

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out + "\"";
}

//===----------------------------------------------------------------------===//
// Run context (recorded beside the metrics, never as one)
//===----------------------------------------------------------------------===//

/// Spin-calibrated cores: the same busy loop on one thread and then on
/// every schedulable CPU at once. Equal walls mean that many real cores.
double effectiveCores(unsigned Cpus) {
  auto spin = [](uint64_t N) {
    std::atomic<uint64_t> Sink{0};
    uint64_t X = 1;
    for (uint64_t I = 0; I < N; ++I)
      X = X * 6364136223846793005ull + 1442695040888963407ull;
    Sink.store(X, std::memory_order_relaxed);
  };
  const uint64_t N = 20'000'000;
  double One = 1e9;
  for (int R = 0; R < 3; ++R) {
    Clock::time_point T0 = Clock::now();
    spin(N);
    One = std::min(One, secondsSince(T0));
  }
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Cpus; ++I)
    Threads.emplace_back(spin, N);
  for (std::thread &Th : Threads)
    Th.join();
  double All = secondsSince(T0);
  return All > 0 ? Cpus * One / All : 0;
}

std::string runContext(const Config &C) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  unsigned Cpus = 0;
  std::string Mask;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0) {
    Cpus = static_cast<unsigned>(CPU_COUNT(&Set));
    int Top = CPU_SETSIZE - 1;
    while (Top > 0 && !CPU_ISSET(Top, &Set))
      --Top;
    for (int Nibble = Top / 4; Nibble >= 0; --Nibble) {
      unsigned V = 0;
      for (int B = 0; B < 4; ++B)
        V |= CPU_ISSET(Nibble * 4 + B, &Set) ? 1u << B : 0u;
      Mask += "0123456789abcdef"[V];
    }
  }
  std::string CpuMax = "unavailable";
  if (std::ifstream In("/sys/fs/cgroup/cpu.max"); In)
    std::getline(In, CpuMax);
  std::ostringstream J;
  J << "{\"rev\": " << quote(C.Rev)
    << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"affinity_cpus\": " << Cpus << ", \"affinity_mask\": "
    << quote(Mask) << ", \"cgroup_cpu_max\": " << quote(CpuMax)
    << ", \"effective_cores\": " << num(effectiveCores(std::max(1u, Cpus)))
    << ", \"workload\": " << quote(C.Workload) << ", \"seed\": " << C.Seed
    << ", \"seconds\": " << num(C.Seconds) << ", \"trace\": " << C.Trace
    << ", \"toy\": " << C.Toy << ", \"jobs\": 1}";
  return J.str();
}

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

struct RunOutcome {
  std::vector<Metric> Metrics;
  unsigned Attempted = 0, Failed = 0;
  bool Correct = true;
};

/// This host's speed drifts by tens of percent over minutes (identical
/// diamond-ladder ops measured 2.3 s and 3.4 s within ten minutes). Every
/// time the untraced run reports is therefore rescaled to a nominal host
/// speed: wall x (kNominalCalibration / the wall of a fixed, engine-
/// independent calibration slice run just before). An engine change moves
/// the op and not the slice, so it still shows in full.
constexpr double kNominalCalibration = 0.025;

/// The calibration slice: hash-table inserts and probes plus an
/// allocation-heavy sort, deterministic and independent of the engine.
/// Returns kNominalCalibration / its wall time.
double hostSpeed() {
  Clock::time_point T0 = Clock::now();
  uint64_t X = 88172645463325252ull, Sum = 0;
  auto next = [&] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::unordered_map<uint64_t, uint64_t> Map;
  for (uint64_t I = 0; I < (1u << 17); ++I)
    Map[next() >> 44] += I;
  for (uint64_t I = 0; I < (1u << 19); ++I)
    if (auto It = Map.find(next() >> 44); It != Map.end())
      Sum += It->second;
  std::vector<std::vector<uint64_t>> Rows(1u << 13);
  for (auto &Row : Rows)
    for (int K = 0; K < 16; ++K)
      Row.push_back(next());
  std::sort(Rows.begin(), Rows.end());
  static std::atomic<uint64_t> Sink;
  Sink.store(Sum + Rows.front().front(), std::memory_order_relaxed);
  return kNominalCalibration / secondsSince(T0);
}

/// One checked op: its wall, the host speed measured just before it, and
/// its heap high-water mark above its starting live bytes. Wall is 0 when
/// the op threw.
struct OpTiming {
  double Wall = 0, Speed = 1, PeakMiB = 0;
};

/// Runs op \p I, checks it, and records the outcome.
OpTiming timedOp(Workload &W, int I, Tracer *T, RunOutcome &R) {
  W.release();
  OpTiming Out;
  Out.Speed = hostSpeed();
  MemStats::resetPeak();
  const uint64_t Live0 = MemStats::LiveBytes.load();
  try {
    const double Wall = W.op(I, T);
    const uint64_t Peak = MemStats::PeakBytes.load();
    std::string Why;
    const bool Ok = W.check(I, Why);
    ++R.Attempted;
    R.Failed += !Ok;
    if (!Ok)
      std::printf("op %d FAILED: %s\n", I, Why.c_str());
    Out.Wall = Wall;
    Out.PeakMiB = static_cast<double>(Peak - Live0) / kMiB;
  } catch (const std::exception &E) {
    ++R.Attempted;
    ++R.Failed;
    std::printf("op %d FAILED: %s\n", I, E.what());
  }
  return Out;
}

void endToEnd(Workload &W, const Config &C, double SetupS, RunOutcome &R) {
  const CounterSnapshot Counters0 = CounterSnapshot::take();
  std::vector<double> Walls, RawWalls, Speeds, Peaks;
  double Instr = 0;
  const unsigned MinOps = C.Toy ? 2 : 3;
  // One warm-up op (checked, not timed) lets allocator arenas and caches
  // fill. Then the run measures C.Seconds of op time; checks and teardown
  // come on top.
  timedOp(W, 0, nullptr, R);
  double Measured = 0;
  for (int I = 1; Measured < C.Seconds || Walls.size() < MinOps; ++I) {
    OpTiming Op = timedOp(W, I, nullptr, R);
    Measured += Op.Wall;
    if (Op.Wall <= 0) {
      if (R.Failed > 2 * MinOps)
        break; // every op is failing: stop, the run is reported wrong
      continue;
    }
    Walls.push_back(Op.Wall * Op.Speed);
    RawWalls.push_back(Op.Wall);
    Speeds.push_back(Op.Speed);
    Peaks.push_back(Op.PeakMiB);
    Instr += static_cast<double>(W.instructions());
  }
  const CounterSnapshot Delta = Counters0.delta();
  if (Delta.VerifierChecks || Delta.TraceEvents) {
    std::printf("zero-cost-off contract broken: %llu verifier checks, %llu "
                "trace events in an untraced run\n",
                static_cast<unsigned long long>(Delta.VerifierChecks),
                static_cast<unsigned long long>(Delta.TraceEvents));
    R.Correct = false;
  }

  std::vector<double> Sorted = Walls;
  std::sort(Sorted.begin(), Sorted.end());
  const size_t N = Sorted.size();
  double Total = 0;
  for (double Wl : Walls)
    Total += Wl;
  std::string Count = "n=" + std::to_string(N);
  R.Metrics.push_back({"op_p50_s", "s", median(Walls), N > 0,
                       Count + ", raw wall p50 " + num(median(RawWalls)) +
                           " s, host speed p50 " + num(median(Speeds))});
  // The highest percentile with at least ten ops beyond it.
  Metric Tail{"op_tail_s", "s", 0, N >= 11,
              "needs >= 11 ops, have " + std::to_string(N)};
  if (Tail.Applies) {
    Tail.Value = Sorted[N - 11];
    Tail.Note = "p" + num(std::floor(1000.0 * (N - 10) / N) / 10) + ", " +
                Count + ", 10 beyond";
  }
  R.Metrics.push_back(Tail);
  R.Metrics.push_back({"instr_per_s", "1/s", Total > 0 ? Instr / Total : 0,
                       Total > 0, "instructions typed per op second"});
  R.Metrics.push_back({"setup_s", "s", SetupS, true,
                       "median of set-ups, host-speed rescaled"});
  R.Metrics.push_back({"peak_heap_mib", "MiB", median(Peaks), N > 0,
                       "median per-op heap high-water above op start"});
  R.Metrics.push_back(
      {"failed_frac", "ratio",
       R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0, true,
       std::to_string(R.Failed) + "/" + std::to_string(R.Attempted)});
  const Accuracy *A = W.accuracy();
  const char *NoTruth = "synth workloads only";
  R.Metrics.push_back({"type_distance", "lattice", A ? A->TypeDistance : 0,
                       A != nullptr, A ? "" : NoTruth});
  R.Metrics.push_back({"conservativeness", "ratio",
                       A ? A->Conservativeness : 0, A != nullptr,
                       A ? "" : NoTruth});
  R.Metrics.push_back({"pointer_accuracy", "ratio",
                       A ? A->PointerAccuracy : 0, A != nullptr,
                       A ? "" : NoTruth});
  R.Metrics.push_back({"const_recall", "ratio", A ? A->ConstRecall : 0,
                       A != nullptr, A ? "" : NoTruth});
}

/// Units of the per-layer metrics; the list is the traced run's output.
const std::vector<std::pair<std::string, std::string>> &layerUnits() {
  static const std::vector<std::pair<std::string, std::string>> Units = {
      {"absint.generate_s", "s"},       {"absint.constraints", "count"},
      {"core.simplify_s", "s"},         {"core.scheme_constraints", "count"},
      {"core.max_scc_constraints", "count"},
      {"core.solve_s", "s"},            {"analysis.phase0_s", "s"},
      {"analysis.callgraph_s", "s"},    {"analysis.sccs", "count"},
      {"ctypes.convert_s", "s"},        {"store.open_s", "s"},
      {"core.first_probe_s", "s"},      {"core.decode_s", "s"},
      {"core.cache_hit_ratio", "ratio"}, {"absint.genkey_s", "s"},
      {"mir.parse_s", "s"},             {"mir.parse_mib_per_s", "MiB/s"},
      {"mir.verify_s", "s"},            {"store.flush_s", "s"},
      {"store.append_mib_per_s", "MiB/s"},
      {"store.dead_ratio", "ratio"},    {"frontend.sccs_simplified", "count"},
      {"frontend.sccs_reused", "count"}, {"frontend.render_s", "s"},
      {"frontend.unattributed_s", "s"}, {"core.hash_s", "s"},
      {"core.encode_s", "s"},           {"core.payload_mib", "MiB"},
      {"store.disk_mib", "MiB"},        {"frontend.work_s", "s"},
      {"frontend.span_s", "s"},         {"frontend.parallelism", "ratio"},
      {"bench.trace_overhead_frac", "ratio"},
      {"bench.replay_match_ratio", "ratio"}};
  return Units;
}

void perLayer(Workload &W, const Config &C, const std::string &OutDir,
              RunOutcome &R) {
  Tracer T(C.Workload);
  std::vector<double> Plain, Traced;
  std::vector<LayerSample> Samples;
  Clock::time_point Start = Clock::now();
  for (int I = 0; secondsSince(Start) < C.Seconds || Samples.empty();) {
    if (double Wall = timedOp(W, I++, nullptr, R).Wall; Wall > 0)
      Plain.push_back(Wall);
    T.CurrentOp = I;
    const int OpSpan = static_cast<int>(T.size());
    const double TWall = timedOp(W, I++, &T, R).Wall;
    if (TWall <= 0) {
      if (R.Failed > 6)
        break;
      continue;
    }
    Traced.push_back(TWall);
    try {
      Samples.push_back(W.replay(T, OpSpan));
    } catch (const std::exception &E) {
      std::printf("replay of op %d FAILED: %s\n", I - 1, E.what());
      R.Correct = false;
      break;
    }
    T.CurrentOp = -1;
  }
  for (const auto &[Name, Unit] : layerUnits()) {
    std::vector<double> V;
    for (const LayerSample &S : Samples)
      if (auto It = S.find(Name); It != S.end())
        V.push_back(It->second);
    Metric M{Name, Unit, median(V), !Samples.empty(),
             "median of " + std::to_string(Samples.size()) + " replays"};
    if (Name == "bench.trace_overhead_frac") {
      double P = median(Plain);
      M.Value = P > 0 ? median(Traced) / P - 1 : 0;
      M.Note = "traced vs untraced op_p50_s, " + std::to_string(Traced.size()) +
               "+" + std::to_string(Plain.size()) + " ops";
    }
    R.Metrics.push_back(M);
  }
  // ROADMAP's d16 attribution check: on the diamond ladder, generate +
  // simplify against the raw wall of this run's untraced ops, and against
  // everything the replay timed inside analyze().
  double GenSimplify = 0, Analyze = 0;
  for (const Metric &M : R.Metrics) {
    if (M.Name == "absint.generate_s" || M.Name == "core.simplify_s")
      GenSimplify += M.Value;
    if (M.Name == "absint.generate_s" || M.Name == "core.simplify_s" ||
        M.Name == "core.solve_s" || M.Name == "analysis.phase0_s" ||
        M.Name == "analysis.callgraph_s" || M.Name == "ctypes.convert_s")
      Analyze += M.Value;
  }
  if (C.Workload == "diamond-ladder" && median(Plain) > 0 && Analyze > 0)
    std::printf("absint.generate_s + core.simplify_s = %.3f of the untraced "
                "op wall p50 (%.4f s), %.3f of the replayed analysis\n",
                GenSimplify / median(Plain), median(Plain),
                GenSimplify / Analyze);
  std::string Path = (fs::path(OutDir) / (C.Workload + "-seed" +
                                          std::to_string(C.Seed) +
                                          ".trace.json"))
                         .string();
  if (T.writeChrome(Path))
    std::printf("trace: %s (%zu spans)\n", Path.c_str(), T.size());
}

uint64_t defaultSeed(const std::string &W) {
  // Default and held-out seeds per workload (see README.md).
  if (W == "synth-cold")
    return 1;
  if (W == "diamond-ladder")
    return 3;
  if (W == "store-warm")
    return 5;
  return 7;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--root DIR] [--work-dir DIR] [--out-dir DIR] "
               "[--rev REV] [--toy] [--corrupt-op K]\n",
               Argv0);
  return 2;
}

} // namespace
} // namespace pb

int main(int Argc, char **Argv) {
  using namespace pb;
  Config C;
  bool HaveSeed = false;
  std::string OutDir = ".bench_build/results";
  C.Root = ".";
  C.WorkDir = ".bench_build/work";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto val = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::runtime_error(A + " needs a value");
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        C.Workload = val();
      else if (A == "--seed")
        C.Seed = std::stoull(val()), HaveSeed = true;
      else if (A == "--seconds")
        C.Seconds = std::stod(val());
      else if (A == "--trace")
        C.Trace = val() == "1";
      else if (A == "--root")
        C.Root = val();
      else if (A == "--work-dir")
        C.WorkDir = val();
      else if (A == "--out-dir")
        OutDir = val();
      else if (A == "--rev")
        C.Rev = val();
      else if (A == "--toy")
        C.Toy = true;
      else if (A == "--corrupt-op")
        C.CorruptOp = std::stoi(val());
      else
        return usage(Argv[0]);
    } catch (const std::exception &) {
      return usage(Argv[0]);
    }
  }
  std::unique_ptr<Workload> W = makeWorkload(C);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 C.Workload.c_str());
    for (const std::string &N : workloadNames())
      std::fprintf(stderr, " %s", N.c_str());
    std::fprintf(stderr, "\n");
    return usage(Argv[0]);
  }
  if (!HaveSeed)
    C.Seed = defaultSeed(C.Workload);

  std::error_code EC;
  fs::remove_all(C.WorkDir, EC);
  fs::create_directories(C.WorkDir);
  fs::create_directories(OutDir);
  struct Cleanup {
    std::string Dir;
    ~Cleanup() {
      std::error_code E;
      fs::remove_all(Dir, E);
    }
  } Clean{C.WorkDir};

  const std::string Context = runContext(C);
  std::printf("context %s\n", Context.c_str());
  RunOutcome R;
  try {
    // Set-up: the workload's inputs and starting state, plus the golden
    // corpus diff. Repeated at least three times and until a second of
    // set-up has been measured (cheap set-ups are noisy), reporting the
    // median; the last repetition's state is the one the ops start from.
    std::vector<double> Setups;
    double SetupTotal = 0;
    unsigned GoldenBad = 0;
    while (Setups.size() < 3 || (SetupTotal < 1.0 && Setups.size() < 25)) {
      const double Speed = hostSpeed();
      Clock::time_point T0 = Clock::now();
      W->setup();
      GoldenBad = goldenMismatches(C.Root);
      const double Secs = secondsSince(T0);
      Setups.push_back(Secs * Speed);
      SetupTotal += Secs;
    }
    if (GoldenBad) {
      std::printf("golden corpus: %u program(s) differ from .expected\n",
                  GoldenBad);
      R.Correct = false;
    }
    W->prepare();
    if (C.Trace)
      perLayer(*W, C, OutDir, R);
    else
      endToEnd(*W, C, median(Setups), R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  R.Correct = R.Correct && R.Failed == 0 && R.Attempted > 0;

  std::printf("workload %s seed %llu trace %d: %u ops, %u failed\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Trace, R.Attempted, R.Failed);
  std::ostringstream All;
  for (const Metric &M : R.Metrics) {
    std::printf("  %-28s %14s %-6s %s\n", M.Name.c_str(),
                M.Applies ? num(M.Value).c_str() : "n/a", M.Unit.c_str(),
                M.Note.c_str());
    All << (All.tellp() > 0 ? ", " : "") << quote(M.Name)
        << ": {\"value\": " << (M.Applies ? num(M.Value) : "null")
        << ", \"unit\": " << quote(M.Unit) << ", \"note\": " << quote(M.Note)
        << "}";
  }
  std::string Head = "{\"correct\": " + std::string(R.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed);
  {
    std::ofstream Res(fs::path(OutDir) /
                      (C.Workload + "-seed" + std::to_string(C.Seed) +
                       "-trace" + std::to_string(C.Trace) + ".json"));
    Res << Head << ", \"context\": " << Context << ", \"metrics\": {"
        << All.str() << "}}\n";
  }
  // The result line: the metrics BENCHMARK.json names for this mode are
  // selected by run.py; here every applicable metric is printed.
  std::ostringstream Json;
  Json << Head << ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : R.Metrics) {
    if (!M.Applies)
      continue;
    Json << (First ? "" : ", ") << quote(M.Name) << ": {\"value\": "
         << num(M.Value) << ", \"unit\": " << quote(M.Unit) << "}";
    First = false;
  }
  Json << "}}";
  std::printf("%s\n", Json.str().c_str());
  return 0;
}
