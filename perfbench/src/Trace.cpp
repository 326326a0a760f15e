//===- Trace.cpp - Benchmark-owned spans and Chrome trace output ----------===//
//
// Part of the Retypd reproduction. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

namespace pb {

int Tracer::begin(const std::string &Name) {
  Span S;
  S.Name = Name;
  S.Start = secondsSince(Epoch);
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = CurrentOp;
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  Spans[Id].End = secondsSince(Epoch);
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

std::map<std::string, double> Tracer::selfTimes(int Root) const {
  // Spans are appended in start order and nest strictly, so every
  // descendant of Root follows it; a span belongs to Root's subtree iff
  // its parent chain reaches Root.
  std::vector<char> Inside(Spans.size(), 0);
  std::vector<double> Self(Spans.size(), 0);
  std::map<std::string, double> Out;
  for (size_t I = Root + 1; I < Spans.size(); ++I) {
    int P = Spans[I].Parent;
    if (P != Root && (P < 0 || !Inside[P]))
      continue;
    Inside[I] = 1;
    Self[I] += Spans[I].End - Spans[I].Start;
    if (P != Root)
      Self[P] -= Spans[I].End - Spans[I].Start;
  }
  for (size_t I = Root + 1; I < Spans.size(); ++I)
    if (Inside[I])
      Out[Spans[I].Name] += Self[I];
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"workload\": \"%s\", \"op\": %d}}",
                 I ? ",\n" : "", S.Name.c_str(), S.Start * 1e6,
                 (S.End - S.Start) * 1e6, I, S.Parent, Workload.c_str(), S.Op);
  }
  std::fprintf(F, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(F) == 0;
}

} // namespace pb
