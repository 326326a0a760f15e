//===- ReportJson.cpp - Structured JSON rendering of TypeReports ----------===//

#include "frontend/ReportJson.h"

#include <cinttypes>
#include <cstdio>

using namespace retypd;

std::string retypd::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C); // UTF-8 passes through verbatim
      }
    }
  }
  return Out;
}

namespace {

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  Out += jsonEscape(S);
  Out += '"';
  return Out;
}

std::string numField(const char *Name, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "\"%s\": %.6f", Name, V);
  return Buf;
}

} // namespace

std::string retypd::statsJson(const PipelineStats &S,
                              const std::string &ProfileJson) {
  std::string J = "{";
  J += "\"backend\": " + quoted(S.Backend) + ", ";
  J += numField("generate_secs", S.GenerateSecs) + ", ";
  J += numField("simplify_secs", S.SimplifySecs) + ", ";
  J += numField("solve_secs", S.SolveSecs) + ", ";
  J += numField("convert_secs", S.ConvertSecs) + ", ";
  J += "\"sccs\": " + std::to_string(S.SccCount) + ", ";
  J += "\"jobs\": " + std::to_string(S.JobsUsed) + ", ";
  J += "\"cache_hits\": " + std::to_string(S.CacheHits) + ", ";
  J += "\"cache_misses\": " + std::to_string(S.CacheMisses) + ", ";
  J += "\"gen_cache_hits\": " + std::to_string(S.GenCacheHits) + ", ";
  J += "\"gen_cache_misses\": " + std::to_string(S.GenCacheMisses) + ", ";
  J += "\"store_hits\": " + std::to_string(S.StoreHits) + ", ";
  J += "\"store_appends\": " + std::to_string(S.StoreAppends) + ", ";
  J += "\"pool_bind_hits\": " + std::to_string(S.PoolBindHits) + ", ";
  J += std::string("\"incremental\": ") + (S.IncrementalRun ? "true" : "false") + ", ";
  J += "\"functions_dirty\": " + std::to_string(S.FunctionsDirty) + ", ";
  J += "\"sccs_simplified\": " + std::to_string(S.SccsSimplified) + ", ";
  J += "\"sccs_reused\": " + std::to_string(S.SccsReused) + ", ";
  J += "\"schemes_computed\": " + std::to_string(S.SchemesComputed) + ", ";
  J += "\"schemes_reused\": " + std::to_string(S.SchemesReused) + ", ";
  J += "\"sccs_solved\": " + std::to_string(S.SccsSolved) + ", ";
  J += "\"sccs_refined_only\": " + std::to_string(S.SccsRefinedOnly) + ", ";
  J += "\"sccs_solve_reused\": " + std::to_string(S.SccsSolveReused) + ", ";
  J += "\"sccs_scheduled\": " + std::to_string(S.SccsScheduled) + ", ";
  J += "\"batches_formed\": " + std::to_string(S.BatchesFormed) + ", ";
  J += "\"max_ready_queue\": " + std::to_string(S.MaxReadyQueue) + ", ";
  J += "\"commit_stalls\": " + std::to_string(S.CommitStalls);
  if (!ProfileJson.empty())
    J += ", \"profile\": " + ProfileJson;
  J += "}";
  return J;
}

std::string retypd::renderReportJson(const TypeReport &R, const Module &M,
                                     const Lattice &Lat,
                                     const ReportJsonOptions &Opts) {
  std::string J = "{\n";
  J += "  \"schema\": \"retypd-report-v1\",\n";

  size_t Externals = 0;
  for (const Function &F : M.Funcs)
    Externals += F.IsExternal;
  J += "  \"module\": {\"functions\": " + std::to_string(M.Funcs.size()) +
       ", \"externals\": " + std::to_string(Externals) +
       ", \"instructions\": " + std::to_string(M.instructionCount()) +
       ", \"globals\": " + std::to_string(M.Globals.size()) + "},\n";

  std::vector<CTypeId> Roots;
  for (const auto &[F, T] : R.Funcs)
    if (T.CType != NoCType)
      Roots.push_back(T.CType);
  J += "  \"struct_definitions\": " + quoted(R.Pool.structDefinitions(Roots)) +
       ",\n";

  J += "  \"functions\": [\n";
  for (uint32_t F = 0; F < M.Funcs.size(); ++F) {
    const Function &Fn = M.Funcs[F];
    SessionQuery<std::string> Proto = R.prototype(F, M);
    J += "    {\"id\": " + std::to_string(F) + ", \"name\": " +
         quoted(Fn.Name) + ", \"external\": " +
         (Fn.IsExternal ? "true" : "false") + ", \"status\": " +
         quoted(typeQueryStatusName(Proto.Status));
    const FunctionTypes *T = R.typesOf(F);
    if (Proto)
      J += ", \"prototype\": " + quoted(*Proto);
    if (T)
      J += ", \"params\": " + std::to_string(T->NumParams);
    if (Opts.Schemes && T)
      J += ", \"scheme\": " + quoted(T->Scheme.str(*R.Syms, Lat));
    if (Opts.Sketches && T)
      J += ", \"sketch\": " + quoted(T->FuncSketch.str(Lat, Opts.SketchDepth));
    J += "}";
    J += F + 1 < M.Funcs.size() ? ",\n" : "\n";
  }
  J += "  ]";

  if (Opts.Stats) {
    J += ",\n  \"stats\": ";
    J += statsJson(R.Stats, Opts.ProfileJson);
  }
  J += "\n}\n";
  return J;
}
