//===- ReportJson.h - Structured JSON rendering of TypeReports -*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes `TypeReport` / `PipelineStats` to JSON, the machine-facing
/// counterpart of frontend/ReportPrinter.h. Embedders drive the engine
/// through `AnalysisSession` and ship this JSON across process boundaries;
/// `retypd-cli --format=json` prints it.
///
/// Schema (`"schema": "retypd-report-v1"`):
///
/// \code{.json}
/// {
///   "schema": "retypd-report-v1",
///   "module": { "functions": N, "externals": N, "instructions": N,
///               "globals": N },
///   "struct_definitions": "struct Struct_0 { ... };\n",
///   "functions": [
///     { "id": 1, "name": "close_last", "external": false,
///       "status": "ok",            // or "no-type-inferred"
///       "prototype": "int close_last(const Struct_0 *)",  // when ok
///       "params": 1,
///       "scheme": "...",           // with Schemes
///       "sketch": "..." }          // with Sketches
///   ],
///   "stats": { ... }               // with Stats (see statsJson)
/// }
/// \endcode
///
/// Functions appear in id (module) order, externals included, so the
/// array index is *not* the function id — use the "id" field.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_FRONTEND_REPORTJSON_H
#define RETYPD_FRONTEND_REPORTJSON_H

#include "frontend/Session.h"

#include <string>

namespace retypd {

/// What renderReportJson includes beyond prototypes and struct definitions.
struct ReportJsonOptions {
  bool Schemes = false;  ///< per-function simplified type schemes
  bool Sketches = false; ///< per-function solved sketches
  bool Stats = false;    ///< the run's PipelineStats (timings differ run to
                         ///< run, so identity-sensitive consumers leave
                         ///< this off)
  unsigned SketchDepth = 4;
  /// Pre-rendered per-SCC profile rows (trace::profileJson) appended as
  /// the "profile" member of the stats object. Empty = omitted. Implies
  /// nothing unless Stats is also set.
  std::string ProfileJson;
};

/// Renders the full report as a single JSON object (trailing newline
/// included). Deterministic for deterministic reports, except for the
/// "stats" member when enabled.
std::string renderReportJson(const TypeReport &R, const Module &M,
                             const Lattice &Lat,
                             const ReportJsonOptions &Opts = ReportJsonOptions());

/// Version of the stats object's layout, rendered as its first member
/// ("stats_schema"). Version 2 renders every timed region of
/// support/Metrics.h under its table key ("generate_secs", ...).
inline constexpr int kStatsSchemaVersion = 2;

/// Renders one PipelineStats as a JSON object (no trailing newline); the
/// "stats" member of renderReportJson, also reused by the benchmarks.
/// \p ProfileJson, when non-empty, is appended verbatim as a "profile"
/// member (a pre-rendered trace::profileJson array).
std::string statsJson(const PipelineStats &S,
                      const std::string &ProfileJson = std::string());

/// Escapes a string for inclusion in JSON (quotes not included).
std::string jsonEscape(const std::string &S);

} // namespace retypd

#endif // RETYPD_FRONTEND_REPORTJSON_H
