//===- CallGraph.h - Call graph and SCC condensation ----------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module call graph and its Tarjan SCC condensation. Type-scheme
/// inference walks the SCCs bottom-up (callees before callers, Algorithm
/// F.1); sketch solving walks them top-down (Algorithm F.2).
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_ANALYSIS_CALLGRAPH_H
#define RETYPD_ANALYSIS_CALLGRAPH_H

#include "mir/MIR.h"

#include <vector>

namespace retypd {

/// Call graph with SCC condensation.
class CallGraph {
public:
  explicit CallGraph(const Module &M);

  /// Direct callees of a function (deduplicated).
  const std::vector<uint32_t> &callees(uint32_t Func) const {
    return Callees[Func];
  }

  /// SCC id of a function.
  uint32_t sccOf(uint32_t Func) const { return SccId[Func]; }

  /// Members of each SCC.
  const std::vector<std::vector<uint32_t>> &sccs() const { return Sccs; }

  /// SCC ids in Tarjan emission order (callees before callers). The
  /// pipeline commits in bottomUpOrder()/topDownOrder() instead.
  const std::vector<uint32_t> &bottomUp() const { return BottomUp; }

  /// Deduplicated SCC-level callee edges (condensation DAG successors).
  const std::vector<uint32_t> &sccCallees(uint32_t Scc) const {
    return SccSuccs[Scc];
  }

  /// Deduplicated SCC-level caller edges (condensation DAG predecessors —
  /// the reverse of sccCallees). The top-down scheduler counts these as
  /// its dependencies; the bottom-up scheduler notifies them on commit.
  const std::vector<uint32_t> &sccCallers(uint32_t Scc) const {
    return SccPreds[Scc];
  }

  /// Every SCC id, ordered by depth (the longest callee chain below the
  /// SCC), ascending, ties by SCC id. This is the phase-1 commit sequence:
  /// a topological order of the condensation (callees strictly before
  /// callers) that is identical for every --jobs value and is the order
  /// the golden corpus was recorded under.
  const std::vector<uint32_t> &bottomUpOrder() const { return BottomUpSeq; }

  /// Every SCC id, ordered by depth descending, ties by SCC id — NOT the
  /// element-wise reverse of bottomUpOrder. This is the phase-2 commit
  /// sequence: callers strictly before callees, and exactly the order in
  /// which callsite sketches have always been pushed into the refinement
  /// accumulators — sketch joins are order-sensitive, so this sequence is
  /// part of the byte-identity contract.
  const std::vector<uint32_t> &topDownOrder() const { return TopDownSeq; }

private:
  std::vector<std::vector<uint32_t>> Callees;
  std::vector<uint32_t> SccId;
  std::vector<std::vector<uint32_t>> Sccs;
  std::vector<uint32_t> BottomUp;
  std::vector<std::vector<uint32_t>> SccSuccs;
  std::vector<std::vector<uint32_t>> SccPreds;
  std::vector<uint32_t> BottomUpSeq;
  std::vector<uint32_t> TopDownSeq;
};

} // namespace retypd

#endif // RETYPD_ANALYSIS_CALLGRAPH_H
