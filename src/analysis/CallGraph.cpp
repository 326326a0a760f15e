//===- CallGraph.cpp - Call graph and SCC condensation ---------------------===//

#include "analysis/CallGraph.h"

#include <algorithm>

using namespace retypd;

CallGraph::CallGraph(const Module &M) {
  size_t N = M.Funcs.size();
  Callees.resize(N);
  for (size_t F = 0; F < N; ++F) {
    for (const Instr &I : M.Funcs[F].Body) {
      if (I.Op != Opcode::Call)
        continue;
      if (I.Target >= N)
        continue; // dangling call from a damaged image
      if (std::find(Callees[F].begin(), Callees[F].end(), I.Target) ==
          Callees[F].end())
        Callees[F].push_back(I.Target);
    }
  }

  // Iterative Tarjan SCC.
  SccId.assign(N, 0xffffffffu);
  std::vector<uint32_t> Index(N, 0xffffffffu), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;

  struct Frame {
    uint32_t Node;
    size_t NextChild;
  };
  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != 0xffffffffu)
      continue;
    std::vector<Frame> Frames{{Root, 0}};
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!Frames.empty()) {
      Frame &Fr = Frames.back();
      if (Fr.NextChild < Callees[Fr.Node].size()) {
        uint32_t Child = Callees[Fr.Node][Fr.NextChild++];
        if (Index[Child] == 0xffffffffu) {
          Index[Child] = Low[Child] = NextIndex++;
          Stack.push_back(Child);
          OnStack[Child] = true;
          Frames.push_back({Child, 0});
        } else if (OnStack[Child]) {
          Low[Fr.Node] = std::min(Low[Fr.Node], Index[Child]);
        }
        continue;
      }
      // Finished this node.
      uint32_t Node = Fr.Node;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Node] = std::min(Low[Frames.back().Node],
                                           Low[Node]);
      if (Low[Node] == Index[Node]) {
        std::vector<uint32_t> Members;
        while (true) {
          uint32_t V = Stack.back();
          Stack.pop_back();
          OnStack[V] = false;
          SccId[V] = static_cast<uint32_t>(Sccs.size());
          Members.push_back(V);
          if (V == Node)
            break;
        }
        Sccs.push_back(std::move(Members));
      }
    }
  }

  // Tarjan emits SCCs in reverse topological order of the condensation —
  // exactly the bottom-up (callee-first) order we need.
  BottomUp.resize(Sccs.size());
  for (uint32_t S = 0; S < Sccs.size(); ++S)
    BottomUp[S] = S;

  // Condensation DAG edges (deduplicated, self-loops dropped).
  SccSuccs.resize(Sccs.size());
  for (uint32_t S = 0; S < Sccs.size(); ++S) {
    for (uint32_t F : Sccs[S])
      for (uint32_t Callee : Callees[F]) {
        uint32_t T = SccId[Callee];
        if (T == S)
          continue;
        if (std::find(SccSuccs[S].begin(), SccSuccs[S].end(), T) ==
            SccSuccs[S].end())
          SccSuccs[S].push_back(T);
      }
  }

  // Reverse condensation edges, deduplicated by construction (SccSuccs
  // already is). Built in ascending SCC order so the adjacency — and with
  // it the order newly-ready SCCs enter the scheduler — is deterministic.
  SccPreds.resize(Sccs.size());
  for (uint32_t S = 0; S < Sccs.size(); ++S)
    for (uint32_t T : SccSuccs[S])
      SccPreds[T].push_back(S);

  // Commit sequences for the readiness scheduler: SCC ids stably sorted
  // by depth (longest callee chain below the SCC), which is a topological
  // order of the condensation in either direction. Walking bottom-up
  // assigns every callee SCC its depth before its callers.
  std::vector<uint32_t> Depth(Sccs.size(), 0);
  for (uint32_t S : BottomUp)
    for (uint32_t T : SccSuccs[S])
      Depth[S] = std::max(Depth[S], Depth[T] + 1);
  BottomUpSeq = BottomUp;
  std::stable_sort(BottomUpSeq.begin(), BottomUpSeq.end(),
                   [&](uint32_t A, uint32_t B) { return Depth[A] < Depth[B]; });
  TopDownSeq = BottomUp;
  std::stable_sort(TopDownSeq.begin(), TopDownSeq.end(),
                   [&](uint32_t A, uint32_t B) { return Depth[A] > Depth[B]; });
}
