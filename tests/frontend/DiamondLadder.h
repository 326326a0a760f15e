//===- DiamondLadder.h - Diamond-ladder call graph for tests ----*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ladder of diamonds: top_i -> {a_i, b_i} -> top_(i-1). Fork/join
/// readiness: each join SCC waits on two callers (phase 2) and the two
/// arms wait on the same callee (phase 1). The leaf d0 carries an
/// additive constraint that each join reaches through both of its arms.
/// While schemes exported every add/sub, linked to the interface or not,
/// each join re-imported two copies of the previous join's set, and
/// per-SCC constraint counts doubled per layer. Schemes now export only
/// anchored add/subs (core/SolverBackend.h), so tests run the ladder 64
/// deep.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_TESTS_FRONTEND_DIAMONDLADDER_H
#define RETYPD_TESTS_FRONTEND_DIAMONDLADDER_H

#include <initializer_list>
#include <string>
#include <string_view>

namespace retypd {

inline std::string diamondAsm(unsigned Layers) {
  std::string Asm = "fn d0:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  // Appended piecewise: GCC 12 reports a false -Wrestrict on
  // `"literal" + std::string` temporaries.
  auto emit = [&Asm](std::initializer_list<std::string_view> Parts) {
    for (std::string_view Part : Parts)
      Asm += Part;
  };
  for (unsigned I = 1; I <= Layers; ++I) {
    const std::string N = std::to_string(I), P = std::to_string(I - 1);
    emit({"fn a", N, ":\n  load eax, [esp+4]\n  push eax\n  call d", P,
          "\n  add esp, 4\n  ret\n"});
    emit({"fn b", N, ":\n  load eax, [esp+4]\n  push eax\n  call d", P,
          "\n  add esp, 4\n  ret\n"});
    emit({"fn d", N, ":\n  push ", N, "\n  call a", N,
          "\n  add esp, 4\n  push ", N, "\n  call b", N,
          "\n  add esp, 4\n  ret\n"});
  }
  return Asm;
}

} // namespace retypd

#endif // RETYPD_TESTS_FRONTEND_DIAMONDLADDER_H
