//===- SimplifierTest.cpp - Type-scheme inference (§5) tests ----------------===//

#include "core/ConstraintParser.h"
#include "core/Simplifier.h"
#include "core/Solver.h"

#include <gtest/gtest.h>

using namespace retypd;

namespace {

class SimplifierTest : public ::testing::Test {
protected:
  SimplifierTest()
      : Lat(makeDefaultLattice()), Parser(Syms, Lat), Simp(Syms, Lat) {}

  ConstraintSet parse(const std::string &Text) {
    auto C = Parser.parse(Text);
    if (!C) {
      ADD_FAILURE() << Parser.error();
      return ConstraintSet();
    }
    return *C;
  }

  TypeVariable var(const std::string &Name) {
    return TypeVariable::var(Syms.intern(Name));
  }

  /// True if the scheme's constraint set (solved again from scratch) still
  /// entails Lhs <= Rhs for DTVs over interesting variables.
  bool schemeDerives(const TypeScheme &S, const std::string &Lhs,
                     const std::string &Rhs) {
    auto L = Parser.parseDtv(Lhs);
    auto R = Parser.parseDtv(Rhs);
    EXPECT_TRUE(L && R) << Parser.error();
    return L && R && schemeDerives(S, *L, *R);
  }
  bool schemeDerives(const TypeScheme &S, const DerivedTypeVariable &L,
                     const DerivedTypeVariable &R) {
    ConstraintGraph G(S.Constraints);
    G.saturate();
    GraphNodeId Ln = G.lookup(L, Variance::Covariant);
    GraphNodeId Rn = G.lookup(R, Variance::Covariant);
    if (Ln == ConstraintGraph::NoNode || Rn == ConstraintGraph::NoNode)
      return false;
    for (GraphNodeId N : G.oneReachableFrom(Ln))
      if (N == Rn)
        return true;
    return false;
  }

  SymbolTable Syms;
  Lattice Lat;
  ConstraintParser Parser;
  Simplifier Simp;
};

} // namespace

TEST_F(SimplifierTest, EliminatesLocalChains) {
  // F.in0 flows through locals a, b into the output: the scheme should
  // relate F.in0 to F.out directly, with no existentials.
  ConstraintSet C = parse(R"(
    F.in0 <= a
    a <= b
    b <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "F.out"));
  EXPECT_TRUE(S.Existentials.empty())
      << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, KeepsConstantBounds) {
  ConstraintSet C = parse(R"(
    F.in0 <= a
    a <= int
    #SuccessZ <= b
    b <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "int"));
  EXPECT_TRUE(schemeDerives(S, "#SuccessZ", "F.out"));
}

TEST_F(SimplifierTest, DropsIrrelevantLocals) {
  // z is local plumbing unconnected to the interface.
  ConstraintSet C = parse(R"(
    F.in0 <= F.out
    z1 <= z2
    z2 <= z1
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(S.Existentials.empty());
  EXPECT_EQ(S.Constraints.subtypes().size(), 1u);
}

TEST_F(SimplifierTest, RecursiveTypeKeepsExistential) {
  // The close_last shape (Figure 2): a loop through a local forces one
  // existential variable carrying a recursive constraint.
  ConstraintSet C = parse(R"(
    F.in0 <= t
    t.load.s32@0 <= t
    t.load.s32@4 <= fd
    fd <= int
    fd <= #FileDescriptor
    #SuccessZ <= r
    r <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  ASSERT_EQ(S.Existentials.size(), 1u) << S.str(Syms, Lat);
  // The recursive loop survives: some τ with τ.load.s32@0 <= τ.
  std::string Text = S.Constraints.str(Syms, Lat);
  EXPECT_NE(Text.find(".load.s32@0 <= τ"), std::string::npos) << Text;
  EXPECT_TRUE(schemeDerives(S, "#SuccessZ", "F.out"));
}

TEST_F(SimplifierTest, PreservesPointerFlowAcrossInterface) {
  // Figure 4 embedded in a procedure: the relation between the two formals
  // mediated by local aliased pointers must survive simplification.
  ConstraintSet C = parse(R"(
    F.in0 <= x
    F.in1 <= q
    q <= p
    x <= q.store
    p.load <= y
    y <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "F.out")) << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, KeepsCapabilitiesOfProcedure) {
  ConstraintSet C = parse(R"(
    F.in0 <= p
    p.load.s32@0 <= r
    r <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  bool SawIn = false;
  for (const DerivedTypeVariable &V : S.Constraints.vars())
    if (V.size() >= 1 && V.labels()[0] == Label::in(0))
      SawIn = true;
  EXPECT_TRUE(SawIn) << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, InterestingVariablesSurvive) {
  // A global g must not be renamed away.
  ConstraintSet C = parse(R"(
    F.in0 <= a
    a <= g
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {var("g")});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "g"));
}

TEST_F(SimplifierTest, SchemePrintsReadably) {
  ConstraintSet C = parse("F.in0 <= F.out\n");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  std::string Text = S.str(Syms, Lat);
  EXPECT_NE(Text.find("forall F"), std::string::npos);
  EXPECT_NE(Text.find("F.in0 <= F.out"), std::string::npos);
}

TEST_F(SimplifierTest, AddSubSurvives) {
  ConstraintSet C = parse(R"(
    F.in0 <= a
    add(a, k; z)
    z <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  ASSERT_EQ(S.Constraints.addSubs().size(), 1u);
  // The kept add is linked to the interface, not a detached copy: its
  // operand is bounded below by F.in0 and its result flows to F.out.
  const AddSubConstraint &AC = S.Constraints.addSubs().front();
  EXPECT_TRUE(schemeDerives(S, *Parser.parseDtv("F.in0"), AC.X))
      << S.str(Syms, Lat);
  EXPECT_TRUE(schemeDerives(S, AC.Z, *Parser.parseDtv("F.out")))
      << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, DetachedAddSubDropped) {
  // `a` meets F only through the lattice constant `int`, which anchors
  // nothing: the add says nothing about F's interface, so neither it nor
  // an existential for its operands reaches the scheme.
  ConstraintSet C = parse(R"(
    F.in0 <= int
    int <= a
    add(a, k; z)
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(S.Constraints.addSubs().empty()) << S.str(Syms, Lat);
  EXPECT_TRUE(S.Existentials.empty()) << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, AnchoredOperandKeepsPointerEvidence) {
  // p is stepped by an add and dereferenced. The load leads nowhere
  // interesting, but it is the pointer evidence callers need to classify
  // the add (Figure 13), so the scheme declares `var τ.load`.
  ConstraintSet C = parse(R"(
    F.in0 <= p
    add(p, k; p)
    p.load <= x
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  ASSERT_EQ(S.Constraints.addSubs().size(), 1u);
  const TypeVariable P = S.Constraints.addSubs().front().X.base();
  EXPECT_NE(P, var("p")) << "operand must be renamed to an existential";
  bool HasLoad = false;
  for (const DerivedTypeVariable &V : S.Constraints.vars())
    HasLoad |= V.base() == P && V.size() == 1 && V.lastLabel() == Label::load();
  EXPECT_TRUE(HasLoad) << S.str(Syms, Lat);
}
