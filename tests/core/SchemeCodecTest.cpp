//===- SchemeCodecTest.cpp - Binary scheme codec property tests ---------------===//
//
// The codec contract, property-tested over random schemes:
//
//  1. encode/decode round-trips EXACTLY (rendered text, internal constraint
//     order, existential order) and agrees semantically with the legacy
//     text serialization it replaced.
//  2. Decoding is total over corrupt inputs: truncations and byte flips
//     either decode to some valid scheme or return nullopt — never crash,
//     never read out of bounds (format v3's fuzz-ish rejection coverage).
//  3. Structural hashes are order- and symbol-table-independent, and the
//     canonical structural order is a pure function of set content.
//
//===----------------------------------------------------------------------===//

#include "core/SchemeCodec.h"

#include "lattice/Lattice.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace retypd;

namespace {

/// Deterministic random scheme generator. Draws names from a small pool
/// (to force sharing in the payload name table) and words from the full
/// label alphabet.
class RandomSchemeGen {
public:
  RandomSchemeGen(uint32_t Seed, SymbolTable &Syms, const Lattice &Lat)
      : Rng(Seed), Syms(Syms), Lat(Lat) {}

  TypeScheme scheme() {
    TypeScheme S;
    std::string Proc = "proc" + std::to_string(Rng() % 8);
    S.ProcVar = TypeVariable::var(Syms.intern(Proc));
    unsigned NExist = Rng() % 4;
    for (unsigned I = 0; I < NExist; ++I)
      S.Existentials.push_back(TypeVariable::var(
          Syms.intern("τ$" + Proc + "$" + std::to_string(I))));
    unsigned NSubs = 1 + Rng() % 12;
    for (unsigned I = 0; I < NSubs; ++I)
      S.Constraints.addSubtype(dtv(), dtv());
    unsigned NVars = Rng() % 6;
    for (unsigned I = 0; I < NVars; ++I)
      S.Constraints.addVar(dtv());
    unsigned NAdds = Rng() % 4;
    for (unsigned I = 0; I < NAdds; ++I) {
      AddSubConstraint C;
      C.IsSub = Rng() % 2 != 0;
      C.X = dtv();
      C.Y = dtv();
      C.Z = dtv();
      S.Constraints.addAddSub(C);
    }
    S.Constraints = S.Constraints.canonicalized(Syms, Lat);
    return S;
  }

  DerivedTypeVariable dtv() {
    TypeVariable Base;
    switch (Rng() % 4) {
    case 0:
      Base = TypeVariable::constant(Rng() % 2 == 0 ? Lattice::Top
                                                   : *Lat.lookup("int"));
      break;
    default:
      Base = TypeVariable::var(
          Syms.intern("v" + std::to_string(Rng() % 10)));
      break;
    }
    std::vector<Label> Word;
    unsigned Len = Rng() % 4;
    for (unsigned I = 0; I < Len; ++I) {
      switch (Rng() % 5) {
      case 0:
        Word.push_back(Label::in(Rng() % 4));
        break;
      case 1:
        Word.push_back(Label::out(Rng() % 2));
        break;
      case 2:
        Word.push_back(Label::load());
        break;
      case 3:
        Word.push_back(Label::store());
        break;
      default:
        Word.push_back(Label::field(8 << (Rng() % 3),
                                    static_cast<int32_t>(Rng() % 64) - 8));
        break;
      }
    }
    return DerivedTypeVariable(Base, std::move(Word));
  }

  std::mt19937 Rng;
  SymbolTable &Syms;
  const Lattice &Lat;
};

class SchemeCodecTest : public ::testing::Test {
protected:
  SchemeCodecTest() : Lat(makeDefaultLattice()) {}
  SymbolTable Syms;
  Lattice Lat;
};

} // namespace

TEST_F(SchemeCodecTest, RoundTripIsExactOverRandomSchemes) {
  for (uint32_t Seed = 0; Seed < 50; ++Seed) {
    RandomSchemeGen Gen(Seed, Syms, Lat);
    TypeScheme S = Gen.scheme();
    std::string Payload = encodeScheme(S, Syms, Lat);

    // Decode into the SAME table: bit-exact reproduction.
    auto Back = decodeScheme(Payload, Syms, Lat);
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    EXPECT_EQ(Back->ProcVar, S.ProcVar) << "seed " << Seed;
    EXPECT_EQ(Back->Existentials, S.Existentials) << "seed " << Seed;
    EXPECT_EQ(Back->Constraints.subtypes(), S.Constraints.subtypes());
    EXPECT_EQ(Back->Constraints.vars(), S.Constraints.vars());
    EXPECT_EQ(Back->str(Syms, Lat), S.str(Syms, Lat)) << "seed " << Seed;

    // Decode into a FRESH table: same rendered report (ids are free to
    // differ; names must not).
    SymbolTable Fresh;
    auto Ported = decodeScheme(Payload, Fresh, Lat);
    ASSERT_TRUE(Ported.has_value()) << "seed " << Seed;
    EXPECT_EQ(Ported->str(Fresh, Lat), S.str(Syms, Lat)) << "seed " << Seed;

    // Determinism: identical schemes encode to identical bytes.
    EXPECT_EQ(Payload, encodeScheme(*Back, Syms, Lat)) << "seed " << Seed;
  }
}

TEST_F(SchemeCodecTest, AgreesWithLegacyTextSerialization) {
  // The binary codec replaced the line-oriented text format; prove they
  // describe the same scheme: text-round-trip and binary-round-trip of
  // the same scheme render identically.
  for (uint32_t Seed = 100; Seed < 140; ++Seed) {
    RandomSchemeGen Gen(Seed, Syms, Lat);
    TypeScheme S = Gen.scheme();

    std::string Text = serializeSchemeText(S, Syms, Lat);
    auto FromText = parseSchemeText(Text, Syms, Lat);
    ASSERT_TRUE(FromText.has_value()) << "seed " << Seed;

    auto FromBinary = decodeScheme(encodeScheme(S, Syms, Lat), Syms, Lat);
    ASSERT_TRUE(FromBinary.has_value()) << "seed " << Seed;

    EXPECT_EQ(FromBinary->str(Syms, Lat), FromText->str(Syms, Lat))
        << "seed " << Seed;
  }
}

TEST_F(SchemeCodecTest, RejectsTruncationsWithoutCrashing) {
  RandomSchemeGen Gen(7, Syms, Lat);
  TypeScheme S = Gen.scheme();
  std::string Payload = encodeScheme(S, Syms, Lat);
  ASSERT_GT(Payload.size(), 4u);
  // Every proper prefix must be rejected (the format has no valid proper
  // prefixes: trailing truncation always clips a counted field).
  for (size_t Len = 0; Len < Payload.size(); ++Len) {
    auto R = decodeScheme(std::string_view(Payload).substr(0, Len), Syms, Lat);
    EXPECT_FALSE(R.has_value()) << "prefix length " << Len;
  }
  // Trailing garbage is corruption too.
  EXPECT_FALSE(decodeScheme(Payload + "x", Syms, Lat).has_value());
}

TEST_F(SchemeCodecTest, SurvivesByteFlipFuzzing) {
  // Flip every byte through several values; decode must never crash and
  // never mis-render: either nullopt or a well-formed scheme.
  RandomSchemeGen Gen(11, Syms, Lat);
  TypeScheme S = Gen.scheme();
  std::string Payload = encodeScheme(S, Syms, Lat);
  size_t Accepted = 0, Rejected = 0;
  for (size_t Pos = 0; Pos < Payload.size(); ++Pos) {
    for (uint8_t Delta : {1, 0x7f, 0x80, 0xff}) {
      std::string Mut = Payload;
      Mut[Pos] = static_cast<char>(static_cast<uint8_t>(Mut[Pos]) ^ Delta);
      auto R = decodeScheme(Mut, Syms, Lat);
      if (R.has_value()) {
        ++Accepted;
        // Whatever decoded must re-encode (i.e. be internally coherent).
        EXPECT_FALSE(encodeScheme(*R, Syms, Lat).empty());
      } else {
        ++Rejected;
      }
    }
  }
  // Plenty of flips must be caught (out-of-range indices, bad label kinds,
  // clipped counts); some — e.g. inside name bytes — legitimately decode
  // to a different valid scheme.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted + Rejected, 4 * Payload.size() - 1);
}

TEST_F(SchemeCodecTest, RejectsWrongPayloadVersion) {
  RandomSchemeGen Gen(3, Syms, Lat);
  std::string Payload = encodeScheme(Gen.scheme(), Syms, Lat);
  ASSERT_EQ(static_cast<unsigned>(Payload[0]), kSchemePayloadVersion);
  Payload[0] = static_cast<char>(kSchemePayloadVersion + 1);
  EXPECT_FALSE(decodeScheme(Payload, Syms, Lat).has_value());
  EXPECT_FALSE(decodeScheme("", Syms, Lat).has_value());
}

TEST_F(SchemeCodecTest, RejectsUnknownLatticeConstants) {
  // A payload referencing a lattice constant the current lattice does not
  // know is corrupt relative to this session — reject, do not guess.
  TypeScheme S;
  S.ProcVar = TypeVariable::var(Syms.intern("F"));
  S.Constraints.addSubtype(
      DerivedTypeVariable(TypeVariable::var(Syms.intern("x"))),
      DerivedTypeVariable(TypeVariable::constant(*Lat.lookup("int"))));
  std::string Payload = encodeScheme(S, Syms, Lat);

  LatticeBuilder B;
  B.add("unrelated", Lattice::Top);
  Lattice Tiny;
  std::string Err;
  ASSERT_TRUE(B.build(Tiny, Err)) << Err;
  SymbolTable Fresh;
  EXPECT_FALSE(decodeScheme(Payload, Fresh, Tiny).has_value());
}

TEST_F(SchemeCodecTest, StructuralHashIsOrderAndTableIndependent) {
  ConstraintSet A, B;
  auto V = [&](const char *N) {
    return DerivedTypeVariable(TypeVariable::var(Syms.intern(N)));
  };
  A.addSubtype(V("a"), V("b"));
  A.addSubtype(V("c"), V("d"));
  B.addSubtype(V("c"), V("d"));
  B.addSubtype(V("a"), V("b"));
  EXPECT_EQ(constraintSetHash(A, Syms, Lat), constraintSetHash(B, Syms, Lat));

  // Same structure built over a table with shifted ids: same hash.
  SymbolTable Other;
  for (int I = 0; I < 37; ++I)
    Other.intern("pad" + std::to_string(I));
  ConstraintSet C;
  auto W = [&](const char *N) {
    return DerivedTypeVariable(TypeVariable::var(Other.intern(N)));
  };
  C.addSubtype(W("a"), W("b"));
  C.addSubtype(W("c"), W("d"));
  EXPECT_EQ(constraintSetHash(A, Syms, Lat),
            constraintSetHash(C, Other, Lat));

  // Different structure: different hash.
  ConstraintSet D;
  D.addSubtype(V("a"), V("b"));
  EXPECT_NE(constraintSetHash(A, Syms, Lat), constraintSetHash(D, Syms, Lat));

  // Canonical order is content-determined: both insertion orders
  // canonicalize to the same sequence.
  ConstraintSet CanonA = A.canonicalized(Syms, Lat);
  ConstraintSet CanonB = B.canonicalized(Syms, Lat);
  EXPECT_EQ(CanonA.subtypes(), CanonB.subtypes());
  // Idempotent: canonicalizing a canonical set is the identity.
  EXPECT_EQ(CanonA.canonicalized(Syms, Lat).subtypes(), CanonA.subtypes());
}

TEST_F(SchemeCodecTest, SchemeHashCoversAllParts) {
  RandomSchemeGen Gen(21, Syms, Lat);
  TypeScheme S = Gen.scheme();
  Hash128 H0 = schemeStructuralHash(S, Syms, Lat);

  TypeScheme Renamed = S;
  Renamed.ProcVar = TypeVariable::var(Syms.intern("someOtherProc"));
  EXPECT_NE(schemeStructuralHash(Renamed, Syms, Lat), H0);

  TypeScheme MoreExist = S;
  MoreExist.Existentials.push_back(TypeVariable::var(Syms.intern("τ$x$99")));
  EXPECT_NE(schemeStructuralHash(MoreExist, Syms, Lat), H0);

  TypeScheme MoreCons = S;
  MoreCons.Constraints.addVar(
      DerivedTypeVariable(TypeVariable::var(Syms.intern("fresh_var"))));
  EXPECT_NE(schemeStructuralHash(MoreCons, Syms, Lat), H0);
}

TEST_F(SchemeCodecTest, GenResultRoundTripIsExact) {
  for (uint32_t Seed = 200; Seed < 230; ++Seed) {
    RandomSchemeGen Gen(Seed, Syms, Lat);
    // A generation result's constraint set is stored canonical, exactly
    // like the random scheme generator produces.
    ConstraintSet C = Gen.scheme().Constraints;
    Hash128 SetHash = canonicalSetHash(C, Syms, Lat);
    std::vector<TypeVariable> Interesting{
        TypeVariable::var(Syms.intern("g!zeta")),
        TypeVariable::var(Syms.intern("g!alpha"))};
    std::vector<TypeVariable> Callsites{
        TypeVariable::var(Syms.intern("f!callee@9")),
        TypeVariable::var(Syms.intern("f!callee@3"))};
    std::string Payload =
        encodeGenResult(C, SetHash, Interesting, Callsites, Syms, Lat);

    // Interesting arrives unordered from an unordered_set: any input
    // permutation must encode to identical bytes.
    std::vector<TypeVariable> Reversed(Interesting.rbegin(),
                                       Interesting.rend());
    EXPECT_EQ(Payload,
              encodeGenResult(C, SetHash, Reversed, Callsites, Syms, Lat))
        << "seed " << Seed;

    // Decode into the SAME table: bit-exact set, order included.
    auto Back = decodeGenResult(Payload, Syms, Lat);
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    EXPECT_EQ(Back->SetHash, SetHash) << "seed " << Seed;
    EXPECT_EQ(Back->C.subtypes(), C.subtypes()) << "seed " << Seed;
    EXPECT_EQ(Back->C.vars(), C.vars()) << "seed " << Seed;
    EXPECT_EQ(Back->C.str(Syms, Lat), C.str(Syms, Lat)) << "seed " << Seed;
    ASSERT_EQ(Back->Interesting.size(), 2u);
    EXPECT_EQ(Syms.name(Back->Interesting[0].symbol()), "g!alpha");
    EXPECT_EQ(Syms.name(Back->Interesting[1].symbol()), "g!zeta");
    // Callsite order (generation order) is preserved verbatim.
    ASSERT_EQ(Back->Callsites.size(), 2u);
    EXPECT_EQ(Syms.name(Back->Callsites[0].symbol()), "f!callee@9");
    EXPECT_EQ(Syms.name(Back->Callsites[1].symbol()), "f!callee@3");

    // Decode into a FRESH table: same rendered set, callsite names
    // interned (the whole reason the payload carries them).
    SymbolTable Fresh;
    auto Ported = decodeGenResult(Payload, Fresh, Lat);
    ASSERT_TRUE(Ported.has_value()) << "seed " << Seed;
    EXPECT_EQ(Ported->C.str(Fresh, Lat), C.str(Syms, Lat)) << "seed " << Seed;
    SymbolId Sym = 0;
    EXPECT_TRUE(Fresh.lookup("f!callee@9", Sym));
  }
}

TEST_F(SchemeCodecTest, GenResultRejectsTruncationsAndTrailingBytes) {
  RandomSchemeGen Gen(13, Syms, Lat);
  ConstraintSet C = Gen.scheme().Constraints;
  std::string Payload = encodeGenResult(C, canonicalSetHash(C, Syms, Lat),
                                        {}, {}, Syms, Lat);
  ASSERT_GT(Payload.size(), 4u);
  for (size_t Len = 0; Len < Payload.size(); ++Len) {
    EXPECT_FALSE(
        decodeGenResult(std::string_view(Payload).substr(0, Len), Syms, Lat)
            .has_value())
        << "prefix length " << Len;
  }
  EXPECT_FALSE(decodeGenResult(Payload + "x", Syms, Lat).has_value());
}

TEST_F(SchemeCodecTest, GenResultSurvivesByteFlipFuzzing) {
  RandomSchemeGen Gen(17, Syms, Lat);
  ConstraintSet C = Gen.scheme().Constraints;
  std::string Payload =
      encodeGenResult(C, canonicalSetHash(C, Syms, Lat),
                      {TypeVariable::var(Syms.intern("g!x"))},
                      {TypeVariable::var(Syms.intern("f!g@1"))}, Syms, Lat);
  size_t Rejected = 0;
  for (size_t Pos = 0; Pos < Payload.size(); ++Pos) {
    for (uint8_t Delta : {1, 0x7f, 0x80, 0xff}) {
      std::string Mut = Payload;
      Mut[Pos] = static_cast<char>(static_cast<uint8_t>(Mut[Pos]) ^ Delta);
      auto R = decodeGenResult(Mut, Syms, Lat);
      if (!R.has_value())
        ++Rejected;
      // Accepted mutations (e.g. flips inside name bytes or the stored
      // hash) must still have produced a coherent value — rendering must
      // not crash.
      else
        EXPECT_FALSE(R->C.size() > 0 && R->C.str(Syms, Lat).empty());
    }
  }
  EXPECT_GT(Rejected, 0u);
}

namespace {

/// Transcodes an inline payload to pool mode, appending each distinct
/// name to \p PoolNames (store flush order: first use assigns the id).
std::string toPoolMode(std::string_view Payload,
                       std::vector<std::string> &PoolNames) {
  auto Pooled = transcodeNamesToPool(Payload, [&](std::string_view N) {
    for (size_t I = 0; I < PoolNames.size(); ++I)
      if (PoolNames[I] == N)
        return static_cast<uint32_t>(I);
    PoolNames.emplace_back(N);
    return static_cast<uint32_t>(PoolNames.size() - 1);
  });
  EXPECT_TRUE(Pooled.has_value());
  return Pooled ? *Pooled : std::string();
}

/// Builds the pool id -> (SymbolId, LatticeElem+1) translation arrays the
/// way SummaryCache::poolBinding does at segment-open.
struct TestBinding {
  std::vector<uint32_t> SymIds, LatElems;
  TestBinding(const std::vector<std::string> &PoolNames, SymbolTable &Syms,
              const Lattice &Lat) {
    for (const std::string &N : PoolNames) {
      SymIds.push_back(Syms.intern(N));
      std::optional<LatticeElem> E = Lat.lookup(N);
      LatElems.push_back(E ? static_cast<uint32_t>(*E) + 1 : 0);
    }
  }
  PoolBindingView view() const {
    PoolBindingView V;
    V.SymIds = SymIds.data();
    V.LatElems = LatElems.data();
    V.Size = SymIds.size();
    return V;
  }
};

} // namespace

TEST_F(SchemeCodecTest, ValidateGatesEveryKindAndEveryTruncation) {
  // validatePayload is the single segment-open gate for all three payload
  // kinds: every encoder output passes, and no proper prefix or extended
  // payload does (sections must exactly tile the length).
  RandomSchemeGen Gen(23, Syms, Lat);
  TypeScheme S = Gen.scheme();
  Sketch Sk;
  std::vector<std::string> Payloads = {
      encodeScheme(S, Syms, Lat),
      encodeGenResult(S.Constraints,
                      canonicalSetHash(S.Constraints, Syms, Lat),
                      {TypeVariable::var(Syms.intern("g!i"))},
                      {TypeVariable::var(Syms.intern("f!c@2"))}, Syms, Lat),
      encodeSketchBundle({{TypeVariable::var(Syms.intern("F")), &Sk}}, Syms,
                         Lat)};
  for (const std::string &P : Payloads) {
    EXPECT_TRUE(validatePayload(P, 0)) << "kind byte "
                                       << static_cast<unsigned>(P[0]);
    for (size_t Len = 0; Len < P.size(); ++Len)
      EXPECT_FALSE(validatePayload(std::string_view(P).substr(0, Len), 0))
          << "prefix length " << Len;
    EXPECT_FALSE(validatePayload(P + "x", 0));
  }
}

TEST_F(SchemeCodecTest, PoolModeRoundTripsAndRejectsOutOfRangePoolIds) {
  for (uint32_t Seed = 300; Seed < 320; ++Seed) {
    RandomSchemeGen Gen(Seed, Syms, Lat);
    TypeScheme S = Gen.scheme();
    std::string Inline = encodeScheme(S, Syms, Lat);
    std::vector<std::string> PoolNames;
    std::string Pooled = toPoolMode(Inline, PoolNames);
    ASSERT_FALSE(Pooled.empty()) << "seed " << Seed;

    // Pool ids range over [0, PoolNames.size()): exactly that size
    // validates; any smaller pool makes some id dangle and must reject.
    EXPECT_TRUE(validatePayload(Pooled, PoolNames.size())) << "seed " << Seed;
    if (!PoolNames.empty()) {
      EXPECT_FALSE(validatePayload(Pooled, PoolNames.size() - 1))
          << "seed " << Seed;
    }
    EXPECT_FALSE(validatePayload(Pooled, 0) && !PoolNames.empty());

    // The untrusted decoder never accepts pool mode (pool-mode payloads
    // only exist inside a store, whose probes run the trusted path).
    EXPECT_FALSE(decodeScheme(Pooled, Syms, Lat).has_value());

    // Trusted decode through the translation table renders identically
    // to the inline payload — in the encoding table and in a fresh one.
    TestBinding B(PoolNames, Syms, Lat);
    PoolBindingView V = B.view();
    auto Back = decodeSchemeTrusted(Pooled, Syms, Lat, &V);
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    EXPECT_EQ(Back->str(Syms, Lat), S.str(Syms, Lat)) << "seed " << Seed;

    SymbolTable Fresh;
    TestBinding FB(PoolNames, Fresh, Lat);
    PoolBindingView FV = FB.view();
    auto Ported = decodeSchemeTrusted(Pooled, Fresh, Lat, &FV);
    ASSERT_TRUE(Ported.has_value()) << "seed " << Seed;
    EXPECT_EQ(Ported->str(Fresh, Lat), S.str(Syms, Lat)) << "seed " << Seed;
  }
}

TEST_F(SchemeCodecTest, PoolModePayloadSurvivesByteFlipFuzzing) {
  // The store's contract: a record only reaches a trusted decoder after
  // validatePayload accepts it against the live pool size. Flip every
  // byte of a pool-mode gen payload: whatever still validates must
  // trusted-decode without crashing or reading out of bounds, and
  // plenty of flips (offsets, counts, pool ids) must be caught.
  RandomSchemeGen Gen(29, Syms, Lat);
  ConstraintSet C = Gen.scheme().Constraints;
  std::string Inline =
      encodeGenResult(C, canonicalSetHash(C, Syms, Lat),
                      {TypeVariable::var(Syms.intern("g!y"))},
                      {TypeVariable::var(Syms.intern("f!h@4"))}, Syms, Lat);
  std::vector<std::string> PoolNames;
  std::string Pooled = toPoolMode(Inline, PoolNames);
  ASSERT_TRUE(validatePayload(Pooled, PoolNames.size()));
  TestBinding B(PoolNames, Syms, Lat);
  PoolBindingView V = B.view();

  size_t Rejected = 0, Accepted = 0;
  for (size_t Pos = 0; Pos < Pooled.size(); ++Pos) {
    for (uint8_t Delta : {1, 0x7f, 0x80, 0xff}) {
      std::string Mut = Pooled;
      Mut[Pos] = static_cast<char>(static_cast<uint8_t>(Mut[Pos]) ^ Delta);
      if (!validatePayload(Mut, PoolNames.size())) {
        ++Rejected;
        continue;
      }
      ++Accepted;
      auto R = decodeGenResultTrusted(Mut, Syms, Lat, &V);
      if (R) {
        EXPECT_FALSE(R->C.size() > 0 && R->C.str(Syms, Lat).empty());
      }
      auto M = decodeGenResultMetaTrusted(Mut, Syms, Lat, &V);
      if (M) {
        EXPECT_LE(M->ConstraintCount, Mut.size());
      }
    }
  }
  EXPECT_GT(Rejected, 0u);
  EXPECT_EQ(Accepted + Rejected, 4 * Pooled.size());

  // Truncations of the pool-mode payload are all caught by validation.
  for (size_t Len = 0; Len < Pooled.size(); ++Len)
    EXPECT_FALSE(validatePayload(std::string_view(Pooled).substr(0, Len),
                                 PoolNames.size()))
        << "prefix length " << Len;
}

TEST_F(SchemeCodecTest, PayloadKindsAreMutuallyUnmistakable) {
  // The three payload kinds carry distinct first bytes: decoding one kind
  // as another must reject cleanly, never mis-materialize.
  RandomSchemeGen Gen(19, Syms, Lat);
  TypeScheme S = Gen.scheme();
  std::string SchemePayload = encodeScheme(S, Syms, Lat);
  std::string GenPayload =
      encodeGenResult(S.Constraints,
                      canonicalSetHash(S.Constraints, Syms, Lat), {}, {},
                      Syms, Lat);
  Sketch Sk;
  std::string BundlePayload = encodeSketchBundle(
      {{TypeVariable::var(Syms.intern("F")), &Sk}}, Syms, Lat);

  EXPECT_FALSE(decodeGenResult(SchemePayload, Syms, Lat).has_value());
  EXPECT_FALSE(decodeGenResult(BundlePayload, Syms, Lat).has_value());
  EXPECT_FALSE(decodeScheme(GenPayload, Syms, Lat).has_value());
  EXPECT_FALSE(decodeScheme(BundlePayload, Syms, Lat).has_value());
  EXPECT_FALSE(decodeSketchBundle(GenPayload, Syms, Lat).has_value());
  EXPECT_FALSE(decodeSketchBundle(SchemePayload, Syms, Lat).has_value());
}
