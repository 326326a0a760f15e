//===- CliTest.cpp - retypd-cli subcommand behavior ---------------------------===//
//
// Drives the installed retypd-cli binary (path injected by CMake as
// RETYPD_CLI_PATH) through its subcommand surface: unknown-option
// rejection with "did you mean" hints and exit code 2, reanalyze's
// byte-identity with a fresh analyze, JSON output, and the cache
// inspect/prune verbs.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace fs = std::filesystem;

namespace {

struct CmdResult {
  int Exit = -1;
  std::string Out; ///< stdout + stderr, interleaved
};

/// Runs the CLI with \p Args, capturing combined output and the exit code.
CmdResult runCli(const std::string &Args) {
  CmdResult R;
  std::string Cmd = std::string(RETYPD_CLI_PATH) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Out.append(Buf, N);
  int Status = pclose(P);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string goldenAsm(const char *Name) {
  return (fs::path(RETYPD_SOURCE_DIR) / "tests" / "frontend" / "golden" /
          Name)
      .string();
}

fs::path writeTemp(const char *Name, const std::string &Content) {
  fs::path P = fs::temp_directory_path() / Name;
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out << Content;
  return P;
}

std::string slurpFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::string S((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  return S;
}

} // namespace

TEST(CliTest, UnknownOptionExitsTwoWithSuggestion) {
  CmdResult R = runCli("--schmes " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("unknown option '--schmes'"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("did you mean '--schemes'?"), std::string::npos)
      << R.Out;

  // Subcommand spelling gets the same treatment.
  R = runCli("analyze --jbos 2 " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("did you mean '--jobs'?"), std::string::npos) << R.Out;
}

TEST(CliTest, UnknownCommandSuggestion) {
  CmdResult R = runCli("analize " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("did you mean 'analyze'?"), std::string::npos) << R.Out;
}

TEST(CliTest, LegacyInvocationStillMeansAnalyze) {
  CmdResult Legacy = runCli("--schemes " + goldenAsm("list_traverse.asm"));
  CmdResult Sub = runCli("analyze --schemes " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Legacy.Exit, 0);
  EXPECT_EQ(Legacy.Out, Sub.Out);
}

TEST(CliTest, ReanalyzeIsByteIdenticalToFreshAnalyze) {
  // base + edited pair: the edited module appends a function and rewires
  // nothing else; reanalyze(base, edited) must print exactly what
  // analyze(edited) prints.
  std::string Base = slurpFile(goldenAsm("list_traverse.asm"));
  std::string Edited =
      Base + "\nfn extra_leaf:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  fs::path BaseP = writeTemp("cli_base.asm", Base);
  fs::path EditedP = writeTemp("cli_edited.asm", Edited);

  for (const char *Flags : {"", "--schemes --sketches", "--jobs 4"}) {
    CmdResult Fresh = runCli(std::string("analyze ") + Flags + " " +
                             EditedP.string());
    CmdResult Re = runCli(std::string("reanalyze ") + Flags + " " +
                          BaseP.string() + " " + EditedP.string());
    EXPECT_EQ(Fresh.Exit, 0) << Fresh.Out;
    EXPECT_EQ(Re.Exit, 0) << Re.Out;
    EXPECT_EQ(Fresh.Out, Re.Out) << "flags: " << Flags;
  }
  fs::remove(BaseP);
  fs::remove(EditedP);
}

TEST(CliTest, ReanalyzeStatsShowIncrementalReuse) {
  std::string Base = slurpFile(goldenAsm("list_traverse.asm"));
  std::string Edited =
      Base + "\nfn extra_leaf:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  fs::path BaseP = writeTemp("cli_base2.asm", Base);
  fs::path EditedP = writeTemp("cli_edited2.asm", Edited);

  CmdResult R = runCli("reanalyze --stats " + BaseP.string() + " " +
                       EditedP.string());
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("incremental: yes"), std::string::npos) << R.Out;
  // The unchanged functions' SCCs must be reused, not re-simplified.
  EXPECT_NE(R.Out.find("sccs_reused=2"), std::string::npos) << R.Out;
  fs::remove(BaseP);
  fs::remove(EditedP);
}

TEST(CliTest, JsonFormat) {
  CmdResult R = runCli("analyze --format=json --schemes " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("\"schema\": \"retypd-report-v1\""), std::string::npos);
  EXPECT_NE(R.Out.find("\"prototype\": "), std::string::npos);
  EXPECT_NE(R.Out.find("\"scheme\": "), std::string::npos);
  // Externals are reported with a structured status instead of "<no type>".
  EXPECT_NE(R.Out.find("\"status\": \"no-type-inferred\""), std::string::npos);
  EXPECT_EQ(R.Out.find("\"stats\""), std::string::npos) << "stats without flag";

  R = runCli("analyze --format=json --stats " + goldenAsm("list_traverse.asm"));
  EXPECT_NE(R.Out.find("\"stats\": {"), std::string::npos);
  EXPECT_NE(R.Out.find("\"sccs_simplified\""), std::string::npos);

  R = runCli("analyze --format=yaml " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
}

TEST(CliTest, StatsCarrySchemaVersionAndRegionSeconds) {
  // Stats JSON renders every timed region from the metrics table; the four
  // classic phase keys keep their names.
  CmdResult R =
      runCli("analyze --format=json --stats " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"stats\": {\"stats_schema\": 2, "), std::string::npos)
      << R.Out;
  for (const char *Key : {"\"generate_secs\": ", "\"simplify_secs\": ",
                          "\"solve_secs\": ", "\"convert_secs\": "})
    EXPECT_NE(R.Out.find(Key), std::string::npos) << Key << "\n" << R.Out;

  // The text line keeps its exact shape: %n is set only if the whole
  // format, through the closing "*/", matched.
  R = runCli("analyze --stats " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  size_t At = R.Out.find("/* stats: ");
  ASSERT_NE(At, std::string::npos) << R.Out;
  double Secs[4] = {};
  unsigned long long Hits = 0, Misses = 0;
  int End = 0;
  std::sscanf(R.Out.c_str() + At,
              "/* stats: backend=retypd jobs=1 sccs=3 gen=%lfs simplify=%lfs "
              "solve=%lfs convert=%lfs cache_hits=%llu cache_misses=%llu */%n",
              &Secs[0], &Secs[1], &Secs[2], &Secs[3], &Hits, &Misses, &End);
  EXPECT_GT(End, 0) << R.Out;
}

TEST(CliTest, CacheInspectAndPrune) {
  fs::path Cache = fs::temp_directory_path() / "cli_cache.bin";
  fs::remove(Cache);

  CmdResult R = runCli("analyze --summary-cache " + Cache.string() + " " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0);

  R = runCli("cache inspect " + Cache.string());
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("header: ok (v3 schema 3)"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("codec: binary scheme payload v3"), std::string::npos)
      << R.Out;
  // Per-shard entry counts are part of the report.
  EXPECT_NE(R.Out.find("shard entries: 0:"), std::string::npos) << R.Out;

  R = runCli("cache prune " + Cache.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("0 remain"), std::string::npos) << R.Out;

  // Stale-but-recognized formats (the textual v2 of earlier builds, the
  // unversioned v1) get an actionable message, not a generic failure.
  fs::path StaleV2 = writeTemp("cli_stale_cache_v2.bin",
                               "retypd-summary-cache v2 schema 1\n"
                               "entry 00000000000000000000000000000000 2\n"
                               "xx\n");
  R = runCli("cache inspect " + StaleV2.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;
  R = runCli("cache prune " + StaleV2.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;

  fs::path Stale = writeTemp("cli_stale_cache.bin",
                             "retypd-summary-cache-v1\nentry junk\n");
  R = runCli("cache inspect " + Stale.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;

  // A file that is not a cache at all stays a plain unrecognized-header
  // error.
  fs::path NotACache = writeTemp("cli_not_cache.bin", "hello world\n");
  R = runCli("cache inspect " + NotACache.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("unrecognized header"), std::string::npos) << R.Out;

  R = runCli("cache inspct " + Cache.string());
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("did you mean 'inspect'?"), std::string::npos) << R.Out;

  fs::remove(Cache);
  fs::remove(StaleV2);
  fs::remove(Stale);
  fs::remove(NotACache);
}

TEST(CliTest, HelpExitsZero) {
  CmdResult R = runCli("help");
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("reanalyze"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Artifact store (--store DIR, cache verbs on directories)
//===----------------------------------------------------------------------===//

TEST(CliTest, StoreAnalyzeWarmInspectCompact) {
  fs::path Dir = fs::temp_directory_path() / "cli_store";
  fs::remove_all(Dir);

  // Cold run journals; warm run replays from the store, byte-identically
  // to a storeless run.
  CmdResult Cold = runCli("analyze --store " + Dir.string() + " " +
                          goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Cold.Exit, 0) << Cold.Out;
  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Cold.Out, Plain.Out);

  CmdResult Warm = runCli("analyze --store " + Dir.string() +
                          " --stats --format=json " +
                          goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Warm.Exit, 0) << Warm.Out;
  EXPECT_EQ(Warm.Out.find("\"store_hits\": 0,"), std::string::npos)
      << "warm run served nothing from the store: " << Warm.Out;
  EXPECT_NE(Warm.Out.find("\"cache_misses\": 0,"), std::string::npos)
      << Warm.Out;

  // inspect: generation, per-segment record counts, live/dead bytes.
  CmdResult R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("header: ok (v1 schema 3)"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("generation: 1"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("segment seg-000001-000000.rseg: records"),
            std::string::npos)
      << R.Out;

  // compact bumps the generation; the store still warm-serves.
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("compacted to generation 2"), std::string::npos)
      << R.Out;
  Warm = runCli("analyze --store " + Dir.string() + " " +
                goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Warm.Out, Plain.Out);

  // prune on a store directory reuses the --max-bytes contract.
  R = runCli("cache prune " + Dir.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("0 remain"), std::string::npos) << R.Out;

  // compact on a FILE is rejected with guidance.
  fs::path File = writeTemp("cli_store_file.bin", "not a dir");
  R = runCli("cache compact " + File.string());
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("artifact store directory"), std::string::npos)
      << R.Out;
  fs::remove(File);

  // Mutating verbs on a directory with unrelated contents (a mistyped
  // path) refuse without polluting it with a fresh MANIFEST/LOCK/segment.
  fs::path PlainDir = fs::temp_directory_path() / "cli_store_plain_dir";
  fs::remove_all(PlainDir);
  fs::create_directories(PlainDir);
  { std::ofstream Junk(PlainDir / "notes.txt", std::ios::binary); Junk << "x"; }
  for (const char *Verb : {"compact ", "prune --max-bytes 0 "}) {
    R = runCli("cache " + std::string(Verb) + PlainDir.string());
    EXPECT_EQ(R.Exit, 1) << Verb << R.Out;
    EXPECT_NE(R.Out.find("not an artifact store"), std::string::npos)
        << Verb << R.Out;
  }
  size_t Entries = 0;
  for ([[maybe_unused]] const auto &E : fs::directory_iterator(PlainDir))
    ++Entries;
  EXPECT_EQ(Entries, 1u) << "cache verb polluted a plain dir";
  fs::remove_all(PlainDir);
  fs::remove_all(Dir);
}

TEST(CliTest, EmptyOrFreshStoreDirIsCleanZeroState) {
  // An empty directory — the state a `--store` path is in before the
  // first analyze — is a zero-state store for every verb, not an error,
  // and the verbs must leave it empty.
  fs::path Dir = fs::temp_directory_path() / "cli_store_empty_dir";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  CmdResult R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("empty store (not yet initialized)"),
            std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("keys: 0"), std::string::npos) << R.Out;
  R = runCli("cache inspect --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"ok\": true"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"empty\": true"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"keys\": 0"), std::string::npos) << R.Out;
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("nothing to compact"), std::string::npos) << R.Out;
  R = runCli("cache prune " + Dir.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("nothing to prune"), std::string::npos) << R.Out;
  EXPECT_TRUE(fs::is_empty(Dir)) << "zero-state verbs must not create files";

  // A freshly-initialized MANIFEST-only store (generation line written,
  // no segments yet) is a valid empty store: inspect reports zero
  // counts, prune no-ops, and a later analyze appends into it in place.
  fs::path Fresh = fs::temp_directory_path() / "cli_store_fresh";
  fs::remove_all(Fresh);
  fs::create_directories(Fresh);
  {
    std::ofstream M(Fresh / "MANIFEST", std::ios::binary);
    M << "retypd-store v1 schema 3\ngeneration 0\n";
  }
  R = runCli("cache inspect " + Fresh.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("header: ok (v1 schema 3)"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("keys: 0"), std::string::npos) << R.Out;
  R = runCli("cache prune " + Fresh.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("pruned 0 of 0"), std::string::npos) << R.Out;
  R = runCli("analyze --store " + Fresh.string() + " " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  R = runCli("cache inspect " + Fresh.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_EQ(R.Out.find("keys: 0"), std::string::npos)
      << "analyze against a fresh store left it empty: " << R.Out;
  fs::remove_all(Dir);
  fs::remove_all(Fresh);
}

TEST(CliTest, StaleStoreGetsActionableMessageAndAnalyzeRegenerates) {
  fs::path Dir = fs::temp_directory_path() / "cli_stale_store";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  {
    std::ofstream M(Dir / "MANIFEST", std::ios::binary);
    M << "retypd-store v1 schema 1\ngeneration 1\n"
         "segment seg-000001-000000.rseg\n";
    std::ofstream S(Dir / "seg-000001-000000.rseg", std::ios::binary);
    S << "retypd-segment v1 schema 1\n";
  }
  CmdResult R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;
  // compact refuses a stale store the same way...
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;
  // ...and analyze actually does regenerate it.
  R = runCli("analyze --store " + Dir.string() + " " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("header: ok (v1 schema 3)"), std::string::npos)
      << R.Out;
  fs::remove_all(Dir);
}

TEST(CliTest, CrossProcessHammerLeavesStoreCleanAndDecodable) {
  // N real retypd-cli processes append to and read from ONE store
  // directory concurrently (popen starts them all before any pclose
  // reaps). The advisory-lock append protocol must keep the store
  // uncorrupted: it opens clean afterwards, and a warm run over it is
  // byte-identical to a storeless run for every program involved.
  fs::path Dir = fs::temp_directory_path() / "cli_store_hammer";
  fs::remove_all(Dir);

  const char *Programs[] = {"list_traverse.asm", "callbacks.asm",
                            "mutual_rec.asm"};
  std::vector<FILE *> Children;
  for (int Round = 0; Round < 2; ++Round)
    for (const char *Prog : Programs) {
      std::string Cmd = std::string(RETYPD_CLI_PATH) + " analyze --store " +
                        Dir.string() + " " + goldenAsm(Prog) +
                        " > /dev/null 2>&1";
      FILE *P = popen(Cmd.c_str(), "r");
      ASSERT_NE(P, nullptr);
      Children.push_back(P);
    }
  for (FILE *P : Children) {
    int Status = pclose(P);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "hammer child failed";
  }

  // The store opens clean: no corrupt records in any segment.
  CmdResult R = runCli("cache inspect --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  auto Count = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t Pos = R.Out.find(Needle); Pos != std::string::npos;
         Pos = R.Out.find(Needle, Pos + 1))
      ++N;
    return N;
  };
  EXPECT_GT(Count("\"corrupt_records\": "), 0u) << R.Out;
  EXPECT_EQ(Count("\"corrupt_records\": "), Count("\"corrupt_records\": 0"))
      << "hammer corrupted a record: " << R.Out;

  // Every surviving key decodes: warm runs replay each program with zero
  // misses, and the report proper matches the storeless output byte for
  // byte (--stats is omitted from the identity check — its cache counter
  // comment is SUPPOSED to differ between a cached and an uncached run).
  for (const char *Prog : Programs) {
    CmdResult Warm = runCli("analyze --store " + Dir.string() + " " +
                            goldenAsm(Prog));
    CmdResult Plain = runCli("analyze " + goldenAsm(Prog));
    EXPECT_EQ(Warm.Exit, 0) << Warm.Out;
    EXPECT_EQ(Warm.Out, Plain.Out) << Prog;
    CmdResult Stats = runCli("analyze --store " + Dir.string() +
                             " --stats " + goldenAsm(Prog));
    EXPECT_NE(Stats.Out.find("cache_misses=0"), std::string::npos)
        << Prog << ": " << Stats.Out;
  }

  // And compaction folds the duplicate-append debris away.
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Verification surfaces (--verify, module verifier, cache verify)
//===----------------------------------------------------------------------===//

TEST(CliTest, MalformedAsmExitsTwoListingEveryError) {
  // Structurally malformed input must never reach constraint generation:
  // exit 2, and ALL violations are reported, not just the first.
  fs::path Bad = writeTemp("cli_bad_module.asm",
                           "fn f:\n"
                           "  jz end\n"
                           "end:\n"
                           "fn f:\n"
                           "  ret\n");
  CmdResult R = runCli("analyze " + Bad.string());
  EXPECT_EQ(R.Exit, 2) << R.Out;
  EXPECT_NE(R.Out.find("duplicate function name 'f'"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("branch target"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("falls off the end"), std::string::npos) << R.Out;
  // file:line positions come from the parser's line table.
  EXPECT_NE(R.Out.find(Bad.string() + ":2: error:"), std::string::npos)
      << R.Out;
  fs::remove(Bad);
}

TEST(CliTest, VerifyFlagParsesAndRunsCleanOnGoldens) {
  CmdResult R = runCli("analyze --verify=full " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Out, Plain.Out) << "--verify=full changed the report";

  R = runCli("analyze --verify=banana " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("--verify expects off, phase or full"),
            std::string::npos)
      << R.Out;

  R = runCli("reanalyze --verify=phase " + goldenAsm("list_traverse.asm") +
             " " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
}

TEST(CliTest, CacheVerifyCleanAndCorrupt) {
  fs::path Dir = fs::temp_directory_path() / "cli_store_verify";
  fs::remove_all(Dir);

  // Empty dir: vacuously clean, untouched.
  fs::create_directories(Dir);
  CmdResult R = runCli("cache verify " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("empty store"), std::string::npos) << R.Out;
  EXPECT_TRUE(fs::is_empty(Dir)) << "cache verify polluted an empty dir";

  CmdResult Pop = runCli("analyze --store " + Dir.string() + " " +
                         goldenAsm("list_traverse.asm"));
  ASSERT_EQ(Pop.Exit, 0) << Pop.Out;

  R = runCli("cache verify " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find(": clean"), std::string::npos) << R.Out;
  R = runCli("cache verify --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"clean\": true"), std::string::npos) << R.Out;

  // Flip one byte of the segment: nonzero exit naming file+offset+key.
  fs::path Seg;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rseg")
      Seg = E.path();
  ASSERT_FALSE(Seg.empty());
  std::string Bytes = slurpFile(Seg);
  ASSERT_GT(Bytes.size(), 100u);
  Bytes[100] = static_cast<char>(Bytes[100] ^ 0xff);
  {
    std::ofstream Out(Seg, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }
  R = runCli("cache verify " + Dir.string());
  EXPECT_EQ(R.Exit, 1) << R.Out;
  EXPECT_NE(R.Out.find(Seg.filename().string() + ":"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("key "), std::string::npos) << R.Out;
  R = runCli("cache verify --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 1) << R.Out;
  EXPECT_NE(R.Out.find("\"clean\": false"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"offset\": "), std::string::npos) << R.Out;

  // verify on a FILE is rejected with guidance.
  fs::path File = writeTemp("cli_verify_file.bin", "not a dir");
  R = runCli("cache verify " + File.string());
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("artifact store directory"), std::string::npos)
      << R.Out;
  fs::remove(File);
  fs::remove_all(Dir);
}

TEST(CliTest, BackendFlagSelectsAndMisspellingExitsTwo) {
  // --backend=binsub runs end-to-end and the stats line attributes it.
  CmdResult R = runCli("analyze --backend=binsub --stats " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("backend=binsub"), std::string::npos) << R.Out;

  // The default spelled out explicitly is the same as omitting the flag.
  CmdResult Explicit = runCli("analyze --backend=retypd --schemes " +
                              goldenAsm("list_traverse.asm"));
  CmdResult Implicit =
      runCli("analyze --schemes " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Explicit.Exit, 0);
  EXPECT_EQ(Explicit.Out, Implicit.Out);

  // JSON stats carry the backend too.
  R = runCli("analyze --backend=binsub --format=json --stats " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"backend\": \"binsub\""), std::string::npos) << R.Out;

  // An unknown backend must exit 2 with a hint — never fall back silently.
  R = runCli("analyze --backend=binsab " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("--backend expects retypd or binsub, got 'binsab'"),
            std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("did you mean 'binsub'?"), std::string::npos) << R.Out;

  // No-hint spelling still exits 2.
  R = runCli("analyze --backend=zzz " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);

  // reanalyze accepts the flag as well.
  R = runCli("reanalyze --backend=binsub " + goldenAsm("list_traverse.asm") +
             " " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
}

//===----------------------------------------------------------------------===//
// Tracing & profiling (--trace, --profile)
//===----------------------------------------------------------------------===//

TEST(CliTest, TraceWritesChromeJsonWithoutPerturbingTheReport) {
  fs::path TraceFile = fs::temp_directory_path() / "cli_trace.json";
  fs::remove(TraceFile);

  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  CmdResult Traced = runCli("analyze --trace " + TraceFile.string() + " " +
                            goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Traced.Exit, 0) << Traced.Out;
  EXPECT_EQ(Traced.Out, Plain.Out) << "--trace changed the report";

  std::string Json = slurpFile(TraceFile);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  // Per-SCC spans carry the structured args the profiler aggregates.
  EXPECT_NE(Json.find("\"cat\":\"scc\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"backend\":\"retypd\""), std::string::npos);
  EXPECT_NE(Json.find("\"constraints\":"), std::string::npos);

  // --trace=FILE spelling works too, and reanalyze records both runs.
  fs::path TraceFile2 = fs::temp_directory_path() / "cli_trace2.json";
  CmdResult Re = runCli("reanalyze --trace=" + TraceFile2.string() + " " +
                        goldenAsm("list_traverse.asm") + " " +
                        goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Re.Exit, 0) << Re.Out;
  EXPECT_NE(slurpFile(TraceFile2).find("\"traceEvents\""), std::string::npos);

  fs::remove(TraceFile);
  fs::remove(TraceFile2);
}

TEST(CliTest, TraceToUnwritablePathFailsLoudlyBeforeAnalyzing) {
  // An unwritable trace path must be a loud up-front exit 1 — never a
  // full analysis whose recording is then silently dropped.
  CmdResult R = runCli("analyze --trace /nonexistent-dir/trace.json " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 1) << R.Out;
  EXPECT_NE(R.Out.find("cannot write trace file"), std::string::npos)
      << R.Out;
  // Fail-fast: no report was printed.
  EXPECT_EQ(R.Out.find("struct"), std::string::npos) << R.Out;
}

TEST(CliTest, ProfilePrintsTableAndJsonStats) {
  // Text mode: the per-SCC attribution table goes to stderr; the report
  // on stdout stays byte-identical to an unprofiled run.
  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  std::string Cmd = std::string(RETYPD_CLI_PATH) + " analyze --profile " +
                    goldenAsm("list_traverse.asm") + " 2>/dev/null";
  CmdResult StdoutOnly;
  {
    FILE *P = popen(Cmd.c_str(), "r");
    ASSERT_NE(P, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
      StdoutOnly.Out.append(Buf, N);
    int Status = pclose(P);
    StdoutOnly.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }
  EXPECT_EQ(StdoutOnly.Exit, 0);
  EXPECT_EQ(StdoutOnly.Out, Plain.Out) << "--profile changed stdout";

  CmdResult R = runCli("analyze --profile " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("profile: top"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("attributed"), std::string::npos) << R.Out;

  // JSON mode: --profile implies stats and adds the "profile" member with
  // per-SCC attribution fields.
  R = runCli("analyze --profile --format=json " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"stats\": {"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"profile\": ["), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"join_ops\""), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"total_secs\""), std::string::npos) << R.Out;

  // --profile=N caps the table; a bogus N exits 2.
  R = runCli("analyze --profile=1 " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("profile: top 1 of"), std::string::npos) << R.Out;
  R = runCli("analyze --profile=banana " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("--profile expects a non-negative row count"),
            std::string::npos)
      << R.Out;
}

TEST(CliTest, CacheInspectAttributesBackends) {
  // A store fed by both backends is attributed per backend in both the
  // text and JSON renderings of `cache inspect`.
  fs::path Dir = fs::temp_directory_path() / "cli_backend_store";
  fs::remove_all(Dir);
  CmdResult R = runCli("analyze --store " + Dir.string() + " " +
                       goldenAsm("list_traverse.asm"));
  ASSERT_EQ(R.Exit, 0) << R.Out;
  R = runCli("analyze --backend=binsub --store " + Dir.string() + " " +
             goldenAsm("list_traverse.asm"));
  ASSERT_EQ(R.Exit, 0) << R.Out;

  R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("scheme[retypd]="), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("scheme[binsub]="), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("sketches[binsub]="), std::string::npos) << R.Out;

  R = runCli("cache inspect --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"live_kinds\""), std::string::npos) << R.Out;
  fs::remove_all(Dir);
}
