// lhd::lint self-tests: the lexer's lexical-grammar corner cases, one
// positive and one negative fixture per shipped rule (R1–R6), the inline
// suppression and baseline mechanisms, and the registry/doc contract
// (default_rules() ships exactly kAllRuleIds). Fixtures are inline string
// literals run through the same make_file_context/run_rules entry points
// the tools/lhd_lint driver uses.

#include <gtest/gtest.h>

#include <sstream>

#include "lhd/lint/analyzer.hpp"

namespace lint = lhd::lint;

namespace {

struct Src {
  std::string path;
  std::string text;
};

lint::Summary run(const std::vector<Src>& sources,
                  const std::string& baseline_text = {}) {
  lint::RepoContext repo;
  for (const Src& s : sources) {
    repo.files.push_back(lint::make_file_context(s.path, s.text));
  }
  std::istringstream bin(baseline_text);
  return lint::run_rules(repo, lint::default_rules(), lint::parse_baseline(bin));
}

std::vector<lint::Finding> findings_for(const lint::Summary& s,
                                        const std::string& rule) {
  std::vector<lint::Finding> out;
  for (const lint::Finding& f : s.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// ------------------------------------------------------------- lexer ------

TEST(LintLexer, CommentsBecomeSingleTokensAndCodeInThemIsInert) {
  const auto toks = lint::lex(
      "int a; // std::mutex here is prose\n"
      "/* and rand() in a\n   block comment */ int b;\n");
  int comments = 0, idents = 0;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::Comment) ++comments;
    if (t.kind == lint::TokKind::Identifier) ++idents;
  }
  EXPECT_EQ(comments, 2);
  EXPECT_EQ(idents, 4);  // int a int b — no mutex/rand identifiers
  // The block comment is one token starting at line 2; `int b` follows on
  // line 3.
  EXPECT_EQ(toks.back().text, ";");
  EXPECT_EQ(toks.back().line, 3);
}

TEST(LintLexer, StringAndCharLiteralContentsAreNotTokens) {
  const auto toks = lint::lex(
      "const char* s = \"std::mutex \\\" rand()\";\n"
      "char c = '\\'';\n"
      "auto r = R\"xy(time(nullptr) )\" )xy\";\n"
      "auto u = u8\"x\";\n");
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::Identifier) {
      EXPECT_NE(t.text, "mutex");
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "time");
      EXPECT_NE(t.text, "u8");  // prefix glued onto its literal
    }
  }
  int strings = 0;
  for (const auto& t : toks) strings += t.kind == lint::TokKind::String;
  EXPECT_EQ(strings, 3);
}

TEST(LintLexer, DirectiveAndHeaderNameTokens) {
  const auto toks = lint::lex(
      "#pragma once\n"
      "#include \"lhd/core/scan.hpp\"\n"
      "#include <vector>\n"
      "#define FOO bar\n");
  std::vector<std::string> directives, headers;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::Directive) directives.push_back(t.text);
    if (t.kind == lint::TokKind::HeaderName) headers.push_back(t.text);
  }
  EXPECT_EQ(directives,
            (std::vector<std::string>{"pragma", "include", "include",
                                      "define"}));
  EXPECT_EQ(headers, (std::vector<std::string>{"\"lhd/core/scan.hpp\"",
                                               "<vector>"}));
}

TEST(LintLexer, BackslashNewlineSplicesEverywhere) {
  // `ra\<newline>nd` is the single identifier `rand`; a spliced `//`
  // comment swallows the next line.
  const auto toks = lint::lex("ra\\\nnd(); // comment \\\nstill comment\nx;\n");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, lint::TokKind::Identifier);
  EXPECT_EQ(toks[0].text, "rand");
  int idents = 0;
  for (const auto& t : toks) idents += t.kind == lint::TokKind::Identifier;
  EXPECT_EQ(idents, 2);  // rand, x — "still comment" stayed in the comment
}

TEST(LintLexer, ScopeArrowAndNumbersLexAsSingleTokens) {
  const auto toks =
      lint::lex("std::size_t n = 1'000'000; double d = 1.5e-3; p->f();");
  bool scope = false, arrow = false;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::Punct && t.text == "::") scope = true;
    // `->` must be one token: the determinism and decoder-bounds rules
    // dispatch on it to recognize member access.
    if (t.kind == lint::TokKind::Punct && t.text == "->") arrow = true;
    if (t.kind == lint::TokKind::Number) {
      EXPECT_TRUE(t.text == "1'000'000" || t.text == "1.5e-3") << t.text;
    }
  }
  EXPECT_TRUE(scope);
  EXPECT_TRUE(arrow);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].col, 1);
}

TEST(LintLexer, UnterminatedConstructsDoNotLoseFollowingLines) {
  // An unterminated string closes at end of line; the next line still
  // lexes (graceful degradation, not silence).
  const auto toks = lint::lex("const char* s = \"oops\nint после;\nrand();\n");
  bool saw_rand = false;
  for (const auto& t : toks) {
    saw_rand |= t.kind == lint::TokKind::Identifier && t.text == "rand";
  }
  EXPECT_TRUE(saw_rand);
}

// ------------------------------------------------- R1: mutex-guards ------

TEST(LintRuleMutexGuards, PositiveUnannotatedMutexMemberInCoreHeader) {
  const auto s = run({{"src/lhd/core/widget.hpp",
                       "#pragma once\n"
                       "#include \"lhd/util/thread_annotations.hpp\"\n"
                       "class W {\n"
                       "  lhd::Mutex mutex_;\n"
                       "  int unguarded_ = 0;\n"
                       "};\n"}});
  const auto f = findings_for(s, "mutex-guards");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/lhd/core/widget.hpp");
  EXPECT_EQ(f[0].line, 4);
}

TEST(LintRuleMutexGuards, NegativeAnnotatedOrOutOfScope) {
  const auto s = run(
      {// Annotated: compliant.
       {"src/lhd/obs/counter.hpp",
        "#pragma once\n"
        "class C {\n"
        "  mutable Mutex mutex_ LHD_ACQUIRED_BEFORE(other_);\n"
        "  long value_ LHD_GUARDED_BY(mutex_) = 0;\n"
        "};\n"},
       // Prose mention only.
       {"src/lhd/util/notes.hpp",
        "#pragma once\n// a lhd::Mutex member would need LHD_GUARDED_BY\n"},
       // Outside the rule's core/obs/util scope.
       {"src/lhd/nn/cache.hpp",
        "#pragma once\nstruct S { lhd::Mutex m_; };\n"}});
  EXPECT_TRUE(findings_for(s, "mutex-guards").empty());
}

// -------------------------------------------- R2: raw-sync-primitive ------

TEST(LintRuleRawSync, PositiveStdPrimitivesInSrc) {
  const auto s = run({{"src/lhd/data/pool.cpp",
                       "#include <mutex>\n"
                       "std::mutex g_m;\n"
                       "void f() { std::lock_guard<std::mutex> l(g_m); }\n"}});
  // line 2, plus lock_guard and its template argument on line 3.
  EXPECT_EQ(findings_for(s, "raw-sync-primitive").size(), 3u);
}

TEST(LintRuleRawSync, NegativeCommentsStringsShimAndNonSrc) {
  const auto s = run(
      {{"src/lhd/util/thread_annotations.hpp",  // the shim itself is exempt
        "#pragma once\nusing Inner = std::mutex;\n"},
       {"src/lhd/core/scan2.cpp",
        "// std::mutex in prose\nconst char* s = \"std::mutex\";\n"},
       {"tools/lhd_lint/main2.cpp", "std::mutex m;\n"}});  // outside src/lhd
  EXPECT_TRUE(findings_for(s, "raw-sync-primitive").empty());
}

// ------------------------------------------------------ R3: layering ------

TEST(LintRuleLayering, PositiveUpwardAndCrossPeerIncludes) {
  const auto s = run({{"src/lhd/geom/shape.cpp",
                       "#include \"lhd/nn/gemm.hpp\"\n"},       // upward
                      {"src/lhd/ml/svm.cpp",
                       "#include \"lhd/nn/layers.hpp\"\n"},     // peer (rank tie)
                      {"src/lhd/util/misc.cpp",
                       "#include \"lhd/core/scan.hpp\"\n"}});   // upward
  const auto f = findings_for(s, "layering");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].file, "src/lhd/geom/shape.cpp");
  EXPECT_EQ(f[0].line, 1);
}

TEST(LintRuleLayering, NegativeDownwardSameModuleAndSystemIncludes) {
  const auto s = run({{"src/lhd/core/scan2.cpp",
                       "#include \"lhd/nn/gemm.hpp\"\n"      // downward
                       "#include \"lhd/core/detect.hpp\"\n"  // same module
                       "#include <vector>\n"},
                      {"src/lhd/nn/gemm2.cpp",
                       "#include \"lhd/util/check.hpp\"\n"}});
  EXPECT_TRUE(findings_for(s, "layering").empty());
}

TEST(LintRuleLayering, CoreRankSitsBetweenNnAndServe) {
  // Pin the core module's place in the layering order: nn (and below) may
  // not include core, core may not include serve, while core -> nn/util,
  // serve -> core, and testkit -> core are all legal. Findings come back
  // in file insertion order.
  const auto s = run({{"src/lhd/core/scan2.cpp",
                       "#include \"lhd/nn/gemm.hpp\"\n"
                       "#include \"lhd/util/thread_pool.hpp\"\n"},  // legal
                      {"src/lhd/serve/server2.cpp",
                       "#include \"lhd/core/scan.hpp\"\n"},         // legal
                      {"src/lhd/testkit/harness2.cpp",
                       "#include \"lhd/core/detector.hpp\"\n"},     // legal
                      {"src/lhd/core/bad.cpp",
                       "#include \"lhd/serve/server.hpp\"\n"},      // upward
                      {"src/lhd/nn/bad.cpp",
                       "#include \"lhd/core/scan.hpp\"\n"}});       // upward
  const auto f = findings_for(s, "layering");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].file, "src/lhd/core/bad.cpp");
  EXPECT_EQ(f[1].file, "src/lhd/nn/bad.cpp");
}

// --------------------------------------------------- R4: determinism ------

TEST(LintRuleDeterminism, PositiveEntropyAndWallClockInResultModules) {
  const auto s = run({{"src/lhd/core/scan2.cpp",
                       "int f() { return rand(); }\n"},
                      {"src/lhd/nn/init.cpp",
                       "#include <random>\n"
                       "unsigned g() { return std::random_device{}(); }\n"},
                      {"src/lhd/feature/stamp.cpp",
                       "long h() { return time(nullptr); }\n"}});
  EXPECT_EQ(findings_for(s, "determinism").size(), 3u);
}

TEST(LintRuleDeterminism, GdsGeomDataAndMlModulesAreCovered) {
  // The result-bearing modules the positive fixture above leaves out:
  // each one is in the determinism rule's module list.
  const auto s = run({{"src/lhd/gds/pick.cpp", "int a() { return rand(); }\n"},
                      {"src/lhd/geom/pick.cpp", "int b() { return rand(); }\n"},
                      {"src/lhd/data/pick.cpp", "int c() { return rand(); }\n"},
                      {"src/lhd/ml/pick.cpp", "int d() { return rand(); }\n"}});
  EXPECT_EQ(findings_for(s, "determinism").size(), 4u);
}

TEST(LintRuleDeterminism, NegativeMembersPlainWordsAndExemptModules) {
  const auto s = run(
      {// Member access is the object's own API, not libc.
       {"src/lhd/core/report.cpp",
        "double f(const Row& r) { return r.time(); }\n"
        "int g(Row* r) { return r->clock(); }\n"},
       // `time` as a variable (no call) is an everyday word.
       {"src/lhd/data/fields.cpp", "struct T { long time; long clock; };\n"},
       // obs/util own the wall clock (Stopwatch, ScopedTimer).
       {"src/lhd/obs/timer2.cpp",
        "auto t0 = std::chrono::steady_clock::now();\n"},
       // testkit seeding may touch entropy.
       {"src/lhd/testkit/seed.cpp", "unsigned s = std::random_device{}();\n"}});
  EXPECT_TRUE(findings_for(s, "determinism").empty());
}

// ------------------------------------------------ R5: decoder-bounds ------

TEST(LintRuleDecoderBounds, PositiveRawReserveAndResizeInDecoders) {
  const auto s = run({{"src/lhd/gds/reader.cpp",
                       "void f(std::vector<int>& v, unsigned n) {\n"
                       "  v.reserve(n);\n"
                       "}\n"},
                      {"src/lhd/nn/serialize.cpp",
                       "void g(Blob* b, unsigned n) { b->resize(n); }\n"}});
  const auto f = findings_for(s, "decoder-bounds");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].file, "src/lhd/nn/serialize.cpp");
}

TEST(LintRuleDecoderBounds, NegativeBoundedHelpersAndNonDecoderFiles) {
  const auto s = run(
      {{"src/lhd/gds/reader.cpp",
        "#include \"lhd/util/bounded.hpp\"\n"
        "void f(std::vector<int>& v, unsigned n) {\n"
        "  lhd::bounded_reserve(v, n, 4096);\n"
        "  lhd::bounded_resize(v, n, 4096);\n"
        "}\n"},
       // reserve/resize elsewhere is ordinary capacity management.
       {"src/lhd/core/scan2.cpp",
        "void g(std::vector<int>& v) { v.reserve(8); v.resize(8); }\n"}});
  EXPECT_TRUE(findings_for(s, "decoder-bounds").empty());
}

// ----------------------------------------------- R6: header-hygiene ------

TEST(LintRuleHeaderHygiene, PositiveMissingPragmaOnceAndStrayThread) {
  const auto s = run({{"src/lhd/geom/point2.hpp",
                       "// missing the guard\nstruct P { int x; };\n"},
                      {"src/lhd/core/spawn.cpp",
                       "#include <thread>\n"
                       "void f() { std::thread t([]{}); t.join(); }\n"}});
  const auto f = findings_for(s, "header-hygiene");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].file, "src/lhd/core/spawn.cpp");  // sorted by file
  EXPECT_EQ(f[1].line, 1);
}

TEST(LintRuleHeaderHygiene, NegativeGuardedHeaderAndThreadPoolExemption) {
  const auto s = run({{"src/lhd/geom/point2.hpp",
                       "#pragma once\nstruct P { int x; };\n"},
                      {"src/lhd/util/thread_pool.cpp",
                       "#include <thread>\nstd::thread spawn();\n"},
                      // A .cpp needs no include guard.
                      {"src/lhd/geom/point2.cpp", "int x;\n"}});
  EXPECT_TRUE(findings_for(s, "header-hygiene").empty());
}

// ------------------------------------------ suppressions and baseline ------

TEST(LintSuppression, SameLineAndStandaloneCommentMarkers) {
  const auto s = run(
      {{"src/lhd/core/a.cpp",
        "int f() { return rand(); }  // lhd-lint: allow(determinism) seeded upstream\n"},
       {"src/lhd/core/b.cpp",
        "// lhd-lint: allow(determinism) -- replay harness, wall time ok\n"
        "long g() { return time(nullptr); }\n"}});
  EXPECT_TRUE(s.findings.empty());
  EXPECT_EQ(s.suppressed_inline, 2u);
}

TEST(LintSuppression, WrongRuleIdDoesNotSuppress) {
  const auto s = run({{"src/lhd/core/a.cpp",
                       "int f() { return rand(); }  // lhd-lint: allow(layering)\n"}});
  EXPECT_EQ(findings_for(s, "determinism").size(), 1u);
  EXPECT_EQ(s.suppressed_inline, 0u);
}

TEST(LintBaseline, BudgetAbsorbsExactlyTheListedCount) {
  const std::string source =
      "int f() { return rand(); }\n"
      "int g() { return rand(); }\n";
  // Baseline of 1: the first finding (line order) is absorbed, the second
  // still fails — new debt in a baselined file is visible.
  const auto s = run({{"src/lhd/core/a.cpp", source}},
                     "# comment line\n\ndeterminism src/lhd/core/a.cpp 1\n");
  const auto f = findings_for(s, "determinism");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(s.suppressed_baseline, 1u);
  // Count defaults to 1 when omitted.
  std::istringstream bin("determinism src/lhd/core/a.cpp\n");
  EXPECT_EQ(lint::parse_baseline(bin).allowed.at(
                {"determinism", "src/lhd/core/a.cpp"}),
            1);
}

TEST(LintBaseline, RenderRoundTripsThroughParse) {
  const auto s = run({{"src/lhd/core/a.cpp",
                       "int f() { return rand(); }\nint g() { return rand(); }\n"}});
  std::istringstream bin(lint::render_baseline(s));
  const auto parsed = lint::parse_baseline(bin);
  ASSERT_EQ(parsed.allowed.size(), 1u);
  EXPECT_EQ(parsed.allowed.at({"determinism", "src/lhd/core/a.cpp"}), 2);
  // And applying the round-tripped baseline silences everything.
  std::istringstream bin2(lint::render_baseline(s));
  lint::RepoContext repo;
  repo.files.push_back(lint::make_file_context(
      "src/lhd/core/a.cpp",
      "int f() { return rand(); }\nint g() { return rand(); }\n"));
  const auto s2 =
      lint::run_rules(repo, lint::default_rules(), lint::parse_baseline(bin2));
  EXPECT_TRUE(s2.findings.empty());
  EXPECT_EQ(s2.suppressed_baseline, 2u);
}

// --------------------------------------------------- registry / output ----

TEST(LintRegistry, DefaultRulesShipExactlyTheDocumentedIds) {
  const auto rules = lint::default_rules();
  std::vector<std::string> shipped;
  for (const auto& r : rules) {
    shipped.push_back(r->id());
    EXPECT_STRNE(r->description(), "");
  }
  std::vector<std::string> documented(std::begin(lint::kAllRuleIds),
                                      std::end(lint::kAllRuleIds));
  EXPECT_EQ(shipped, documented);
}

TEST(LintOutput, HumanAndJsonCarryFileLineAndRuleId) {
  const auto s = run({{"src/lhd/core/a.cpp", "int f() { return rand(); }\n"}});
  const std::string human = lint::render_human(s);
  EXPECT_NE(human.find("src/lhd/core/a.cpp:1: [determinism]"),
            std::string::npos);
  const std::string json = lint::render_json(s);
  EXPECT_NE(json.find("\"rule\":\"determinism\""), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/lhd/core/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"lhd.lint/1\""), std::string::npos);
}

TEST(LintContext, ModuleAndHeaderDerivation) {
  const auto f = lint::make_file_context("src/lhd/core/scan.hpp", "int x;\n");
  EXPECT_EQ(f.module, "core");
  EXPECT_TRUE(f.is_header);
  const auto g = lint::make_file_context("tools/lhd_lint/main.cpp", "int x;\n");
  EXPECT_EQ(g.module, "");
  EXPECT_FALSE(g.is_header);
}

}  // namespace
