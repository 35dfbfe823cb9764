// Fixture tests for each uvmsim-analyze rule: a minimal in-memory corpus per
// scenario, asserting that the violation is detected, that clean code stays
// clean, and that suppressions and baselines behave per docs/ANALYSIS.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"

namespace ua = uvmsim::analyze;

namespace {

[[nodiscard]] ua::AnalysisResult run(const ua::Corpus& corpus,
                                     std::vector<std::string> rules = {}) {
  ua::AnalysisOptions opts;
  opts.rules = std::move(rules);
  return ua::run_analysis(corpus, opts);
}

[[nodiscard]] std::size_t count_rule(const ua::AnalysisResult& r, std::string_view rule) {
  return static_cast<std::size_t>(std::count_if(
      r.findings.begin(), r.findings.end(),
      [&](const ua::Finding& f) { return f.rule == rule; }));
}

// ---- layering -----------------------------------------------------------

TEST(RuleLayering, ForbiddenEdgeIsReported) {
  ua::Corpus c;
  c.add_file("src/core/uvm_driver.hpp", "struct UvmDriver {};\n");
  c.add_file("src/policy/p.cpp", "#include \"core/uvm_driver.hpp\"\n");
  const ua::AnalysisResult r = run(c, {"layering"});
  ASSERT_EQ(count_rule(r, "layering"), 1u);
  EXPECT_NE(r.findings[0].message.find("policy -> core"), std::string::npos);
  EXPECT_EQ(r.findings[0].file, "src/policy/p.cpp");
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(RuleLayering, AllowedEdgeIsClean) {
  ua::Corpus c;
  c.add_file("src/sim/types.hpp", "using Cycle = unsigned long long;\n");
  c.add_file("src/policy/p.cpp", "#include \"sim/types.hpp\"\n");
  EXPECT_TRUE(run(c, {"layering"}).clean());
}

TEST(RuleLayering, SystemIncludesCarryNoLayeringInfo) {
  ua::Corpus c;
  c.add_file("src/policy/p.cpp", "#include <vector>\n#include <core/fake.hpp>\n");
  EXPECT_TRUE(run(c, {"layering"}).clean());
}

TEST(RuleLayering, UnknownModuleIsReported) {
  ua::Corpus c;
  c.add_file("src/sim/types.hpp", "using Cycle = unsigned long long;\n");
  c.add_file("src/newmod/a.cpp", "#include \"sim/types.hpp\"\n");
  const ua::AnalysisResult r = run(c, {"layering"});
  ASSERT_EQ(count_rule(r, "layering"), 1u);
  EXPECT_NE(r.findings[0].message.find("not in the layering table"), std::string::npos);
}

TEST(RuleLayering, ObservedCycleIsReported) {
  // multigpu -> engine is allowed; engine -> multigpu is both a forbidden
  // edge and closes a cycle — the cycle gets its own finding.
  ua::Corpus c;
  c.add_file("src/multigpu/m.hpp", "#include \"core/simulator.hpp\"\n");
  c.add_file("src/core/simulator.hpp", "#include \"multigpu/m.hpp\"\n");
  const ua::AnalysisResult r = run(c, {"layering"});
  EXPECT_GE(count_rule(r, "layering"), 2u);
  EXPECT_TRUE(std::any_of(r.findings.begin(), r.findings.end(), [](const ua::Finding& f) {
    return f.message.find("cyclic") != std::string::npos;
  }));
}

// ---- determinism --------------------------------------------------------

TEST(RuleDeterminism, BareAndStdQualifiedRandAreFlagged) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp", "int f() { return rand(); }\n");
  c.add_file("src/mem/b.cpp", "int g() { return std::rand(); }\n");
  EXPECT_EQ(count_rule(run(c, {"determinism"}), "determinism"), 2u);
}

TEST(RuleDeterminism, CommentsStringsAndForeignQualifiersAreNotFlagged) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp",
             "// rand() is banned\n"
             "const char* doc = \"call rand() never\";\n"
             "int h() { return MyRng::random(); }\n"
             "int strand_count(Strand& s) { return s.rand(); }\n");
  EXPECT_TRUE(run(c, {"determinism"}).clean());
}

TEST(RuleDeterminism, RandomDeviceIsFlaggedAnywhere) {
  ua::Corpus c;
  c.add_file("src/sim/a.cpp", "std::mt19937 rng{std::random_device{}()};\n");
  EXPECT_EQ(count_rule(run(c, {"determinism"}), "determinism"), 1u);
}

TEST(RuleDeterminism, ChronoClockNowIsFlaggedThroughAliases) {
  ua::Corpus c;
  c.add_file("src/obs/t.cpp",
             "using Clock = std::chrono::steady_clock;\n"
             "auto t0 = Clock::now();\n"
             "auto t1 = std::chrono::system_clock::now();\n");
  EXPECT_EQ(count_rule(run(c, {"determinism"}), "determinism"), 2u);
}

TEST(RuleDeterminism, TelemetryWhitelistExemptsTheBatchRunner) {
  ua::Corpus c;
  c.add_file("src/sim/runner.cpp",
             "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(run(c, {"determinism"}).clean());
}

TEST(RuleDeterminism, UnorderedRangeForIsFlagged) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp",
             "std::unordered_map<int, int> m_;\n"
             "void f() { for (const auto& kv : m_) { use(kv); } }\n");
  EXPECT_EQ(count_rule(run(c, {"determinism"}), "determinism"), 1u);
}

TEST(RuleDeterminism, MemberDeclaredInHeaderIsCaughtInCpp) {
  ua::Corpus c;
  c.add_file("src/mem/a.hpp", "struct S { std::unordered_map<int, int> m_; };\n");
  c.add_file("src/mem/a.cpp",
             "void S::f() { for (auto it = m_.begin(); it != m_.end(); ++it) {} }\n");
  EXPECT_EQ(count_rule(run(c, {"determinism"}), "determinism"), 1u);
}

TEST(RuleDeterminism, OrderedMapIterationIsClean) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp",
             "std::map<int, int> m_;\n"
             "void f() { for (const auto& kv : m_) { use(kv); } }\n");
  EXPECT_TRUE(run(c, {"determinism"}).clean());
}

// ---- obs-purity ---------------------------------------------------------

namespace fixtures {

constexpr const char* kDriver =
    "class UvmDriver {\n"
    " public:\n"
    "  void preload_all();\n"
    "  int features() const;\n"
    "  int probe();\n"
    "  int probe() const;\n"
    "};\n";

}  // namespace fixtures

TEST(RuleObsPurity, SinkCallingMutatorIsFlagged) {
  ua::Corpus c;
  c.add_file("src/core/uvm_driver.hpp", fixtures::kDriver);
  c.add_file("src/obs/my_sink.cpp",
             "void record(UvmDriver& d) { d.preload_all(); }\n");
  const ua::AnalysisResult r = run(c, {"obs-purity"});
  ASSERT_EQ(count_rule(r, "obs-purity"), 1u);
  EXPECT_NE(r.findings[0].message.find("preload_all"), std::string::npos);
}

TEST(RuleObsPurity, ConstCallsAndConstOverloadedNamesAreClean) {
  ua::Corpus c;
  c.add_file("src/core/uvm_driver.hpp", fixtures::kDriver);
  // features() is const; probe() has a const overload so the name is
  // ambiguous at token level and deliberately not flagged.
  c.add_file("src/obs/my_sink.cpp",
             "void record(UvmDriver& d) { d.features(); d.probe(); }\n");
  EXPECT_TRUE(run(c, {"obs-purity"}).clean());
}

TEST(RuleObsPurity, TraceSinkImplementationOutsideObsIsCovered) {
  ua::Corpus c;
  c.add_file("src/core/uvm_driver.hpp", fixtures::kDriver);
  c.add_file("src/trace/my_sink.hpp",
             "class Recorder : public TraceSink {\n"
             "  UvmDriver* d_;\n"
             "  void on_fault() { d_->preload_all(); }\n"
             "};\n");
  EXPECT_EQ(count_rule(run(c, {"obs-purity"}), "obs-purity"), 1u);
}

TEST(RuleObsPurity, NonSinkCoreCodeMayMutate) {
  ua::Corpus c;
  c.add_file("src/core/uvm_driver.hpp", fixtures::kDriver);
  c.add_file("src/core/simulator.cpp",
             "void drive(UvmDriver& d) { d.preload_all(); }\n");
  EXPECT_TRUE(run(c, {"obs-purity"}).clean());
}

// ---- check-coverage -----------------------------------------------------

TEST(RuleCheckCoverage, BareAssertAndAbortAreFlaggedOutsideCheck) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp", "void f(bool ok) { assert(ok); if (!ok) std::abort(); }\n");
  EXPECT_EQ(count_rule(run(c, {"check-coverage"}), "check-coverage"), 2u);
}

TEST(RuleCheckCoverage, SrcCheckAndUvmCheckAreExempt) {
  ua::Corpus c;
  c.add_file("src/check/harness.cpp", "void f(bool ok) { assert(ok); abort(); }\n");
  c.add_file("src/mem/b.cpp", "void g(bool ok) { UVM_CHECK(ok, \"context\"); }\n");
  EXPECT_TRUE(run(c, {"check-coverage"}).clean());
}

// ---- registry-hygiene ---------------------------------------------------

namespace fixtures {

constexpr const char* kStats =
    "struct SimStats {\n"
    "  std::uint64_t total_accesses = 0;\n"
    "  Cycle total_cycles = 0;\n"
    "  std::string last_violation;\n"  // non-numeric: outside the schema
    "};\n";

}  // namespace fixtures

TEST(RuleRegistryHygiene, FieldAndEntryDriftIsReportedBothWays) {
  ua::Corpus c;
  c.add_file("src/sim/stats.hpp", fixtures::kStats);
  c.add_file("src/obs/metrics.def",
             "UVMSIM_METRIC(total_accesses, Counter, access, \"doc\")\n"
             "UVMSIM_METRIC(stale_entry, Counter, access, \"doc\")\n");
  const ua::AnalysisResult r = run(c, {"registry-hygiene"});
  ASSERT_EQ(count_rule(r, "registry-hygiene"), 2u);
  EXPECT_TRUE(std::any_of(r.findings.begin(), r.findings.end(), [](const ua::Finding& f) {
    return f.message.find("total_cycles") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(r.findings.begin(), r.findings.end(), [](const ua::Finding& f) {
    return f.message.find("stale_entry") != std::string::npos;
  }));
}

TEST(RuleRegistryHygiene, MatchingRegistryIsClean) {
  ua::Corpus c;
  c.add_file("src/sim/stats.hpp", fixtures::kStats);
  c.add_file("src/obs/metrics.def",
             "UVMSIM_METRIC(total_accesses, Counter, access, \"doc\")\n"
             "UVMSIM_METRIC(total_cycles, Counter, timing, \"doc\")\n");
  EXPECT_TRUE(run(c, {"registry-hygiene"}).clean());
}

TEST(RuleRegistryHygiene, UndocumentedPolicySlugIsReported) {
  ua::Corpus c;
  c.add_file("src/policy/p.cpp", "void reg(R& r) { r.add({\"mypol\", \"doc\", f}); }\n");
  c.extra_files.emplace_back("docs/POLICIES.md", "# Policies\n| `baseline` | ... |\n");
  const ua::AnalysisResult r = run(c, {"registry-hygiene"});
  ASSERT_EQ(count_rule(r, "registry-hygiene"), 1u);
  EXPECT_NE(r.findings[0].message.find("mypol"), std::string::npos);
}

TEST(RuleRegistryHygiene, DocumentedSlugIsClean) {
  ua::Corpus c;
  c.add_file("src/policy/p.cpp", "void reg(R& r) { r.add({\"mypol\", \"doc\", f}); }\n");
  c.extra_files.emplace_back("docs/POLICIES.md", "| `mypol` | ... |\n");
  EXPECT_TRUE(run(c, {"registry-hygiene"}).clean());
}

namespace fixtures {

/// Minimal factory table in the shape of src/workloads/registry.cpp.
constexpr const char* kWorkloadRegistry =
    "const Entry kTable[] = {\n"
    "    {\"foo\", make_foo},\n"
    "    {\"bar\", make_bar},\n"
    "};\n";

}  // namespace fixtures

TEST(RuleRegistryHygiene, UndocumentedWorkloadSlugIsReported) {
  ua::Corpus c;
  c.add_file("src/workloads/registry.cpp", fixtures::kWorkloadRegistry);
  c.extra_files.emplace_back("docs/WORKLOADS.md", "# Workloads\n* `foo` — documented\n");
  const ua::AnalysisResult r = run(c, {"registry-hygiene"});
  ASSERT_EQ(count_rule(r, "registry-hygiene"), 1u);
  EXPECT_NE(r.findings[0].message.find("'bar'"), std::string::npos);
  EXPECT_EQ(r.findings[0].file, "src/workloads/registry.cpp");
}

TEST(RuleRegistryHygiene, FullyDocumentedWorkloadTableIsClean) {
  ua::Corpus c;
  c.add_file("src/workloads/registry.cpp", fixtures::kWorkloadRegistry);
  c.extra_files.emplace_back("docs/WORKLOADS.md", "* `foo` — x\n* `bar` — y\n");
  EXPECT_TRUE(run(c, {"registry-hygiene"}).clean());
}

TEST(RuleRegistryHygiene, MissingWorkloadsDocIsItselfReported) {
  ua::Corpus c;
  c.add_file("src/workloads/registry.cpp", fixtures::kWorkloadRegistry);
  const ua::AnalysisResult r = run(c, {"registry-hygiene"});
  ASSERT_EQ(count_rule(r, "registry-hygiene"), 1u);
  EXPECT_NE(r.findings[0].message.find("docs/WORKLOADS.md"), std::string::npos);
}

TEST(RuleRegistryHygiene, NonFactoryBracesAreNotMistakenForSlugs) {
  // String-comma pairs whose third token is not a make_* factory (dispatch
  // tables, error messages) must not be treated as registered workloads.
  ua::Corpus c;
  c.add_file("src/workloads/registry.cpp",
             "const char* kPair[] = {\"not_a_slug\", other_symbol};\n");
  EXPECT_TRUE(run(c, {"registry-hygiene"}).clean());
}

// ---- suppressions -------------------------------------------------------

TEST(Suppressions, ReasonedAllowOnSameLineSilences) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp",
             "int f() { return rand(); }  // UVMSIM-ALLOW(determinism): fixture reason\n");
  const ua::AnalysisResult r = run(c, {"determinism"});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(Suppressions, ReasonedAllowOnLineAboveSilences) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp",
             "// UVMSIM-ALLOW(determinism): fixture reason\n"
             "int f() { return rand(); }\n");
  const ua::AnalysisResult r = run(c, {"determinism"});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(Suppressions, WrongRuleDoesNotSilence) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp",
             "int f() { return rand(); }  // UVMSIM-ALLOW(layering): wrong rule\n");
  EXPECT_EQ(count_rule(run(c, {"determinism"}), "determinism"), 1u);
}

TEST(Suppressions, ReasonlessAllowIsItsOwnFinding) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp", "int f() { return rand(); }  // UVMSIM-ALLOW(determinism):\n");
  const ua::AnalysisResult r = run(c, {"determinism"});
  EXPECT_EQ(count_rule(r, "determinism"), 1u);  // not silenced
  EXPECT_EQ(count_rule(r, "suppression"), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(Suppressions, UnknownRuleAllowIsReported) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp", "int x;  // UVMSIM-ALLOW(no-such-rule): reason\n");
  const ua::AnalysisResult r = run(c);
  EXPECT_EQ(count_rule(r, "suppression"), 1u);
}

// ---- baseline -----------------------------------------------------------

TEST(Baseline, RoundTripNeutralizesKnownFindings) {
  ua::Corpus c;
  c.add_file("src/mem/a.cpp", "int f() { return rand(); }\n");

  const ua::AnalysisResult first = run(c, {"determinism"});
  ASSERT_EQ(first.findings.size(), 1u);

  std::stringstream ss;
  ua::write_baseline(ss, first.findings);

  ua::AnalysisOptions opts;
  opts.rules = {"determinism"};
  opts.baseline = ua::load_baseline(ss);
  const ua::AnalysisResult second = ua::run_analysis(c, opts);
  EXPECT_TRUE(second.findings.empty());
  ASSERT_EQ(second.baselined.size(), 1u);
  EXPECT_EQ(second.baselined[0].fingerprint(), first.findings[0].fingerprint());
  EXPECT_EQ(second.exit_code(), 0);
}

TEST(Baseline, FingerprintIsLineNumberFree) {
  // Shifting the violation down a line must not invalidate the baseline.
  ua::Corpus c1;
  c1.add_file("src/mem/a.cpp", "int f() { return rand(); }\n");
  ua::Corpus c2;
  c2.add_file("src/mem/a.cpp", "\n\nint f() { return rand(); }\n");
  const ua::AnalysisResult r1 = run(c1, {"determinism"});
  const ua::AnalysisResult r2 = run(c2, {"determinism"});
  ASSERT_EQ(r1.findings.size(), 1u);
  ASSERT_EQ(r2.findings.size(), 1u);
  EXPECT_EQ(r1.findings[0].fingerprint(), r2.findings[0].fingerprint());
  EXPECT_NE(r1.findings[0].line, r2.findings[0].line);
}

TEST(Baseline, LoaderSkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\nrule|file|message\n");
  const std::vector<std::string> lines = ua::load_baseline(ss);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "rule|file|message");
}

// ---- report plumbing ----------------------------------------------------

TEST(Reports, FindingsAreStableSorted) {
  ua::Corpus c;
  c.add_file("src/mem/b.cpp", "int f() { return rand(); }\n");
  c.add_file("src/mem/a.cpp", "int g() { return rand(); }\nint h() { return srand(0); }\n");
  const ua::AnalysisResult r = run(c, {"determinism"});
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].file, "src/mem/a.cpp");
  EXPECT_EQ(r.findings[1].file, "src/mem/a.cpp");
  EXPECT_LT(r.findings[0].line, r.findings[1].line);
  EXPECT_EQ(r.findings[2].file, "src/mem/b.cpp");
}

TEST(Reports, UnknownRuleSelectionThrows) {
  const ua::Corpus c;
  ua::AnalysisOptions opts;
  opts.rules = {"no-such-rule"};
  EXPECT_THROW((void)ua::run_analysis(c, opts), std::invalid_argument);
}

}  // namespace
