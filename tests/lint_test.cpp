// Fixture suite for the avmon_lint determinism checker: every rule is
// proven live by a known-bad snippet that must trigger, proven quiet by an
// annotated twin that must pass, and the real tree is asserted clean — so
// the tier-1 gate cannot silently stop enforcing a rule.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.hpp"

namespace {

using avmon::lint::Finding;
using avmon::lint::Linter;

std::vector<Finding> lintSnippetAt(const std::string& name,
                                   const std::string& code) {
  Linter linter;
  linter.addSource(name, code);
  return linter.run();
}

std::vector<Finding> lintSnippet(const std::string& code) {
  return lintSnippetAt("snippet.cpp", code);
}

bool hasRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const auto& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

std::string dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += avmon::lint::formatFinding(f) + "\n";
  return out;
}

// The annotation marker, assembled so this file's own comments and string
// literals never read as annotations for the scanner.
std::string allow(const std::string& rule, const std::string& reason) {
  return std::string("// lint:") + "allow(" + rule + ", " + reason + ")";
}

// ---------------------------------------------------------------- unordered

TEST(LintUnorderedIterTest, RangeForOverUnorderedMapTriggers) {
  const auto f = lintSnippet(R"cpp(
    #include <unordered_map>
    void f() {
      std::unordered_map<int, int> m;
      for (const auto& [k, v] : m) { (void)k; (void)v; }
    }
  )cpp");
  EXPECT_TRUE(hasRule(f, "unordered-iter")) << dump(f);
}

TEST(LintUnorderedIterTest, AnnotatedRangeForPasses) {
  const auto f = lintSnippet(
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  " + allow("unordered-iter", "order-insensitive aggregate") + "\n"
      "  for (const auto& [k, v] : m) { (void)k; (void)v; }\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintUnorderedIterTest, BeginIterationTriggers) {
  const auto f = lintSnippet(R"cpp(
    #include <unordered_set>
    #include <vector>
    std::vector<int> f() {
      std::unordered_set<int> s;
      return std::vector<int>(s.begin(), s.end());
    }
  )cpp");
  EXPECT_TRUE(hasRule(f, "unordered-iter")) << dump(f);
}

TEST(LintUnorderedIterTest, AliasDeclarationTriggers) {
  const auto f = lintSnippet(R"cpp(
    #include <unordered_set>
    using CoarseView = std::unordered_set<int>;
    void f() {
      CoarseView cv;
      for (int x : cv) (void)x;
    }
  )cpp");
  EXPECT_TRUE(hasRule(f, "unordered-iter")) << dump(f);
}

TEST(LintUnorderedIterTest, AccessorReturningUnorderedTriggersAcrossFiles) {
  Linter linter;
  linter.addSource("node.hpp", R"cpp(
    #include <unordered_set>
    class Node {
     public:
      const std::unordered_set<int>& pingingSet() const { return ps_; }
     private:
      std::unordered_set<int> ps_;
    };
  )cpp");
  linter.addSource("use.cpp", R"cpp(
    #include "node.hpp"
    int f(const Node& node) {
      int sum = 0;
      for (int x : node.pingingSet()) sum += x;
      return sum;
    }
  )cpp");
  const auto f = linter.run();
  ASSERT_TRUE(hasRule(f, "unordered-iter")) << dump(f);
  // The finding must land in the USING file, not the declaring header.
  for (const auto& finding : f) {
    if (finding.rule == "unordered-iter") {
      EXPECT_EQ(finding.file, "use.cpp");
    }
  }
}

TEST(LintUnorderedIterTest, AutoBoundAccessorResultTriggers) {
  Linter linter;
  linter.addSource("node.hpp", R"cpp(
    #include <unordered_set>
    class Node {
     public:
      const std::unordered_set<int>& pingingSet() const { return ps_; }
     private:
      std::unordered_set<int> ps_;
    };
  )cpp");
  linter.addSource("use.cpp", R"cpp(
    #include "node.hpp"
    #include <vector>
    std::vector<int> f(const Node& node) {
      const auto& ps = node.pingingSet();
      return std::vector<int>(ps.begin(), ps.end());
    }
  )cpp");
  const auto f = linter.run();
  EXPECT_TRUE(hasRule(f, "unordered-iter")) << dump(f);
}

TEST(LintUnorderedIterTest, MemberDeclaredInHeaderTriggersInCpp) {
  Linter linter;
  linter.addSource("state.hpp", R"cpp(
    #include <unordered_map>
    struct State {
      std::unordered_map<int, double> table_;
      void tick();
    };
  )cpp");
  linter.addSource("state.cpp", R"cpp(
    #include "state.hpp"
    void State::tick() {
      for (auto& [k, v] : table_) v += 1.0;
    }
  )cpp");
  const auto f = linter.run();
  EXPECT_TRUE(hasRule(f, "unordered-iter")) << dump(f);
}

TEST(LintUnorderedIterTest, LookupsAndVectorIterationPass) {
  const auto f = lintSnippet(R"cpp(
    #include <unordered_map>
    #include <vector>
    int f() {
      std::unordered_map<int, int> m;
      std::vector<int> v{1, 2, 3};
      int sum = 0;
      for (int x : v) sum += x;             // vector: fine
      if (m.count(1) > 0) sum += m.at(1);   // lookups: fine
      const auto it = m.find(2);
      if (it != m.end()) sum += it->second;
      return sum;
    }
  )cpp");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintUnorderedIterTest, HeaderParameterNameDoesNotLeakIntoIncluders) {
  Linter linter;
  // A header whose function signature names a parameter `ids` must not
  // taint a same-named local vector in a file that includes it.
  linter.addSource("util.hpp", R"cpp(
    #include <unordered_set>
    #include <vector>
    std::vector<int> sorted(const std::unordered_set<int>& ids);
  )cpp");
  linter.addSource("use.cpp", R"cpp(
    #include "util.hpp"
    int f() {
      std::vector<int> ids{3, 1, 2};
      int sum = 0;
      for (int x : ids) sum += x;
      return sum;
    }
  )cpp");
  const auto f = linter.run();
  EXPECT_TRUE(f.empty()) << dump(f);
}

// ------------------------------------------------------------- entropy/time

TEST(LintEntropyTest, RandomDeviceTriggersAndAnnotatedPasses) {
  const auto bad = lintSnippet(R"cpp(
    #include <random>
    unsigned f() { std::random_device rd; return rd(); }
  )cpp");
  EXPECT_TRUE(hasRule(bad, "random-device")) << dump(bad);

  const auto ok = lintSnippet(
      "#include <random>\n"
      "unsigned f() {\n"
      "  " + allow("random-device", "CLI tool seeding only") + "\n"
      "  std::random_device rd;\n"
      "  return rd();\n"
      "}\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

TEST(LintEntropyTest, CRandTriggersAndAnnotatedPasses) {
  const auto bad = lintSnippet(R"cpp(
    #include <cstdlib>
    int f() { std::srand(42); return std::rand(); }
  )cpp");
  EXPECT_TRUE(hasRule(bad, "c-rand")) << dump(bad);

  const auto ok = lintSnippet(
      "#include <cstdlib>\n"
      "int f() {\n"
      "  " + allow("c-rand", "exercising the legacy baseline on purpose") +
      "\n"
      "  return std::rand();\n"
      "}\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

TEST(LintWallClockTest, ChronoClockAndTimeCallTrigger) {
  const auto clock = lintSnippet(R"cpp(
    #include <chrono>
    long f() {
      return std::chrono::steady_clock::now().time_since_epoch().count();
    }
  )cpp");
  EXPECT_TRUE(hasRule(clock, "wall-clock")) << dump(clock);

  const auto ctime = lintSnippet(R"cpp(
    #include <ctime>
    long f() { return static_cast<long>(time(nullptr)); }
  )cpp");
  EXPECT_TRUE(hasRule(ctime, "wall-clock")) << dump(ctime);
}

TEST(LintWallClockTest, MemberNamedTimeAndAnnotationPass) {
  // x.time() is a member call, not the C library clock.
  const auto member = lintSnippet(R"cpp(
    struct Event { long time() const { return t_; } long t_ = 0; };
    long f(const Event& e) { return e.time(); }
  )cpp");
  EXPECT_TRUE(member.empty()) << dump(member);

  // The annotated twin must sit in a sanctioned tree: wall-clock allows
  // are directory-scoped (see LintScopedAllowTest below).
  const auto ok = lintSnippetAt(
      "bench/snippet.cpp",
      "#include <chrono>\n"
      "long f() {\n"
      "  " + allow("wall-clock", "bench harness self-timing only") + "\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

TEST(LintScopedAllowTest, WallClockAllowIsSanctionedInsideTheLiveLane) {
  const std::string code =
      "#include <chrono>\n"
      "long f() {\n"
      "  " + allow("wall-clock", "live lane drives retries off wall time") +
      "\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  for (const char* name :
       {"src/net/wall_clock.hpp", "tools/avmon_node.cpp",
        "tools/avmon_live.cpp", "bench/common.hpp"}) {
    const auto f = lintSnippetAt(name, code);
    EXPECT_TRUE(f.empty()) << name << ":\n" << dump(f);
  }
}

TEST(LintScopedAllowTest, WallClockAllowOutsideTheScopeIsItselfAFinding) {
  const std::string code =
      "#include <chrono>\n"
      "long f() {\n"
      "  " + allow("wall-clock", "a perfectly reasoned excuse") + "\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  // The simulated lane stays wall-clock-free even with a reason attached:
  // the allow still suppresses the wall-clock hit (no silent sites), but
  // the annotation itself reports scoped-allow.
  for (const char* name :
       {"src/sim/simulator.cpp", "src/avmon/node.cpp",
        "src/experiments/scenario.cpp", "tools/avmon_sim.cpp"}) {
    const auto f = lintSnippetAt(name, code);
    EXPECT_FALSE(hasRule(f, "wall-clock")) << name << ":\n" << dump(f);
    EXPECT_TRUE(hasRule(f, "scoped-allow")) << name << ":\n" << dump(f);
  }
}

TEST(LintScopedAllowTest, OtherRulesAreNotDirectoryScoped) {
  // The scope policy is wall-clock-specific: an unordered-iter allow in
  // simulator code stays a plain reasoned suppression.
  const auto f = lintSnippetAt(
      "src/sim/network.cpp",
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  " + allow("unordered-iter", "order-insensitive aggregate") + "\n"
      "  for (const auto& [k, v] : m) { (void)k; (void)v; }\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintScopedAllowTest, StaleWallClockAllowOutsideScopeReportsStaleOnly) {
  // An allow that suppresses nothing is stale, not scope-violating — the
  // scope check applies to annotations that actually fired.
  const auto f = lintSnippetAt(
      "src/sim/simulator.cpp",
      allow("wall-clock", "nothing here reads a clock") + "\nint x;\n");
  EXPECT_TRUE(hasRule(f, "stale-allow")) << dump(f);
  EXPECT_FALSE(hasRule(f, "scoped-allow")) << dump(f);
}

TEST(LintGetenvTest, GetenvTriggersAndAnnotatedPasses) {
  const auto bad = lintSnippet(R"cpp(
    #include <cstdlib>
    const char* f() { return std::getenv("HOME"); }
  )cpp");
  EXPECT_TRUE(hasRule(bad, "getenv")) << dump(bad);

  const auto ok = lintSnippet(
      "#include <cstdlib>\n"
      "const char* f() {\n"
      "  " + allow("getenv", "operator scale knob, read once at startup") +
      "\n"
      "  return std::getenv(\"AVMON_SCALE_KNOB\");\n"
      "}\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

// ------------------------------------------------------------ pointer keys

TEST(LintPtrKeyTest, PointerKeyedMapAndSetTrigger) {
  const auto mapCase = lintSnippet(R"cpp(
    #include <map>
    struct Node;
    std::map<Node*, int> ranks;
  )cpp");
  EXPECT_TRUE(hasRule(mapCase, "ptr-key-order")) << dump(mapCase);

  const auto setCase = lintSnippet(R"cpp(
    #include <set>
    struct Node;
    std::set<const Node*> seen;
  )cpp");
  EXPECT_TRUE(hasRule(setCase, "ptr-key-order")) << dump(setCase);
}

TEST(LintPtrKeyTest, PointerHashTriggersValuePointerPasses) {
  const auto hashCase = lintSnippet(R"cpp(
    #include <functional>
    struct Node;
    std::size_t f(Node* n) { return std::hash<Node*>{}(n); }
  )cpp");
  EXPECT_TRUE(hasRule(hashCase, "ptr-key-order")) << dump(hashCase);

  // A pointer VALUE (not key) is fine: iteration order is still the key's.
  const auto valueCase = lintSnippet(R"cpp(
    #include <map>
    struct Node;
    std::map<int, Node*> byIndex;
  )cpp");
  EXPECT_TRUE(valueCase.empty()) << dump(valueCase);
}

TEST(LintPtrKeyTest, AnnotatedPointerKeyPasses) {
  const auto ok = lintSnippet(
      "#include <map>\n"
      "struct Node;\n"
      + allow("ptr-key-order", "debug-only dump, order never observable") +
      "\n"
      "std::map<Node*, int> ranks;\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

// ----------------------------------------------------------- random engine

TEST(LintEngineTest, UnseededEnginesTriggerSeededPasses) {
  const auto plain = lintSnippet(R"cpp(
    #include <random>
    std::mt19937 gen;
  )cpp");
  EXPECT_TRUE(hasRule(plain, "unseeded-mt19937")) << dump(plain);

  const auto braced = lintSnippet(R"cpp(
    #include <random>
    unsigned f() { std::mt19937_64 gen{}; return unsigned(gen()); }
  )cpp");
  EXPECT_TRUE(hasRule(braced, "unseeded-mt19937")) << dump(braced);

  const auto seeded = lintSnippet(R"cpp(
    #include <random>
    unsigned f(unsigned seed) { std::mt19937 gen(seed); return unsigned(gen()); }
  )cpp");
  EXPECT_TRUE(seeded.empty()) << dump(seeded);
}

TEST(LintEngineTest, AnnotatedUnseededEnginePasses) {
  const auto ok = lintSnippet(
      "#include <random>\n"
      + allow("unseeded-mt19937", "distribution shape test, value-free") +
      "\n"
      "std::mt19937 gen;\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

// ------------------------------------------------------- per-node alloc

TEST(LintPerNodeAllocTest, LocalNodeIdMapTriggers) {
  const auto f = lintSnippet(R"cpp(
    #include <unordered_map>
    struct NodeId;
    void probe() {
      std::unordered_map<NodeId, double> estimates;
    }
  )cpp");
  EXPECT_TRUE(hasRule(f, "per-node-alloc")) << dump(f);

  const auto qualified = lintSnippet(R"cpp(
    #include <map>
    namespace avmon { struct NodeId; }
    void scan() {
      std::map<avmon::NodeId, int> byId;
    }
  )cpp");
  EXPECT_TRUE(hasRule(qualified, "per-node-alloc")) << dump(qualified);
}

TEST(LintPerNodeAllocTest, MembersParametersAndViewsPass) {
  // A member is a long-lived design choice, not probe scratch.
  const auto member = lintSnippet(R"cpp(
    #include <unordered_map>
    struct NodeId;
    class Registry {
      std::unordered_map<NodeId, int> slots_;
    };
  )cpp");
  EXPECT_FALSE(hasRule(member, "per-node-alloc")) << dump(member);

  // Reference parameters and views allocate nothing.
  const auto param = lintSnippet(R"cpp(
    #include <unordered_set>
    struct NodeId;
    int count(const std::unordered_set<NodeId>& ids);
    void f(const std::unordered_set<NodeId>& ids) {
      const std::unordered_set<NodeId>& view = ids;
      (void)view;
    }
  )cpp");
  EXPECT_FALSE(hasRule(param, "per-node-alloc")) << dump(param);

  // Other key types are out of scope for this rule.
  const auto otherKey = lintSnippet(R"cpp(
    #include <unordered_map>
    void f() {
      std::unordered_map<int, int> m;
      (void)m;
    }
  )cpp");
  EXPECT_FALSE(hasRule(otherKey, "per-node-alloc")) << dump(otherKey);
}

TEST(LintPerNodeAllocTest, AnnotatedLocalPasses) {
  const auto ok = lintSnippet(
      "#include <unordered_map>\n"
      "struct NodeId;\n"
      "void resolve() {\n"
      "  " +
      allow("per-node-alloc", "bounded by victim count, built once") +
      "\n"
      "  std::unordered_map<NodeId, int> byId;\n"
      "}\n");
  EXPECT_TRUE(ok.empty()) << dump(ok);
}

TEST(LintPerNodeAllocTest, RuleIsAdvisory) {
  EXPECT_TRUE(avmon::lint::isAdvisoryRule("per-node-alloc"));
  EXPECT_FALSE(avmon::lint::isAdvisoryRule("unordered-iter"));
  EXPECT_FALSE(avmon::lint::isAdvisoryRule("no-such-rule"));
}

// ----------------------------------------------------------- meta rules

TEST(LintMetaTest, UnknownRuleInAnnotationReportsBadAllow) {
  const auto f = lintSnippet(allow("no-such-rule", "whatever") + "\nint x;\n");
  EXPECT_TRUE(hasRule(f, "bad-allow")) << dump(f);
}

TEST(LintMetaTest, MissingReasonReportsBadAllow) {
  const auto f = lintSnippet(
      std::string("// lint:") + "allow(unordered-iter)\nint x;\n");
  EXPECT_TRUE(hasRule(f, "bad-allow")) << dump(f);
}

TEST(LintMetaTest, EmptyReasonReportsBadAllow) {
  const auto f = lintSnippet(allow("unordered-iter", "") + "\nint x;\n");
  EXPECT_TRUE(hasRule(f, "bad-allow")) << dump(f);
}

TEST(LintMetaTest, UselessAnnotationReportsStaleAllow) {
  const auto f = lintSnippet(
      allow("unordered-iter", "nothing here to suppress") + "\nint x;\n");
  EXPECT_TRUE(hasRule(f, "stale-allow")) << dump(f);
}

TEST(LintMetaTest, AnnotationCoversSameAndNextLineOnly) {
  // Two lines below the annotation: NOT covered; both the finding and the
  // stale annotation must surface.
  const auto f = lintSnippet(
      "#include <random>\n"
      + allow("random-device", "too far away") + "\n"
      "int pad;\n"
      "std::random_device rd;\n");
  EXPECT_TRUE(hasRule(f, "random-device")) << dump(f);
  EXPECT_TRUE(hasRule(f, "stale-allow")) << dump(f);
}

// ------------------------------------------------------------ lexer hygiene

TEST(LintLexerTest, CommentsAndStringsAreNotCode) {
  const auto f = lintSnippet(R"cpp(
    // std::random_device rd; time(nullptr); getenv("X");
    /* for (auto& kv : someUnorderedMap) {} */
    const char* s = "std::rand() time(nullptr) getenv";
    int x = 1;
  )cpp");
  EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintLexerTest, ReportIsSortedAndFormatted) {
  const auto f = lintSnippet(
      "#include <random>\n"
      "std::random_device a;\n"
      "std::random_device b;\n");
  ASSERT_EQ(f.size(), 2u) << dump(f);
  EXPECT_LT(f[0].line, f[1].line);
  EXPECT_EQ(avmon::lint::formatFinding(f[0]),
            "snippet.cpp:2: [random-device] std::random_device draws entropy "
            "from the host");
}

// ------------------------------------------------------------- whole tree

TEST(LintTreeTest, FullTreeIsClean) {
  Linter linter;
  std::string error;
  const std::string root = AVMON_SOURCE_DIR;
  for (const char* dir : {"/src", "/tools", "/bench", "/examples"}) {
    ASSERT_TRUE(linter.addTree(root + dir, &error)) << error;
  }
  const auto findings = linter.run();
  EXPECT_TRUE(findings.empty())
      << "unannotated determinism hazards:\n" << dump(findings);
}

}  // namespace
