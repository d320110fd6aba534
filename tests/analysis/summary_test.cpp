// Whole-program summary artifacts and link: extraction, JSON round trips,
// the cross-TU §IV-C fixed point, execution estimation across TU
// boundaries, signature checking and TU scheduling.
#include "analysis/summary.hpp"

#include "common/test_util.hpp"

#include <gtest/gtest.h>

namespace ompdart::summary {
namespace {

ModuleSummary extractFrom(const std::string &source,
                          const std::string &file) {
  auto parsed = test::parse(source, file);
  EXPECT_TRUE(parsed.ok) << parsed.diags->summary();
  return extractModuleSummary(parsed.unit(), file);
}

TEST(ModuleSummaryTest, ExtractsDirectEffectsEdgesAndExterns) {
  const ModuleSummary module = extractFrom(R"(
double shared[64];
void helper(double *dst, int n);
void producer(double *out) {
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 64; ++i) {
      out[i] = shared[i];
    }
    helper(out, 64);
  }
}
)",
                                           "producer.c");
  ASSERT_EQ(module.functions.size(), 1u);
  const FunctionArtifact &producer = module.functions.front();
  EXPECT_EQ(producer.direct.function, "producer");
  EXPECT_TRUE(producer.direct.defined);
  EXPECT_FALSE(producer.direct.launchesKernels);
  // Direct effects: writes out's pointee on the host, reads global shared.
  ASSERT_EQ(producer.direct.params.size(), 1u);
  EXPECT_TRUE(producer.direct.params[0].writeHost);
  ASSERT_EQ(producer.direct.globals.count(internSymbol("shared")), 1u);
  EXPECT_TRUE(producer.direct.globals.at(internSymbol("shared")).readHost);
  // The helper edge: 4 provable trips, arg 0 binds parameter 0.
  ASSERT_EQ(producer.calls.size(), 1u);
  const CallEdge &edge = producer.calls.front();
  EXPECT_EQ(edge.callee, "helper");
  EXPECT_EQ(edge.provableTrips, 4u);
  EXPECT_FALSE(edge.guarded);
  ASSERT_EQ(edge.args.size(), 2u);
  EXPECT_EQ(edge.args[0].kind, ArgBinding::Kind::Param);
  EXPECT_EQ(edge.args[0].paramIndex, 0);
  EXPECT_TRUE(edge.args[0].isPointerArg);
  ASSERT_TRUE(edge.args[1].constValue.has_value());
  EXPECT_EQ(*edge.args[1].constValue, 64);
  // The undefined prototype is an extern ref with its signature.
  ASSERT_EQ(module.externs.size(), 1u);
  EXPECT_EQ(module.externs.front().function, "helper");
  EXPECT_EQ(module.externs.front().signature, "void(double *, int)");
}

TEST(ModuleSummaryTest, JsonRoundTripAndFingerprint) {
  const ModuleSummary module = extractFrom(R"(
double grid[32];
void kernel_fn() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 32; ++i) grid[i] = i;
}
)",
                                           "k.c");
  std::string error;
  const auto round = ModuleSummary::fromJson(module.toJson(), &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(*round, module);
  EXPECT_EQ(round->fingerprint(), module.fingerprint());

  // The fingerprint covers facts, not the file label.
  ModuleSummary renamed = module;
  renamed.file = "elsewhere.c";
  EXPECT_EQ(renamed.fingerprint(), module.fingerprint());
}

TEST(ModuleSummaryTest, RebindFileFollowsStaticLinkedNames) {
  // Cached summaries are content-keyed: a hit may carry the path the
  // artifact was extracted under. Rebinding must rewrite static linked
  // names so the bare-name executions alias still resolves — and the
  // fingerprint must be path-independent even with statics.
  const ModuleSummary module = extractFrom(R"(
static void init() { }
void run() {
  for (int i = 0; i < 4; ++i) {
    init();
  }
}
)",
                                           "old.c");
  ModuleSummary moved = module;
  moved.rebindFile("new.c");
  EXPECT_NE(moved.find("new.c::init"), nullptr);
  EXPECT_EQ(moved.find("old.c::init"), nullptr);
  EXPECT_EQ(moved.fingerprint(), module.fingerprint());
  const LinkResult link = linkProgram({moved});
  EXPECT_EQ(link.executions.at("new.c::init"), 4u);
  EXPECT_EQ(buildTuImports(moved, link).executions.at("init"), 4u);
}

TEST(LinkTest, DuplicateModulesDoNotDoubleCountEdges) {
  const ModuleSummary mainTu = extractFrom(R"(
void step();
int main() {
  for (int t = 0; t < 10; ++t) {
    step();
  }
  return 0;
}
)",
                                           "main.c");
  const ModuleSummary stepTu = extractFrom(R"(
void step() { }
)",
                                           "step.c");
  // The same module listed twice: a warning, but counts stay correct.
  const LinkResult link = linkProgram({mainTu, mainTu, stepTu});
  ASSERT_FALSE(link.diagnostics.empty());
  EXPECT_NE(link.diagnostics.front().message.find("duplicate definition"),
            std::string::npos);
  EXPECT_EQ(link.executions.at("step"), 10u);
}

TEST(LinkTest, ClosesEffectsAcrossTuChains) {
  // a.c: entry calls mid (b.c); mid calls leaf (c.c); leaf writes its
  // pointer parameter. The closure must surface leaf's write through mid
  // up to entry's parameter.
  const ModuleSummary a = extractFrom(R"(
void mid(double *data);
void entry(double *buffer) { mid(buffer); }
)",
                                      "a.c");
  const ModuleSummary b = extractFrom(R"(
void leaf(double *p);
void mid(double *data) { leaf(data); }
)",
                                      "b.c");
  const ModuleSummary c = extractFrom(R"(
void leaf(double *p) {
  for (int i = 0; i < 8; ++i) p[i] = i;
}
)",
                                      "c.c");
  const LinkResult link = linkProgram({a, b, c});
  EXPECT_TRUE(link.diagnostics.empty());
  ASSERT_EQ(link.closed.count("entry"), 1u);
  const PortableSummary &entry = link.closed.at("entry");
  ASSERT_EQ(entry.params.size(), 1u);
  EXPECT_TRUE(entry.params[0].writeHost);
  EXPECT_FALSE(entry.params[0].unknown);
}

TEST(LinkTest, UnknownCalleesStayPessimistic) {
  const ModuleSummary module = extractFrom(R"(
void mystery(double *data, const double *src);
void wrapper(double *out, const double *in) { mystery(out, in); }
)",
                                          "w.c");
  const LinkResult link = linkProgram({module});
  const PortableSummary &wrapper = link.closed.at("wrapper");
  ASSERT_EQ(wrapper.params.size(), 2u);
  // Non-const pointer: read+write+unknown. Const pointer: read-only.
  EXPECT_TRUE(wrapper.params[0].writeHost);
  EXPECT_TRUE(wrapper.params[0].unknown);
  EXPECT_TRUE(wrapper.params[1].readHost);
  EXPECT_FALSE(wrapper.params[1].writeHost);
}

TEST(LinkTest, EstimatesExecutionsAcrossTuBoundaries) {
  const ModuleSummary mainTu = extractFrom(R"(
void step();
int main() {
  for (int t = 0; t < 10; ++t) {
    step();
  }
  return 0;
}
)",
                                           "main.c");
  const ModuleSummary stepTu = extractFrom(R"(
void inner();
void step() {
  for (int i = 0; i < 3; ++i) {
    inner();
  }
}
)",
                                           "step.c");
  const ModuleSummary innerTu = extractFrom(R"(
void inner() { }
)",
                                            "inner.c");
  const LinkResult link = linkProgram({mainTu, stepTu, innerTu});
  EXPECT_EQ(link.executions.at("main"), 1u);
  EXPECT_EQ(link.executions.at("step"), 10u);
  EXPECT_EQ(link.executions.at("inner"), 30u);
}

TEST(LinkTest, SignatureMismatchFallsBackToPessimism) {
  const ModuleSummary caller = extractFrom(R"(
void helper(double *data);
void use(double *buffer) { helper(buffer); }
)",
                                           "caller.c");
  const ModuleSummary callee = extractFrom(R"(
void helper(double *data, int n) {
  for (int i = 0; i < n; ++i) {
    double v = data[i];
    (void)v;
  }
}
)",
                                           "callee.c");
  const LinkResult link = linkProgram({caller, callee});
  ASSERT_FALSE(link.diagnostics.empty());
  EXPECT_NE(link.diagnostics.front().message.find("does not match"),
            std::string::npos);
  ASSERT_EQ(link.signatureMismatches.count("caller.c"), 1u);
  EXPECT_EQ(link.signatureMismatches.at("caller.c").count("helper"), 1u);

  // The mismatching TU's imports exclude the callee entirely.
  const TuImports imports = buildTuImports(caller, link);
  EXPECT_EQ(imports.externals.count("helper"), 0u);
}

TEST(LinkTest, RecursionFloorsAtProvableExecutions) {
  const ModuleSummary module = extractFrom(R"(
void spin(int depth);
int main() {
  for (int i = 0; i < 10; ++i) {
    spin(3);
  }
  return 0;
}
void spin(int depth) {
  if (depth > 0) {
    spin(depth - 1);
  }
}
)",
                                           "rec.c");
  const LinkResult link = linkProgram({module});
  // The cycle's extra executions are unprovable (the guarded self-edge
  // contributes nothing mid-evaluation); the 10-trip caller loop is the
  // provable floor.
  EXPECT_EQ(link.executions.at("spin"), 10u);
}

TEST(TuImportsTest, SlicesExternalsExecutionsAndParamFacts) {
  const ModuleSummary mainTu = extractFrom(R"(
double field[128];
void relax(double *cells, int n);
int main() {
  for (int t = 0; t < 5; ++t) {
    relax(field, 128);
  }
  return 0;
}
)",
                                           "main.c");
  const ModuleSummary relaxTu = extractFrom(R"(
void relax(double *cells, int n) {
  for (int i = 0; i < n; ++i) cells[i] = cells[i] * 0.5;
}
)",
                                           "relax.c");
  const LinkResult link = linkProgram({mainTu, relaxTu});

  const TuImports mainImports = buildTuImports(mainTu, link);
  ASSERT_EQ(mainImports.externals.count("relax"), 1u);
  EXPECT_TRUE(mainImports.externals.at("relax").params[0].writeHost);
  EXPECT_EQ(mainImports.executions.at("relax"), 5u);
  // main.c defines no function others call: no param facts for it.
  EXPECT_EQ(mainImports.paramFacts.count("main"), 0u);

  const TuImports relaxImports = buildTuImports(relaxTu, link);
  EXPECT_TRUE(relaxImports.externals.empty());
  // relax's param facts carry main.c's call-site constant and extent.
  ASSERT_EQ(relaxImports.paramFacts.count("relax"), 1u);
  const auto &perParam = relaxImports.paramFacts.at("relax");
  ASSERT_EQ(perParam.size(), 2u);
  ASSERT_EQ(perParam[0].size(), 1u);
  EXPECT_EQ(perParam[0][0].callerFile, "main.c");
  EXPECT_TRUE(perParam[0][0].extentKnown);
  EXPECT_EQ(perParam[0][0].extentConstElems.value_or(0), 128u);
  ASSERT_EQ(perParam[1].size(), 1u);
  EXPECT_EQ(perParam[1][0].constValue.value_or(-1), 128);

  // Import fingerprints are stable and content-sensitive.
  EXPECT_EQ(mainImports.fingerprint(), buildTuImports(mainTu, link).fingerprint());
  EXPECT_NE(mainImports.fingerprint(), relaxImports.fingerprint());
}

TEST(LinkTest, StaticFunctionsLinkPerModuleNotByBareName) {
  // Two TUs each define `static void init()` — distinct objects with
  // internal linkage. The link must not report a duplicate definition,
  // and each TU's executions must come from its own call sites.
  const ModuleSummary a = extractFrom(R"(
static void init() { }
void runA() {
  for (int i = 0; i < 3; ++i) {
    init();
  }
}
)",
                                      "a.c");
  const ModuleSummary b = extractFrom(R"(
static void init() { }
void runB() {
  for (int i = 0; i < 7; ++i) {
    init();
  }
}
)",
                                      "b.c");
  const ModuleSummary mainTu = extractFrom(R"(
void runA();
void runB();
int main() { runA(); runB(); return 0; }
)",
                                           "main.c");
  const LinkResult link = linkProgram({a, b, mainTu});
  EXPECT_TRUE(link.diagnostics.empty())
      << link.diagnostics.front().message;
  EXPECT_EQ(link.executions.at("a.c::init"), 3u);
  EXPECT_EQ(link.executions.at("b.c::init"), 7u);
  // Each TU's import slice exposes its own static under the bare name the
  // planner resolves.
  EXPECT_EQ(buildTuImports(a, link).executions.at("init"), 3u);
  EXPECT_EQ(buildTuImports(b, link).executions.at("init"), 7u);
}

TEST(LinkTest, StaticGlobalsAreNotExported) {
  // f() writes a file-static global; the exported summary must not name
  // it (another TU's same-named global is a different object).
  const ModuleSummary module = extractFrom(R"(
static double hidden[8];
double visible[8];
void f() {
  hidden[0] = 1.0;
  visible[0] = 2.0;
}
)",
                                           "m.c");
  const LinkResult link = linkProgram({module});
  const PortableSummary &f = link.closed.at("f");
  EXPECT_EQ(f.globals.count(internSymbol("hidden")), 0u);
  EXPECT_EQ(f.globals.count(internSymbol("visible")), 1u);
}

TEST(ScheduleTest, ReverseTopologicalOrderPutsCalleesFirst) {
  const ModuleSummary mainTu = extractFrom(R"(
void a();
void b();
int main() { a(); b(); return 0; }
)",
                                           "main.c");
  const ModuleSummary aTu = extractFrom(R"(
void b();
void a() { b(); }
)",
                                        "a.c");
  const ModuleSummary bTu = extractFrom(R"(
void b() { }
)",
                                        "b.c");
  const auto order = reverseTopologicalOrder({&mainTu, &aTu, &bTu});
  ASSERT_EQ(order.size(), 3u);
  // b.c (leaf) first, then a.c, then main.c.
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 0u);
}

TEST(ScheduleTest, CyclesResolveDeterministically) {
  const ModuleSummary aTu = extractFrom(R"(
void b();
void a() { b(); }
)",
                                        "a.c");
  const ModuleSummary bTu = extractFrom(R"(
void a();
void b() { a(); }
)",
                                        "b.c");
  const auto order = reverseTopologicalOrder({&aTu, &bTu});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u); // a.c's DFS visits b.c first
  EXPECT_EQ(order[1], 0u);
}

} // namespace
} // namespace ompdart::summary
