// Pins the plan-cache key components to literal values. Cache keys are
// content addresses: a change to how the config, module-summary or imports
// fingerprints are computed silently cold-starts every existing on-disk
// cache and every warm plan server, even when the fingerprinted facts are
// the same. Changing one of these values must therefore be deliberate
// (and bump the cache format), never a side effect of a refactor.
#include "analysis/summary.hpp"
#include "driver/pipeline.hpp"
#include "frontend/parser.hpp"
#include "gen/generator.hpp"
#include "suite/benchmarks.hpp"
#include "support/hash.hpp"
#include "support/intern.hpp"
#include "support/source_manager.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ompdart {
namespace {

/// The reference definition of a location-free fingerprint: drop every
/// "line" / "callerFile" member at any depth from the canonical JSON, dump
/// it compactly, hash the text.
json::Value scrubbed(const json::Value &value) {
  if (value.isObject()) {
    json::Value out = json::Value::object();
    for (const auto &[key, member] : value.members())
      if (key != "line" && key != "callerFile")
        out.set(key, scrubbed(member));
    return out;
  }
  if (value.isArray()) {
    json::Value out = json::Value::array();
    for (const json::Value &item : value.items())
      out.push(scrubbed(item));
    return out;
  }
  return value;
}

std::string referenceFingerprint(const json::Value &value) {
  return hash::fingerprint(scrubbed(value).dump(/*pretty=*/false));
}

std::vector<summary::ModuleSummary>
extractModules(const std::vector<std::pair<std::string, std::string>> &tus) {
  std::vector<summary::ModuleSummary> modules;
  for (const auto &[name, source] : tus) {
    SourceManager sourceManager(name, source);
    ASTContext context;
    DiagnosticEngine diags;
    EXPECT_TRUE(parseSource(sourceManager, context, diags)) << name;
    modules.push_back(summary::extractModuleSummary(context.unit(), name));
  }
  return modules;
}

TEST(CacheKeyPinTest, DefaultConfigFingerprintIsPinned) {
  EXPECT_EQ(planFingerprint(PipelineConfig{}),
            "5520b04acdceb8fc5951fe5c5e6eb7f2");
}

TEST(CacheKeyPinTest, ScaleProjectModuleAndImportsFingerprintsArePinned) {
  std::vector<std::pair<std::string, std::string>> tus;
  for (const gen::GeneratedTu &tu : gen::generateScaleProject(1, 8).tus)
    tus.emplace_back(tu.name, tu.source);
  const std::vector<summary::ModuleSummary> modules = extractModules(tus);
  const summary::LinkResult link = summary::linkProgram(modules);
  constexpr std::size_t kMain = 0;
  constexpr std::size_t kStage = 3;
  EXPECT_EQ(modules[kMain].fingerprint(), "a0bbe024e891aba48bf72b5338acefcd");
  EXPECT_EQ(modules[kStage].fingerprint(), "886f230b37d573f799ff837cbbdca4da");
  EXPECT_EQ(summary::buildTuImports(modules[kMain], link).fingerprint(),
            "18a7302f7c32db558dbf518baa8cba1c");
  EXPECT_EQ(summary::buildTuImports(modules[kStage], link).fingerprint(),
            "80100430b3e4f58d1b5a7693a0f221e3");
}

TEST(CacheKeyPinTest, FingerprintsEqualTheScrubbedCanonicalDump) {
  // A hand-built slice covering every serialized branch: optional fact
  // members, escaped strings, a 64-bit count, and rows keyed by a
  // location-member name (which the scrub drops at any depth).
  summary::TuImports imports;
  PortableSummary helper;
  helper.function = "helper";
  helper.signature = "void(double *, int)";
  helper.defined = true;
  helper.params.resize(2);
  helper.params[0].writeHost = true;
  helper.params[0].fullWriteBoundParam = 1;
  helper.globals[internSymbol("line")].readDevice = true;
  helper.globals[internSymbol("grid")].writeDevice = true;
  imports.externals["helper"] = helper;
  imports.externals["line"] = helper;
  imports.executions["helper"] = 3;
  imports.executions["callerFile"] = 7;
  imports.executions["huge"] = std::uint64_t{1} << 40;
  summary::ParamCallFact fact;
  fact.callerFile = "dir/a \"b\".c";
  fact.line = 12;
  fact.tracked = true;
  fact.constValue = -3;
  fact.extentKnown = true;
  fact.extentConstElems = 64;
  fact.extentSpelling = "n * \"m\"";
  summary::ParamCallFact bare;
  bare.callerFile = "b.c";
  imports.paramFacts["kernel"] = {{fact, bare}, {}};
  imports.paramFacts["line"] = {{fact}};
  EXPECT_EQ(imports.fingerprint(), referenceFingerprint(imports.toJson()));
  EXPECT_EQ(summary::TuImports{}.fingerprint(),
            referenceFingerprint(summary::TuImports{}.toJson()));

  // Every module and slice of a real project, including a cross-TU
  // pointer-and-extent call site.
  std::vector<std::pair<std::string, std::string>> tus;
  for (const suite::ProjectBenchmarkDef::Tu &tu :
       suite::xsbenchProject().tus)
    tus.emplace_back(tu.name, tu.source);
  const std::vector<summary::ModuleSummary> modules = extractModules(tus);
  const summary::LinkResult link = summary::linkProgram(modules);
  for (const summary::ModuleSummary &module : modules) {
    summary::ModuleSummary normalized = module;
    normalized.rebindFile("");
    EXPECT_EQ(module.fingerprint(), referenceFingerprint(normalized.toJson()))
        << module.file;
    const summary::TuImports slice = summary::buildTuImports(module, link);
    EXPECT_EQ(slice.fingerprint(), referenceFingerprint(slice.toJson()))
        << module.file;
  }
}

} // namespace
} // namespace ompdart
