// ProjectSession tests: single-file golden equivalence (a one-TU project
// must emit byte-identical sources to the plain Session — the Project
// layer's compatibility pin), whole-program pessimism removal on the
// multi-TU xsbench split, manifest loading, batch project mode, and the
// imports-keyed incremental cache.
#include "driver/project.hpp"

#include "driver/batch.hpp"
#include "exp/experiment.hpp"
#include "interp/interp.hpp"
#include "suite/benchmarks.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

namespace ompdart {
namespace {

namespace fs = std::filesystem;

ProjectManifest xsbenchManifest() {
  const suite::ProjectBenchmarkDef &def = suite::xsbenchProject();
  ProjectManifest manifest;
  manifest.name = def.name;
  for (const auto &tu : def.tus)
    manifest.tus.push_back({tu.name, tu.name, tu.source});
  return manifest;
}

/// A fresh temp directory, removed with the object.
struct ScopedDir {
  fs::path path;
  explicit ScopedDir(const char *tag) {
    std::random_device rd;
    path = fs::temp_directory_path() /
           (std::string("ompdart-project-") + tag + "-" + std::to_string(rd()));
    fs::remove_all(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// Acceptance pin: every suite benchmark routed through a one-TU project
// produces a byte-identical emitted source and an identical IR to the
// plain single-file Session.
TEST(ProjectGoldenTest, SingleFileProjectMatchesSessionByteForByte) {
  for (const auto &def : suite::allBenchmarks()) {
    PipelineConfig config;
    Session solo(def.name + ".c", def.unoptimized, config);
    solo.run();

    ProjectManifest manifest;
    manifest.name = def.name;
    manifest.tus.push_back(
        {def.name + ".c", def.name + ".c", def.unoptimized});
    ProjectSession project(std::move(manifest), config);
    ASSERT_TRUE(project.run()) << def.name;
    Session *viaProject = project.sessionFor(def.name + ".c");
    ASSERT_NE(viaProject, nullptr) << def.name;
    EXPECT_EQ(viaProject->rewrite(), solo.rewrite()) << def.name;
    EXPECT_EQ(viaProject->ir(), solo.ir()) << def.name;
    EXPECT_EQ(viaProject->report().diagnostics,
              solo.report().diagnostics)
        << def.name;
  }
}

TEST(ProjectSessionTest, MultiTuImportsRemovePessimismAndReconcile) {
  const suite::ProjectBenchmarkDef &def = suite::xsbenchProject();
  PipelineConfig config;
  config.includeOutputInReport = false;
  ProjectSession project(xsbenchManifest(), config);
  ASSERT_TRUE(project.run());
  EXPECT_TRUE(project.linkDiagnostics().empty());

  // Zero isExternal pessimism for in-project callees.
  for (const auto &tu : def.tus) {
    Session *session = project.sessionFor(tu.name);
    ASSERT_NE(session, nullptr) << tu.name;
    for (const auto &[fn, summary] : session->interproc().summaries) {
      if (fn->isDefined())
        continue;
      auto definedIt = project.link().definedIn.find(fn->name());
      if (definedIt == project.link().definedIn.end())
        continue;
      EXPECT_FALSE(summary.isExternal) << tu.name << ": " << fn->name();
      EXPECT_TRUE(summary.imported) << tu.name << ": " << fn->name();
    }
  }

  // Cross-TU execution counts feed the estimator.
  EXPECT_EQ(project.link().executions.at("run_batches"), 1u);
  EXPECT_EQ(project.link().executions.at("accumulate_stats"), 8u);

  // Reverse topological schedule: support (leaf) before kernel, kernel
  // before main.
  const auto &schedule = project.scheduleOrder();
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0], "xsbench_support.c");
  EXPECT_EQ(schedule[1], "xsbench_kernel.c");
  EXPECT_EQ(schedule[2], "xsbench_main.c");

  // Predicted-vs-simulated reconciliation within the suite-wide gate.
  std::uint64_t predicted = 0;
  std::string plannedCombined;
  for (const auto &tu : def.tus) {
    Session *session = project.sessionFor(tu.name);
    predicted += exp::predictedTransferBytes(session->ir());
    plannedCombined += session->rewrite();
  }
  ASSERT_GT(predicted, 0u);
  const interp::RunResult plannedRun = interp::runProgram(plannedCombined);
  const interp::RunResult unoptRun = interp::runProgram(def.combined());
  ASSERT_TRUE(plannedRun.ok) << plannedRun.error;
  ASSERT_TRUE(unoptRun.ok) << unoptRun.error;
  EXPECT_EQ(plannedRun.output, unoptRun.output);
  const std::uint64_t simulated =
      plannedRun.ledger.bytes(sim::TransferDir::HtoD) +
      plannedRun.ledger.bytes(sim::TransferDir::DtoH);
  const double ratio =
      static_cast<double>(simulated) / static_cast<double>(predicted);
  EXPECT_GE(ratio, 0.98);
  EXPECT_LE(ratio, 1.02);

  // The per-TU pessimistic baseline moves strictly more bytes: worst-case
  // treatment of accumulate_stats re-syncs `results` to the device every
  // batch iteration.
  std::string pessimisticCombined;
  for (const auto &tu : def.tus) {
    Session solo(tu.name, tu.source, config);
    solo.run();
    pessimisticCombined += solo.rewrite();
  }
  const interp::RunResult pessimisticRun =
      interp::runProgram(pessimisticCombined);
  ASSERT_TRUE(pessimisticRun.ok) << pessimisticRun.error;
  const std::uint64_t pessimisticBytes =
      pessimisticRun.ledger.bytes(sim::TransferDir::HtoD) +
      pessimisticRun.ledger.bytes(sim::TransferDir::DtoH);
  EXPECT_GT(pessimisticBytes, simulated);
}

TEST(ProjectSessionTest, ManifestLoadsRelativeTuPaths) {
  const ScopedDir scoped("manifest");
  const fs::path &dir = scoped.path;
  fs::create_directories(dir);
  {
    std::ofstream a(dir / "alpha.c");
    a << "double data[16];\nvoid touch();\nint main() { touch(); return 0; }\n";
    std::ofstream b(dir / "beta.c");
    b << "extern double data[16];\nvoid touch() { data[0] = 1.0; }\n";
    std::ofstream m(dir / "proj.json");
    m << R"({ "name": "two", "tus": ["alpha.c", {"file": "beta.c", "name": "b"}] })";
  }
  std::string error;
  const auto manifest =
      ProjectManifest::fromJsonFile((dir / "proj.json").string(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->name, "two");
  ASSERT_EQ(manifest->tus.size(), 2u);
  EXPECT_EQ(manifest->tus[0].name, "alpha.c");
  EXPECT_EQ(manifest->tus[1].name, "b");
  EXPECT_NE(manifest->tus[0].source.find("int main"), std::string::npos);
  EXPECT_NE(manifest->tus[1].source.find("void touch"), std::string::npos);

  EXPECT_FALSE(
      ProjectManifest::fromJsonFile((dir / "missing.json").string()));
}

TEST(BatchProjectTest, ProjectModeSchedulesAndSucceeds) {
  const suite::ProjectBenchmarkDef &def = suite::xsbenchProject();
  std::vector<BatchJob> jobs;
  for (const auto &tu : def.tus)
    jobs.push_back({tu.name, tu.name, tu.source});

  BatchDriver::Options options;
  options.config.includeOutputInReport = false;
  BatchDriver driver(options);
  const BatchResult result = driver.runProject(jobs);
  EXPECT_EQ(result.stats.succeeded, result.stats.jobs);
  ASSERT_EQ(result.items.size(), 3u);
  // Input order preserved in items, schedule recorded separately.
  EXPECT_EQ(result.items[0].name, "xsbench_main.c");
  ASSERT_EQ(result.projectSchedule.size(), 3u);
  EXPECT_EQ(result.projectSchedule.front(), "xsbench_support.c");
  EXPECT_EQ(result.projectSchedule.back(), "xsbench_main.c");
  // The kernel TU emitted a transformed source.
  const BatchItem *kernel = result.find("xsbench_kernel.c");
  ASSERT_NE(kernel, nullptr);
  EXPECT_NE(kernel->output.find("#pragma omp target data"),
            std::string::npos);
}

// A repeated runProject over a shared cache must not re-extract summaries
// for TUs whose source hash is unchanged: the second pass serves every
// summary from the cache (the in-memory memo — no parse, no disk), and an
// edit to one TU re-extracts exactly one.
TEST(BatchProjectTest, RepeatRunProjectSkipsSummaryReExtraction) {
  const suite::ProjectBenchmarkDef &def = suite::xsbenchProject();
  std::vector<BatchJob> jobs;
  for (const auto &tu : def.tus)
    jobs.push_back({tu.name, tu.name, tu.source});
  const unsigned tuCount = static_cast<unsigned>(jobs.size());

  const ScopedDir cacheDir("runproject-cache");
  cache::PlanCache shared(cacheDir.path.string(),
                         cache::CacheMode::ReadWrite);
  BatchDriver::Options options;
  options.config.planCache = &shared;
  options.config.includeOutputInReport = false;
  BatchDriver driver(options);

  const BatchResult cold = driver.runProject(jobs);
  EXPECT_EQ(cold.stats.succeeded, cold.stats.jobs);
  const cache::CacheStats afterCold = shared.stats();
  EXPECT_EQ(afterCold.summaryMisses, tuCount);
  EXPECT_EQ(afterCold.summaryStores, tuCount);

  const BatchResult warm = driver.runProject(jobs);
  const cache::CacheStats afterWarm = shared.stats();
  // Zero re-extractions: no new misses, every lookup a (memo) hit.
  EXPECT_EQ(afterWarm.summaryMisses, afterCold.summaryMisses);
  EXPECT_EQ(afterWarm.summaryHits - afterCold.summaryHits, tuCount);
  EXPECT_GE(afterWarm.summaryMemoHits, tuCount);
  ASSERT_EQ(warm.items.size(), cold.items.size());
  for (std::size_t i = 0; i < warm.items.size(); ++i)
    EXPECT_EQ(warm.items[i].output, cold.items[i].output)
        << cold.items[i].name;

  // Edit one TU: exactly one summary re-extracts, the rest stay served.
  jobs[1].source = "// one-TU edit\n" + jobs[1].source;
  const BatchResult edited = driver.runProject(jobs);
  EXPECT_EQ(edited.stats.succeeded, edited.stats.jobs);
  const cache::CacheStats afterEdit = shared.stats();
  EXPECT_EQ(afterEdit.summaryMisses - afterWarm.summaryMisses, 1u);
  EXPECT_EQ(afterEdit.summaryHits - afterWarm.summaryHits, tuCount - 1);
}

// Incremental whole-program builds: a warm project run is 100% plan-cache
// hits; editing one TU's *comments* re-extracts only that TU's summary
// (its source hash changed) while every TU re-hits its cached plan (the
// imports fingerprints are unchanged); editing a TU in a way that changes
// its exported summary re-plans its dependents.
TEST(ProjectCacheTest, ImportsKeyedIncrementalRePlanning) {
  const ScopedDir cacheDir("cache");
  PipelineConfig config;
  config.cacheDir = cacheDir.path.string();
  config.cacheMode = cache::CacheMode::ReadWrite;
  config.includeOutputInReport = false;

  // Cold run: everything misses and stores.
  {
    ProjectSession cold(xsbenchManifest(), config);
    ASSERT_TRUE(cold.run());
    for (const auto &item : cold.items()) {
      EXPECT_EQ(item.cacheStatus, Session::PlanCacheStatus::Miss)
          << item.name;
      EXPECT_FALSE(item.summaryFromCache) << item.name;
    }
  }

  // Warm run: summaries and plans all hit; parse/plan stages never run.
  {
    ProjectSession warm(xsbenchManifest(), config);
    ASSERT_TRUE(warm.run());
    for (const auto &item : warm.items()) {
      EXPECT_EQ(item.cacheStatus, Session::PlanCacheStatus::Hit)
          << item.name;
      EXPECT_TRUE(item.summaryFromCache) << item.name;
    }
    Session *kernel = warm.sessionFor("xsbench_kernel.c");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->stageRuns(Stage::Parse), 0u);
    EXPECT_EQ(kernel->stageRuns(Stage::Plan), 0u);
  }

  // Comment-only edit of the support TU: its source hash changes (summary
  // re-extracted, plan re-planned) but its exported facts do not, so the
  // other TUs' imports fingerprints are unchanged and their plans re-hit.
  {
    ProjectManifest manifest = xsbenchManifest();
    for (auto &tu : manifest.tus)
      if (tu.name == "xsbench_support.c")
        tu.source = "// incremental-build comment edit\n" + tu.source;
    ProjectSession edited(std::move(manifest), config);
    ASSERT_TRUE(edited.run());
    for (const auto &item : edited.items()) {
      if (item.name == "xsbench_support.c") {
        EXPECT_EQ(item.cacheStatus, Session::PlanCacheStatus::Miss)
            << "edited TU must re-plan";
        EXPECT_FALSE(item.summaryFromCache);
      } else {
        EXPECT_EQ(item.cacheStatus, Session::PlanCacheStatus::Hit)
            << item.name << " must stay warm after a facts-neutral edit";
        EXPECT_TRUE(item.summaryFromCache) << item.name;
      }
    }
  }

  // Comment edit of the KERNEL TU — the one holding cross-TU call sites:
  // every call edge's line shifts, but lines are scrubbed from the facts
  // fingerprints, so the other TUs' imports are unchanged and stay warm.
  {
    ProjectManifest manifest = xsbenchManifest();
    for (auto &tu : manifest.tus)
      if (tu.name == "xsbench_kernel.c")
        tu.source = "// line-shifting comment edit\n" + tu.source;
    ProjectSession edited(std::move(manifest), config);
    ASSERT_TRUE(edited.run());
    for (const auto &item : edited.items()) {
      if (item.name == "xsbench_kernel.c")
        EXPECT_EQ(item.cacheStatus, Session::PlanCacheStatus::Miss);
      else
        EXPECT_EQ(item.cacheStatus, Session::PlanCacheStatus::Hit)
            << item.name << " must survive a line-shifting edit elsewhere";
    }
  }

  // Semantic edit of the support TU: accumulate_stats now *writes* its
  // parameter, so the kernel TU's imported summary changes and its plan
  // must re-plan; the main TU's imports cover run_batches/init_tables
  // whose closed summaries absorb the new write, so it re-plans too.
  {
    ProjectManifest manifest = xsbenchManifest();
    for (auto &tu : manifest.tus)
      if (tu.name == "xsbench_support.c") {
        const std::string needle = "checksum += res[l];";
        const auto at = tu.source.find(needle);
        ASSERT_NE(at, std::string::npos);
        tu.source.replace(at, needle.size(),
                          "checksum += res[l]; res[l] = 0.0;");
      }
    ProjectSession edited(std::move(manifest), config);
    ASSERT_TRUE(edited.run());
    const ProjectItem *kernelItem = nullptr;
    for (const auto &item : edited.items())
      if (item.name == "xsbench_kernel.c")
        kernelItem = &item;
    ASSERT_NE(kernelItem, nullptr);
    EXPECT_EQ(kernelItem->cacheStatus, Session::PlanCacheStatus::Miss)
        << "dependent TU must re-plan when its imports change";
    // And the re-planned kernel TU now re-syncs results to the device
    // after each (now-writing) accumulate_stats call.
    Session *kernel = edited.sessionFor("xsbench_kernel.c");
    ASSERT_NE(kernel, nullptr);
    bool hasUpdateTo = false;
    for (const auto &region : kernel->ir().regions)
      for (const auto &update : region.updates)
        hasUpdateTo = hasUpdateTo ||
                      (update.direction == ir::UpdateDirection::To &&
                       update.item.rfind("results", 0) == 0);
    EXPECT_TRUE(hasUpdateTo);
  }
}

} // namespace
} // namespace ompdart
