// Plan-cache tests: content-addressed key stability, config-fingerprint
// sensitivity, stale-entry invalidation on source edits, warm-run
// equivalence (a cache hit must reproduce the cold run's artifacts without
// executing parse/cfg/interproc/plan), and batch-driver aggregation.
#include "cache/plan_cache.hpp"
#include "driver/batch.hpp"
#include "driver/pipeline.hpp"
#include "suite/benchmarks.hpp"
#include "support/hash.hpp"
#include "support/intern.hpp"
#include "support/version.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace ompdart {
namespace {

namespace fs = std::filesystem;

const char *const kKernelSource = R"(
#define N 64
double a[N];
double b[N];
int main() {
  for (int i = 0; i < N; ++i) {
    a[i] = i;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; ++i) {
    b[i] = a[i] * 2.0;
  }
  printf("%f\n", b[1]);
  return 0;
}
)";

const char *const kEditedSource = R"(
#define N 64
double a[N];
double b[N];
int main() {
  for (int i = 0; i < N; ++i) {
    a[i] = i + 1;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; ++i) {
    b[i] = a[i] * 2.0;
  }
  printf("%f\n", b[1]);
  return 0;
}
)";

/// RAII temp cache directory.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("ompdart-test-" + tag + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

PipelineConfig cachedConfig(const std::string &dir,
                            cache::CacheMode mode = cache::CacheMode::ReadWrite) {
  PipelineConfig config;
  config.cacheDir = dir;
  config.cacheMode = mode;
  return config;
}

TEST(StableHashTest, FingerprintIsStableAndInputSensitive) {
  // Pinned value: the hash participates in on-disk cache keys, so an
  // accidental algorithm change must fail loudly here.
  EXPECT_EQ(hash::fingerprint(""), "55c5e55dfb685f30cbf29ce484222325");
  EXPECT_EQ(hash::fingerprint("abc"), "12eea96b77d145f0e71fa2190541574b");
  EXPECT_EQ(hash::fingerprint("abc"), hash::fingerprint("abc"));
  EXPECT_NE(hash::fingerprint("abc"), hash::fingerprint("abd"));
  EXPECT_NE(hash::fingerprint("abc"), hash::fingerprint("ab"));
  hash::Hasher incremental;
  incremental.update(std::string("ab")).update(std::string("c"));
  EXPECT_EQ(incremental.hex(), hash::fingerprint("abc"));
}

TEST(CacheKeyTest, IdIsStableAcrossInstancesAndComponentSensitive) {
  cache::CacheKey key;
  key.sourceHash = hash::fingerprint(kKernelSource);
  key.configHash = planFingerprint(PipelineConfig{});
  key.toolVersion = kToolVersion;

  cache::CacheKey same = key;
  EXPECT_EQ(key.id(), same.id());

  cache::CacheKey editedSource = key;
  editedSource.sourceHash = hash::fingerprint(kEditedSource);
  EXPECT_NE(key.id(), editedSource.id());

  cache::CacheKey newerTool = key;
  newerTool.toolVersion = "99.0.0";
  EXPECT_NE(key.id(), newerTool.id());

  // Length-prefixing: shuffling bytes across component boundaries must not
  // collide.
  cache::CacheKey shifted;
  shifted.sourceHash = key.sourceHash + "a";
  shifted.configHash = key.configHash.substr(1);
  shifted.toolVersion = key.toolVersion;
  EXPECT_NE(key.id(), shifted.id());

  // Cross-TU imports join the address: a TU whose imported summaries or
  // call facts changed must miss its old entry (and only then).
  cache::CacheKey withImports = key;
  withImports.importsHash = hash::fingerprint("imports-v1");
  EXPECT_NE(key.id(), withImports.id());
  cache::CacheKey otherImports = key;
  otherImports.importsHash = hash::fingerprint("imports-v2");
  EXPECT_NE(withImports.id(), otherImports.id());
}

TEST(CacheKeyTest, ImportsChangeMissesAndInvalidatesLikeAnEdit) {
  // Same source + config under two different import fingerprints: distinct
  // entries; flipping imports back re-hits the first entry (entries are
  // immutable-valid, like content flip-backs).
  TempDir dir("imports-key");
  summary::TuImports slice;
  slice.executions["main"] = 1;
  const summary::SealedImports imports(slice);
  slice.executions["main"] = 7;
  const summary::SealedImports otherImports(slice);

  PipelineConfig config = cachedConfig(dir.str());
  config.imports = &imports;
  {
    Session cold("kernel.c", kKernelSource, config);
    cold.run();
    EXPECT_EQ(cold.planCacheStatus(), Session::PlanCacheStatus::Miss);
  }
  {
    Session warm("kernel.c", kKernelSource, config);
    warm.run();
    EXPECT_EQ(warm.planCacheStatus(), Session::PlanCacheStatus::Hit);
  }
  PipelineConfig changed = cachedConfig(dir.str());
  changed.imports = &otherImports;
  {
    Session miss("kernel.c", kKernelSource, changed);
    miss.run();
    EXPECT_EQ(miss.planCacheStatus(), Session::PlanCacheStatus::Miss);
  }
  {
    Session back("kernel.c", kKernelSource, config);
    back.run();
    EXPECT_EQ(back.planCacheStatus(), Session::PlanCacheStatus::Hit);
  }
}

TEST(PlanCacheReportTest, EmitJsonSurfacesCacheCounters) {
  // The report embeds the probe outcome and the cache's counters, so a
  // `--emit=json` run observes warm behavior without bench_cache.
  TempDir dir("report-stats");
  {
    Session cold("kernel.c", kKernelSource, cachedConfig(dir.str()));
    cold.run();
    const Report &report = cold.report();
    ASSERT_TRUE(report.planCache.has_value());
    EXPECT_EQ(report.planCache->status, "miss");
    EXPECT_EQ(report.planCache->keyId, cold.planCacheKey().id());
    EXPECT_EQ(report.planCache->misses, 1u);
    EXPECT_EQ(report.planCache->stores, 1u);
    const json::Value doc = report.toJson();
    const json::Value *cacheJson = doc.find("planCache");
    ASSERT_NE(cacheJson, nullptr);
    EXPECT_EQ(cacheJson->stringOr("status"), "miss");
    EXPECT_EQ(cacheJson->uintOr("stores"), 1u);
  }
  {
    Session warm("kernel.c", kKernelSource, cachedConfig(dir.str()));
    warm.run();
    const Report &report = warm.report();
    ASSERT_TRUE(report.planCache.has_value());
    EXPECT_EQ(report.planCache->status, "hit");
    EXPECT_EQ(report.planCache->hits, 1u);
    // Round trip preserves the cache section.
    std::string error;
    const auto round = Report::fromJson(report.toJson(), &error);
    ASSERT_TRUE(round.has_value()) << error;
    ASSERT_TRUE(round->planCache.has_value());
    EXPECT_EQ(*round->planCache, *report.planCache);
  }
  // No cache configured: the section is absent.
  {
    Session plain("kernel.c", kKernelSource, PipelineConfig{});
    plain.run();
    EXPECT_FALSE(plain.report().planCache.has_value());
    EXPECT_EQ(plain.report().toJson().find("planCache"), nullptr);
  }
}

TEST(ConfigFingerprintTest, SensitiveToEveryPlanningSwitch) {
  const PipelineConfig base;
  const std::string baseFp = planFingerprint(base);
  EXPECT_EQ(baseFp, planFingerprint(PipelineConfig{}));

  PipelineConfig flip = base;
  flip.planner.useFirstprivate = false;
  EXPECT_NE(baseFp, planFingerprint(flip));

  flip = base;
  flip.planner.hoistUpdates = false;
  EXPECT_NE(baseFp, planFingerprint(flip));

  flip = base;
  flip.planner.extendRegionOverLoops = false;
  EXPECT_NE(baseFp, planFingerprint(flip));

  flip = base;
  flip.planner.interprocedural = false;
  EXPECT_NE(baseFp, planFingerprint(flip));

  flip = base;
  flip.interprocMaxPasses = 3;
  EXPECT_NE(baseFp, planFingerprint(flip));

  // Presentation-only settings do not invalidate cached plans.
  flip = base;
  flip.includeOutputInReport = false;
  flip.stopAfter = Stage::Plan;
  flip.cacheDir = "/somewhere/else";
  flip.cacheMode = cache::CacheMode::Read;
  EXPECT_EQ(baseFp, planFingerprint(flip));
}

TEST(PlanCacheTest, WarmRunSkipsPlanStagesAndReproducesArtifacts) {
  TempDir dir("warm");

  Session cold("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(cold.run());
  EXPECT_EQ(cold.planCacheStatus(), Session::PlanCacheStatus::Miss);
  EXPECT_FALSE(cold.planFromCache());
  EXPECT_EQ(cold.stageRuns(Stage::Parse), 1u);
  EXPECT_EQ(cold.stageRuns(Stage::Plan), 1u);

  Session warm("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(warm.run());
  EXPECT_EQ(warm.planCacheStatus(), Session::PlanCacheStatus::Hit);
  EXPECT_TRUE(warm.planFromCache());
  // The hit skips the front half of the pipeline entirely.
  EXPECT_EQ(warm.stageRuns(Stage::Parse), 0u);
  EXPECT_EQ(warm.stageRuns(Stage::Cfg), 0u);
  EXPECT_EQ(warm.stageRuns(Stage::Interproc), 0u);
  EXPECT_EQ(warm.stageRuns(Stage::Plan), 0u);
  EXPECT_EQ(warm.stageRuns(Stage::Rewrite), 1u);

  // Same key, same artifacts: IR, rewrite, metrics, diagnostics.
  EXPECT_EQ(warm.planCacheKey().id(), cold.planCacheKey().id());
  EXPECT_EQ(warm.ir(), cold.ir());
  EXPECT_EQ(warm.rewrite(), cold.rewrite());
  EXPECT_EQ(warm.metrics(), cold.metrics());
  EXPECT_EQ(warm.report().diagnostics, cold.report().diagnostics);
  EXPECT_EQ(warm.report().plan, cold.report().plan);
}

TEST(PlanCacheTest, ReadModeNeverPopulates) {
  TempDir dir("readonly");
  Session session("prog.c", kKernelSource,
                  cachedConfig(dir.str(), cache::CacheMode::Read));
  ASSERT_TRUE(session.run());
  EXPECT_EQ(session.planCacheStatus(), Session::PlanCacheStatus::Miss);
  EXPECT_FALSE(fs::exists(dir.path / "plans"));

  Session again("prog.c", kKernelSource,
                cachedConfig(dir.str(), cache::CacheMode::Read));
  ASSERT_TRUE(again.run());
  EXPECT_EQ(again.planCacheStatus(), Session::PlanCacheStatus::Miss);
}

TEST(PlanCacheTest, SourceEditInvalidatesAndReplansFreshly) {
  TempDir dir("stale");
  cache::PlanCache shared(dir.str(), cache::CacheMode::ReadWrite);

  PipelineConfig config;
  config.planCache = &shared;
  Session original("prog.c", kKernelSource, config);
  ASSERT_TRUE(original.run());
  const std::string originalEntry =
      shared.entryPathFor(original.planCacheKey());
  EXPECT_TRUE(fs::exists(originalEntry));

  // Editing the source changes the content address: the lookup misses,
  // the file's index row is invalidated, and the fresh plan is stored
  // under the new key. The superseded entry FILE stays — entries are
  // immutable-valid and may be re-hit by a flip back.
  Session edited("prog.c", kEditedSource, config);
  ASSERT_TRUE(edited.run());
  EXPECT_EQ(edited.planCacheStatus(), Session::PlanCacheStatus::Miss);
  EXPECT_NE(edited.planCacheKey().id(), original.planCacheKey().id());

  const cache::CacheStats stats = shared.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.stores, 2u);
  EXPECT_TRUE(fs::exists(originalEntry));
  EXPECT_TRUE(fs::exists(shared.entryPathFor(edited.planCacheKey())));

  // The edited program replays warm afterwards.
  Session warm("prog.c", kEditedSource, config);
  ASSERT_TRUE(warm.run());
  EXPECT_EQ(warm.planCacheStatus(), Session::PlanCacheStatus::Hit);
  EXPECT_EQ(warm.rewrite(), edited.rewrite());

  // Reverting the edit (branch switch, undo) re-hits the original entry.
  Session reverted("prog.c", kKernelSource, config);
  ASSERT_TRUE(reverted.run());
  EXPECT_EQ(reverted.planCacheStatus(), Session::PlanCacheStatus::Hit);
  EXPECT_EQ(reverted.rewrite(), original.rewrite());
}

TEST(PlanCacheTest, EditingOneFileKeepsIdenticalTwinCached) {
  // Identical sources share one content-addressed entry. Invalidating one
  // file's stale index row must not unlink the entry out from under the
  // twin whose key is still valid.
  TempDir dir("twin");
  cache::PlanCache shared(dir.str(), cache::CacheMode::ReadWrite);
  PipelineConfig config;
  config.planCache = &shared;

  Session a("a.c", kKernelSource, config);
  ASSERT_TRUE(a.run());
  Session b("b.c", kKernelSource, config);
  ASSERT_TRUE(b.run());
  EXPECT_EQ(b.planCacheStatus(), Session::PlanCacheStatus::Hit);

  Session aEdited("a.c", kEditedSource, config);
  ASSERT_TRUE(aEdited.run());
  EXPECT_EQ(aEdited.planCacheStatus(), Session::PlanCacheStatus::Miss);
  EXPECT_EQ(shared.stats().invalidations, 1u);

  // b.c's entry survived a.c's invalidation.
  Session bWarm("b.c", kKernelSource, config);
  ASSERT_TRUE(bWarm.run());
  EXPECT_EQ(bWarm.planCacheStatus(), Session::PlanCacheStatus::Hit);
}

TEST(PlanCacheTest, ConfigFlipMissesWithoutCrossContamination) {
  TempDir dir("config");
  Session defaultRun("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(defaultRun.run());

  PipelineConfig ablated = cachedConfig(dir.str());
  ablated.planner.useFirstprivate = false;
  Session ablatedRun("prog.c", kKernelSource, ablated);
  ASSERT_TRUE(ablatedRun.run());
  EXPECT_EQ(ablatedRun.planCacheStatus(), Session::PlanCacheStatus::Miss);
  EXPECT_NE(ablatedRun.planCacheKey().id(), defaultRun.planCacheKey().id());
}

TEST(PlanCacheTest, AlternatingConfigsKeepBothEntriesWarm) {
  // A config flip is not a source edit: each config gets its own index
  // row, so A-B config traffic over one file must warm both ways instead
  // of invalidating the other config's (still valid) entry.
  TempDir dir("alternate");
  PipelineConfig ablated = cachedConfig(dir.str());
  ablated.planner.hoistUpdates = false;

  Session coldDefault("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(coldDefault.run());
  Session coldAblated("prog.c", kKernelSource, ablated);
  ASSERT_TRUE(coldAblated.run());

  Session warmDefault("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(warmDefault.run());
  EXPECT_EQ(warmDefault.planCacheStatus(), Session::PlanCacheStatus::Hit);
  Session warmAblated("prog.c", kKernelSource, ablated);
  ASSERT_TRUE(warmAblated.run());
  EXPECT_EQ(warmAblated.planCacheStatus(), Session::PlanCacheStatus::Hit);

  cache::PlanCache probe(dir.str(), cache::CacheMode::Read);
  EXPECT_EQ(probe.stats().invalidations, 0u);
}

TEST(PlanCacheTest, WarmStopAfterPlanReportMatchesColdStoppedAfter) {
  // buildReport derives stoppedAfter from executed stages; a hydrated plan
  // never executes, but the stage was reached — warm reports must agree
  // with cold ones.
  TempDir dir("stopafter");
  PipelineConfig config = cachedConfig(dir.str());
  config.stopAfter = Stage::Plan;

  Session cold("prog.c", kKernelSource, config);
  ASSERT_TRUE(cold.run());
  EXPECT_EQ(cold.report().stoppedAfter, "plan");

  Session warm("prog.c", kKernelSource, config);
  ASSERT_TRUE(warm.run());
  EXPECT_EQ(warm.planCacheStatus(), Session::PlanCacheStatus::Hit);
  EXPECT_EQ(warm.report().stoppedAfter, "plan");
  EXPECT_EQ(warm.report().plan, cold.report().plan);
}

TEST(PlanCacheTest, CorruptedEntryIsRejectedNotReplayed) {
  TempDir dir("corrupt");
  Session cold("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(cold.run());
  cache::PlanCache probe(dir.str(), cache::CacheMode::ReadWrite);
  const std::string path = probe.entryPathFor(cold.planCacheKey());
  ASSERT_TRUE(fs::exists(path));
  // Tamper with the stored IR: the integrity fingerprint must reject it.
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const auto pos = text.find("\"regions\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"regionsX\"");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  Session warm("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(warm.run());
  EXPECT_EQ(warm.planCacheStatus(), Session::PlanCacheStatus::Miss);
  EXPECT_EQ(warm.rewrite(), cold.rewrite()); // replanned fresh, same output
}

// Tool version 0.4.0 planned inputs that later rules refuse: an unknown
// pointer extent was a warning (the plan mapped `p[0:0]`), and a kernel
// that already carries `map` clauses was re-planned. It stored those runs
// as successes. Such entries must miss, so the refusal is what a cache
// user sees, not the old plan.
TEST(PlanCacheTest, EntriesFromBeforeTheFailClosedRulesMiss) {
  const std::string unknownExtent = R"(
void f(double *p, int k, int n) {
  for (int t = 0; t < n; ++t) {
    #pragma omp target
    {
      p[k] = t;
    }
    p[k] += 1.0;
    #pragma omp target
    {
      p[k] *= 2.0;
    }
  }
}
)";
  const suite::BenchmarkDef *hotspot = suite::findBenchmark("hotspot");
  ASSERT_NE(hotspot, nullptr);
  Session first("hotspot.c", hotspot->unoptimized);
  ASSERT_TRUE(first.run());
  const std::string hotspotRewrite = first.rewrite();

  struct Input {
    std::string name;
    std::string source;
    std::vector<Diagnostic> diagnostics; // what 0.4.0 replayed on a hit
  };
  const std::vector<Input> inputs = {
      {"extent.c", unknownExtent,
       {{Severity::Warning, SourceLocation{},
         "cannot determine extent of pointer 'p'; mapping requires a known "
         "allocation size"}}},
      {"hotspot.c", hotspotRewrite, {}},
  };
  for (const Input &input : inputs) {
    for (const bool current : {false, true}) {
      TempDir dir("pre-fail-closed");
      cache::PlanCache planCache(dir.str(), cache::CacheMode::ReadWrite);
      cache::CacheKey key;
      key.sourceHash = hash::fingerprint(input.source);
      key.configHash = planFingerprint(PipelineConfig{});
      key.toolVersion = current ? kToolVersion : "0.4.0";
      // The stored IR stays empty: an entry under a matching key is served
      // as a success whatever plan it holds.
      cache::CacheEntry entry;
      entry.fileName = input.name;
      entry.diagnostics = input.diagnostics;
      entry.irFingerprint = entry.ir.fingerprint();
      planCache.store(key, entry);

      PipelineConfig config;
      config.planCache = &planCache;
      Session session(input.name, input.source, config);
      const bool ok = session.run();
      if (current) {
        // Control: the same entry under the current key is served, so the
        // version alone is what turns the old entry into a miss.
        EXPECT_EQ(session.planCacheStatus(), Session::PlanCacheStatus::Hit)
            << input.name;
        continue;
      }
      EXPECT_EQ(session.planCacheStatus(), Session::PlanCacheStatus::Miss)
          << input.name;
      EXPECT_FALSE(ok) << input.name;
      EXPECT_EQ(session.rewrite(), input.source) << input.name;
    }
  }
}

TEST(PlanCacheTest, EntryJsonRoundTripsThroughDisk) {
  TempDir dir("roundtrip");
  Session cold("prog.c", kKernelSource, cachedConfig(dir.str()));
  ASSERT_TRUE(cold.run());

  cache::PlanCache reader(dir.str(), cache::CacheMode::Read);
  auto entry = reader.lookup(cold.planCacheKey(), "prog.c");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->ir, cold.ir());
  EXPECT_EQ(entry->metrics, cold.metrics());
  EXPECT_EQ(entry->irFingerprint, cold.ir().fingerprint());
  EXPECT_EQ(entry->fileName, "prog.c");
}

TEST(BatchCacheTest, SecondBatchIsFullyWarmWithIdenticalOutputs) {
  TempDir dir("batch");
  std::vector<BatchJob> jobs;
  for (const auto &def : suite::allBenchmarks())
    jobs.push_back({def.name, def.name + ".c", def.unoptimized});

  BatchDriver::Options options;
  options.config.cacheDir = dir.str();
  options.config.cacheMode = cache::CacheMode::ReadWrite;
  BatchDriver driver(options);

  const BatchResult cold = driver.run(jobs);
  EXPECT_EQ(cold.stats.succeeded, cold.stats.jobs);
  EXPECT_EQ(cold.stats.planCacheMisses, cold.stats.jobs);
  EXPECT_EQ(cold.stats.planCacheStores, cold.stats.jobs);
  EXPECT_FALSE(cold.stats.fullyWarm());

  const BatchResult warm = driver.run(jobs);
  EXPECT_EQ(warm.stats.succeeded, warm.stats.jobs);
  EXPECT_EQ(warm.stats.planCacheHits, warm.stats.jobs);
  EXPECT_TRUE(warm.stats.fullyWarm());
  // The warm pass must not execute any pre-rewrite stage.
  for (const Stage stage :
       {Stage::Parse, Stage::Cfg, Stage::Interproc, Stage::Plan})
    EXPECT_EQ(warm.stats.stageRuns[static_cast<unsigned>(stage)], 0u)
        << stageName(stage);

  ASSERT_EQ(warm.items.size(), cold.items.size());
  for (std::size_t i = 0; i < cold.items.size(); ++i) {
    EXPECT_TRUE(warm.items[i].planCacheHit()) << cold.items[i].name;
    EXPECT_EQ(warm.items[i].output, cold.items[i].output)
        << cold.items[i].name;
    EXPECT_EQ(warm.items[i].report.plan, cold.items[i].report.plan)
        << cold.items[i].name;
    EXPECT_EQ(warm.items[i].report.metrics, cold.items[i].report.metrics)
        << cold.items[i].name;
    EXPECT_EQ(warm.items[i].report.diagnostics,
              cold.items[i].report.diagnostics)
        << cold.items[i].name;
  }
}

// -------------------------------------------------------------------------
// Sharded index layout
// -------------------------------------------------------------------------

cache::CacheKey syntheticKey(int i) {
  cache::CacheKey key;
  key.sourceHash = "source-" + std::to_string(i);
  key.configHash = "config";
  key.toolVersion = kToolVersion;
  return key;
}

cache::CacheEntry syntheticEntry(int i) {
  cache::CacheEntry entry;
  entry.fileName = "file-" + std::to_string(i) + ".c";
  entry.irFingerprint = entry.ir.fingerprint();
  return entry;
}

/// Parses every index-NN.json under `dir`; returns row -> id across all
/// shards, asserting each row lives in the shard its stable hash selects.
std::map<std::string, std::string> readShardRows(const fs::path &dir) {
  std::map<std::string, std::string> rows;
  for (unsigned shard = 0; shard < cache::PlanCache::kIndexShards;
       ++shard) {
    char name[32];
    std::snprintf(name, sizeof(name), "index-%02u.json", shard);
    std::ifstream in(dir / name);
    if (!in.is_open())
      continue;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto doc = json::Value::parse(buffer.str());
    if (!doc.has_value() || !doc->isObject())
      continue;
    for (const auto &[row, id] : doc->members()) {
      EXPECT_EQ(cache::PlanCache::shardOf(row), shard) << row;
      rows[row] = id.asString();
    }
  }
  return rows;
}

TEST(ShardedIndexTest, ShardAssignmentIsStableAndInRange) {
  for (int i = 0; i < 256; ++i) {
    const std::string row = "file-" + std::to_string(i) + ".c\nconfig";
    const unsigned shard = cache::PlanCache::shardOf(row);
    EXPECT_LT(shard, cache::PlanCache::kIndexShards);
    // Pure function of the row bytes: every process sharing a cache
    // directory must compute the same shard.
    EXPECT_EQ(cache::PlanCache::shardOf(row), shard);
  }
  // The hash must actually stripe: 256 distinct rows landing in one shard
  // would mean the striping (and the per-shard locking) is decorative.
  std::set<unsigned> used;
  for (int i = 0; i < 256; ++i)
    used.insert(cache::PlanCache::shardOf("row-" + std::to_string(i)));
  EXPECT_GT(used.size(), cache::PlanCache::kIndexShards / 2);
}

TEST(ShardedIndexTest, RowsRoundTripThroughShardFiles) {
  TempDir dir("shard-roundtrip");
  constexpr int kEntries = 40;
  {
    cache::PlanCache cacheA(dir.str(), cache::CacheMode::ReadWrite);
    for (int i = 0; i < kEntries; ++i)
      cacheA.store(syntheticKey(i), syntheticEntry(i));
  } // destructor flushes the index shards

  ASSERT_FALSE(fs::exists(dir.path / "index.json"));
  const std::map<std::string, std::string> rows = readShardRows(dir.path);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(kEntries));

  cache::PlanCache cacheB(dir.str(), cache::CacheMode::Read);
  for (int i = 0; i < kEntries; ++i) {
    const auto entry =
        cacheB.lookup(syntheticKey(i), syntheticEntry(i).fileName);
    EXPECT_TRUE(entry.has_value()) << i;
  }
  EXPECT_EQ(cacheB.stats().hits, static_cast<std::uint64_t>(kEntries));
}

TEST(ShardedIndexTest, ConcurrentWritersMergeLosslessly) {
  TempDir dir("shard-merge");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 25;
  {
    // Each writer is its own PlanCache instance on the shared directory —
    // the multi-process topology, compressed into threads. Every row must
    // survive the merge-on-save; a clobbering writer would drop rows.
    std::vector<std::unique_ptr<cache::PlanCache>> writers;
    for (int w = 0; w < kWriters; ++w)
      writers.push_back(std::make_unique<cache::PlanCache>(
          dir.str(), cache::CacheMode::ReadWrite));
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          const int id = w * kPerWriter + i;
          writers[w]->store(syntheticKey(id), syntheticEntry(id));
          if (i % 8 == 0)
            writers[w]->flushIndex(); // interleave disk merges mid-stream
        }
      });
    }
    for (std::thread &t : threads)
      t.join();
  } // all writers flush on destruction, merging each other's rows

  const std::map<std::string, std::string> rows = readShardRows(dir.path);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(kWriters * kPerWriter));

  cache::PlanCache reader(dir.str(), cache::CacheMode::Read);
  for (int id = 0; id < kWriters * kPerWriter; ++id)
    EXPECT_TRUE(
        reader.lookup(syntheticKey(id), syntheticEntry(id).fileName)
            .has_value())
        << id;
}

TEST(ShardedIndexTest, LegacyMonolithicIndexIsACleanMiss) {
  TempDir dir("shard-legacy");
  // Lay out a pre-sharding cache: entry 0 on disk, its row only in one
  // monolithic index.json, no shard files.
  {
    cache::PlanCache writer(dir.str(), cache::CacheMode::ReadWrite);
    writer.store(syntheticKey(0), syntheticEntry(0));
  }
  const std::map<std::string, std::string> rows = readShardRows(dir.path);
  ASSERT_EQ(rows.size(), 1u);
  json::Value legacy = json::Value::object();
  for (const auto &[row, id] : rows)
    legacy.set(row, json::Value(id));
  const std::string legacyText = legacy.dump(true);
  {
    std::ofstream out(dir.path / "index.json");
    out << legacyText;
  }
  for (unsigned shard = 0; shard < cache::PlanCache::kIndexShards;
       ++shard) {
    char name[32];
    std::snprintf(name, sizeof(name), "index-%02u.json", shard);
    fs::remove(dir.path / name);
  }
  ASSERT_TRUE(readShardRows(dir.path).empty());

  // The legacy row is never read: an edited source for the same file is a
  // plain miss, not an invalidation of the legacy row.
  cache::CacheKey editedKey = syntheticKey(0);
  editedKey.sourceHash = "source-0-edited";
  {
    cache::PlanCache fresh(dir.str(), cache::CacheMode::ReadWrite);
    EXPECT_FALSE(
        fresh.lookup(editedKey, syntheticEntry(0).fileName).has_value());
    EXPECT_EQ(fresh.stats().misses, 1u);
    EXPECT_EQ(fresh.stats().invalidations, 0u);
    fresh.store(editedKey, syntheticEntry(0));
  }

  // The fresh store lands in a shard file and leaves index.json untouched.
  const std::map<std::string, std::string> shardRows =
      readShardRows(dir.path);
  ASSERT_EQ(shardRows.size(), 1u);
  EXPECT_EQ(shardRows.begin()->second, editedKey.id());
  std::ifstream in(dir.path / "index.json");
  std::stringstream onDisk;
  onDisk << in.rdbuf();
  EXPECT_EQ(onDisk.str(), legacyText);
  cache::PlanCache reader(dir.str(), cache::CacheMode::Read);
  EXPECT_TRUE(
      reader.lookup(editedKey, syntheticEntry(0).fileName).has_value());
}

TEST(ShardedIndexTest, MemoServesRepeatLookupsAndDropMemosForcesDisk) {
  TempDir dir("shard-memo");
  cache::PlanCache planCache(dir.str(), cache::CacheMode::ReadWrite);
  planCache.store(syntheticKey(0), syntheticEntry(0));
  // store() memoizes, so the first lookup is already a memo hit.
  EXPECT_TRUE(planCache.lookup(syntheticKey(0), "file-0.c").has_value());
  EXPECT_EQ(planCache.stats().memoHits, 1u);
  planCache.dropMemos();
  // Post-drop the lookup revalidates against disk (no new memo hit) and
  // re-memoizes, so the one after is served from memory again.
  EXPECT_TRUE(planCache.lookup(syntheticKey(0), "file-0.c").has_value());
  EXPECT_EQ(planCache.stats().memoHits, 1u);
  EXPECT_TRUE(planCache.lookup(syntheticKey(0), "file-0.c").has_value());
  EXPECT_EQ(planCache.stats().memoHits, 2u);
  EXPECT_EQ(planCache.stats().hits, 3u);
}

TEST(ShardedIndexTest, EditedRequestsDoNotGrowTheSymbolTable) {
  // Interned names are never freed, so a cache that interned its keys would
  // leak one symbol per edited request in a long-lived server: each edit
  // misses, stores the new plan and summary, and later hits them; an
  // invalidation drops the memos and the same keys are memoized again.
  TempDir dir("miss-intern");
  cache::PlanCache planCache(dir.str(), cache::CacheMode::ReadWrite);
  const json::Value summary = json::Value::object();
  auto editedKey = [](int i) {
    cache::CacheKey key = syntheticKey(0);
    key.sourceHash = "edited-" + std::to_string(i);
    return key;
  };
  const std::size_t before = SymbolTable::global().size();
  constexpr int kEdits = 1000;
  for (int i = 0; i < kEdits; ++i) {
    const cache::CacheKey key = editedKey(i);
    EXPECT_FALSE(planCache.lookup(key, "file-0.c").has_value());
    EXPECT_FALSE(planCache.lookupSummary(key).has_value());
    planCache.store(key, syntheticEntry(0));
    planCache.storeSummary(key, summary);
    EXPECT_TRUE(planCache.lookup(key, "file-0.c").has_value());
    EXPECT_TRUE(planCache.lookupSummary(key).has_value());
  }
  planCache.dropMemos();
  for (int i = 0; i < kEdits; ++i) {
    EXPECT_TRUE(planCache.lookup(editedKey(i), "file-0.c").has_value());
    EXPECT_TRUE(planCache.lookupSummary(editedKey(i)).has_value());
  }
  EXPECT_EQ(SymbolTable::global().size(), before);
  const cache::CacheStats stats = planCache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kEdits));
  EXPECT_EQ(stats.summaryMisses, static_cast<std::uint64_t>(kEdits));
  EXPECT_EQ(stats.memoHits, static_cast<std::uint64_t>(kEdits));
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(2 * kEdits));
}

TEST(BatchCacheTest, WarmupPassesPrepopulateTheMeasuredRun) {
  TempDir dir("warmup");
  std::vector<BatchJob> jobs;
  for (const auto &def : suite::allBenchmarks())
    jobs.push_back({def.name, def.name + ".c", def.unoptimized});

  BatchDriver::Options options;
  options.config.cacheDir = dir.str();
  options.config.cacheMode = cache::CacheMode::ReadWrite;
  options.warmupPasses = 1;
  const BatchResult measured = BatchDriver(options).run(jobs);
  EXPECT_TRUE(measured.stats.fullyWarm());
}

} // namespace
} // namespace ompdart
