#include "driver/batch.hpp"

#include "driver/project.hpp"
#include "gen/shrink.hpp"
#include "interp/interp.hpp"
#include "suite/benchmarks.hpp"
#include "support/hash.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

namespace ompdart {

json::Value BatchStats::toJson() const {
  json::Value out = json::Value::object();
  out.set("jobs", jobs);
  out.set("succeeded", succeeded);
  out.set("failed", failed);
  out.set("threads", threads);
  out.set("wallSeconds", wallSeconds);
  out.set("cpuSeconds", cpuSeconds);
  out.set("speedup", speedup());
  json::Value stages = json::Value::object();
  for (const Stage stage : allStages())
    stages.set(stageName(stage), stageSeconds[static_cast<unsigned>(stage)]);
  out.set("stageSeconds", std::move(stages));
  json::Value runs = json::Value::object();
  for (const Stage stage : allStages())
    runs.set(stageName(stage), stageRuns[static_cast<unsigned>(stage)]);
  out.set("stageRuns", std::move(runs));
  json::Value cacheJson = json::Value::object();
  cacheJson.set("hits", planCacheHits);
  cacheJson.set("misses", planCacheMisses);
  cacheJson.set("stores", planCacheStores);
  cacheJson.set("invalidations", planCacheInvalidations);
  out.set("planCache", std::move(cacheJson));
  return out;
}

json::Value FuzzStats::toJson() const {
  json::Value out = json::Value::object();
  out.set("programs", programs);
  out.set("ran", ran);
  out.set("passed", passed);
  out.set("failed", failed);
  out.set("skippedByTimeBox", skippedByTimeBox);
  out.set("provable", provable);
  out.set("multiTu", multiTu);
  out.set("threads", threads);
  out.set("wallSeconds", wallSeconds);
  out.set("baselineBytes", baselineBytes);
  out.set("planBytes", planBytes);
  json::Value cacheJson = json::Value::object();
  cacheJson.set("hits", planCacheHits);
  cacheJson.set("misses", planCacheMisses);
  out.set("planCache", std::move(cacheJson));
  return out;
}

FuzzResult BatchDriver::runFuzz(const FuzzOptions &fuzz) const {
  FuzzResult result;
  result.stats.programs = fuzz.count;
  if (fuzz.count == 0)
    return result;

  // Generation is cheap and deterministic; do it up front so the corpus is
  // fixed before any scheduling nondeterminism can matter.
  const std::vector<gen::GeneratedProgram> corpus =
      gen::generateCorpus(fuzz.baseSeed, fuzz.count, fuzz.gen);

  // One shared cache across the oracle sessions, exactly like run().
  std::unique_ptr<cache::PlanCache> ownedCache;
  cache::PlanCache *sharedCache = options_.config.planCache;
  if (sharedCache == nullptr && !options_.config.cacheDir.empty() &&
      options_.config.cacheMode != cache::CacheMode::Off) {
    ownedCache = std::make_unique<cache::PlanCache>(
        options_.config.cacheDir, options_.config.cacheMode);
    sharedCache = ownedCache.get();
  }

  unsigned threadCount = options_.threads;
  if (threadCount == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    threadCount = hardware > 0 ? hardware : 2;
  }
  if (threadCount > fuzz.count)
    threadCount = fuzz.count;
  result.stats.threads = threadCount;

  result.items.resize(corpus.size());
  const auto wallStart = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};

  auto worker = [&]() {
    while (true) {
      const std::size_t index = cursor.fetch_add(1);
      if (index >= corpus.size())
        return;
      const gen::GeneratedProgram &program = corpus[index];
      FuzzItem &item = result.items[index];
      item.name = program.name;
      item.seed = program.seed;
      item.provableTrips = program.provableTrips;
      item.multiTu = program.multiTu();
      if (fuzz.timeBoxSeconds > 0.0) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   wallStart)
                                   .count();
        if (elapsed >= fuzz.timeBoxSeconds)
          continue; // time box expired: leave ran == false
      }
      verify::OracleOptions oracleOptions;
      oracleOptions.pipeline = options_.config;
      oracleOptions.pipeline.planCache = sharedCache;
      oracleOptions.interp = fuzz.interp;
      oracleOptions.checkPredicted = fuzz.checkPredicted;
      oracleOptions.checkRewrite = fuzz.checkRewrite;
      item.verdict = verify::runOracle(program, oracleOptions);
      item.ran = true;
    }
  };

  if (threadCount == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(threadCount);
    for (unsigned i = 0; i < threadCount; ++i)
      threads.emplace_back(worker);
    for (std::thread &thread : threads)
      thread.join();
  }

  // Failure collection (and shrinking) runs sequentially in seed order so
  // the report is deterministic regardless of worker scheduling.
  for (std::size_t index = 0; index < corpus.size(); ++index) {
    const gen::GeneratedProgram &program = corpus[index];
    const FuzzItem &item = result.items[index];
    if (!item.ran) {
      ++result.stats.skippedByTimeBox;
      continue;
    }
    ++result.stats.ran;
    if (item.provableTrips)
      ++result.stats.provable;
    if (item.multiTu)
      ++result.stats.multiTu;
    result.stats.baselineBytes += item.verdict.baselineBytes;
    result.stats.planBytes += item.verdict.planBytes;
    if (item.verdict.cacheStatus == Session::PlanCacheStatus::Hit)
      ++result.stats.planCacheHits;
    else if (item.verdict.cacheStatus == Session::PlanCacheStatus::Miss)
      ++result.stats.planCacheMisses;
    if (item.verdict.ok) {
      ++result.stats.passed;
      continue;
    }
    ++result.stats.failed;

    FuzzFailure failure;
    failure.name = program.name;
    failure.seed = program.seed;
    failure.divergence = item.verdict.divergence();
    failure.source = program.combined();
    if (fuzz.shrinkFailures) {
      verify::OracleOptions oracleOptions;
      oracleOptions.pipeline = options_.config;
      oracleOptions.pipeline.planCache = nullptr; // candidates churn
      oracleOptions.interp = fuzz.interp;
      oracleOptions.checkPredicted = fuzz.checkPredicted;
      oracleOptions.checkRewrite = fuzz.checkRewrite;
      const bool provable = program.provableTrips;
      const gen::ShrinkResult shrunk = gen::shrinkProgram(
          failure.source,
          [&](const std::string &candidate) {
            const verify::OracleVerdict verdict = verify::runOracle(
                "shrink.c", candidate, provable, oracleOptions);
            return verdict.pipelineOk && !verdict.ok;
          });
      // A pipeline-dead failure never satisfies the predicate (it demands
      // a *runnable* divergence), so shrinkProgram returns the input
      // unchanged — report that honestly as "not shrunken" instead of
      // passing the full program off as a minimized repro.
      if (shrunk.reduced())
        failure.shrunken = shrunk.source;
      failure.originalStatements = shrunk.originalStatements;
      failure.shrunkenStatements = shrunk.finalStatements;
    }
    result.failures.push_back(std::move(failure));
  }

  result.stats.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  return result;
}

BatchResult BatchDriver::run(const std::vector<BatchJob> &jobs) const {
  // One shared cache instance for the whole batch (and its warm-up passes):
  // concurrent sessions then serialize on its mutex for lookups/stores, and
  // hit/store counters aggregate in one place.
  std::unique_ptr<cache::PlanCache> ownedCache;
  cache::PlanCache *sharedCache = options_.config.planCache;
  if (sharedCache == nullptr && !options_.config.cacheDir.empty() &&
      options_.config.cacheMode != cache::CacheMode::Off) {
    ownedCache = std::make_unique<cache::PlanCache>(
        options_.config.cacheDir, options_.config.cacheMode);
    sharedCache = ownedCache.get();
  }
  for (unsigned pass = 0; pass < options_.warmupPasses; ++pass)
    (void)runOnce(jobs, sharedCache);
  return runOnce(jobs, sharedCache);
}

BatchResult BatchDriver::runProject(const std::vector<BatchJob> &jobs) const {
  BatchResult result;
  result.stats.jobs = static_cast<unsigned>(jobs.size());
  if (jobs.empty())
    return result;

  ProjectManifest manifest;
  manifest.name = "batch-project";
  for (const BatchJob &job : jobs) {
    ProjectTu tu;
    tu.name = job.name;
    tu.fileName = job.fileName.empty() ? job.name : job.fileName;
    tu.source = job.source;
    manifest.tus.push_back(std::move(tu));
  }

  unsigned threadCount = options_.threads;
  if (threadCount == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    threadCount = hardware > 0 ? hardware : 2;
  }
  if (threadCount > jobs.size())
    threadCount = static_cast<unsigned>(jobs.size());
  result.stats.threads = threadCount;

  // One shared cache instance for the project and its warm-up passes, as
  // in the independent-job path, so hit/store counters aggregate.
  std::unique_ptr<cache::PlanCache> ownedCache;
  PipelineConfig config = options_.config;
  if (config.planCache == nullptr && !config.cacheDir.empty() &&
      config.cacheMode != cache::CacheMode::Off) {
    ownedCache = std::make_unique<cache::PlanCache>(config.cacheDir,
                                                    config.cacheMode);
    config.planCache = ownedCache.get();
  }
  ProjectSession::Options projectOptions;
  projectOptions.threads = threadCount;
  ProjectSession project(std::move(manifest), config, projectOptions);

  // Warm-up passes populate the cache but stay outside the measured wall
  // time and counter deltas, matching the independent-job path.
  for (unsigned pass = 0; pass < options_.warmupPasses; ++pass) {
    ProjectSession warmup(project.manifest(), config, projectOptions);
    (void)warmup.run();
  }
  const cache::CacheStats cacheBefore = config.planCache != nullptr
                                            ? config.planCache->stats()
                                            : cache::CacheStats{};
  const auto wallStart = std::chrono::steady_clock::now();
  (void)project.run();
  const auto wallEnd = std::chrono::steady_clock::now();
  result.stats.wallSeconds =
      std::chrono::duration<double>(wallEnd - wallStart).count();
  if (config.planCache != nullptr) {
    const cache::CacheStats cacheAfter = config.planCache->stats();
    result.stats.planCacheStores = cacheAfter.stores - cacheBefore.stores;
    result.stats.planCacheInvalidations =
        cacheAfter.invalidations - cacheBefore.invalidations;
  }

  result.projectSchedule = project.scheduleOrder();
  for (const ProjectItem &projectItem : project.items()) {
    BatchItem item;
    item.name = projectItem.name;
    item.success = projectItem.success;
    item.report = projectItem.report;
    item.output = projectItem.output;
    item.cacheStatus = projectItem.cacheStatus;
    result.items.push_back(std::move(item));
  }
  for (const BatchItem &item : result.items) {
    if (item.success)
      ++result.stats.succeeded;
    else
      ++result.stats.failed;
    result.stats.cpuSeconds += item.report.totalSeconds;
    for (const StageTiming &timing : item.report.timings) {
      result.stats.stageSeconds[static_cast<unsigned>(timing.stage)] +=
          timing.seconds;
      result.stats.stageRuns[static_cast<unsigned>(timing.stage)] +=
          timing.runs;
    }
    if (item.cacheStatus == Session::PlanCacheStatus::Hit)
      ++result.stats.planCacheHits;
    else if (item.cacheStatus == Session::PlanCacheStatus::Miss)
      ++result.stats.planCacheMisses;
  }
  return result;
}

BatchResult BatchDriver::runOnce(const std::vector<BatchJob> &jobs,
                                 cache::PlanCache *sharedCache) const {
  BatchResult result;
  result.items.resize(jobs.size());
  result.stats.jobs = static_cast<unsigned>(jobs.size());
  if (jobs.empty())
    return result;

  unsigned threadCount = options_.threads;
  if (threadCount == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    threadCount = hardware > 0 ? hardware : 2;
  }
  if (threadCount > jobs.size())
    threadCount = static_cast<unsigned>(jobs.size());
  result.stats.threads = threadCount;

  const cache::CacheStats cacheBefore =
      sharedCache != nullptr ? sharedCache->stats() : cache::CacheStats{};
  const auto wallStart = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};

  auto worker = [&]() {
    while (true) {
      const std::size_t index = cursor.fetch_add(1);
      if (index >= jobs.size())
        return;
      const BatchJob &job = jobs[index];
      PipelineConfig config = options_.config;
      config.planCache = sharedCache;
      Session session(job.fileName.empty() ? job.name : job.fileName,
                      job.source, config);
      BatchItem &item = result.items[index];
      item.name = job.name;
      item.success = session.run();
      item.report = session.report();
      item.cacheStatus = session.planCacheStatus();
      // Respect stopAfter: only read the transformed source when the
      // rewrite stage actually ran.
      if (session.stageRuns(Stage::Rewrite) > 0)
        item.output = session.rewrite();
    }
  };

  if (threadCount == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(threadCount);
    for (unsigned i = 0; i < threadCount; ++i)
      threads.emplace_back(worker);
    for (std::thread &thread : threads)
      thread.join();
  }

  const auto wallEnd = std::chrono::steady_clock::now();
  result.stats.wallSeconds =
      std::chrono::duration<double>(wallEnd - wallStart).count();
  for (const BatchItem &item : result.items) {
    if (item.success)
      ++result.stats.succeeded;
    else
      ++result.stats.failed;
    result.stats.cpuSeconds += item.report.totalSeconds;
    for (const StageTiming &timing : item.report.timings) {
      result.stats.stageSeconds[static_cast<unsigned>(timing.stage)] +=
          timing.seconds;
      result.stats.stageRuns[static_cast<unsigned>(timing.stage)] +=
          timing.runs;
    }
    if (item.cacheStatus == Session::PlanCacheStatus::Hit)
      ++result.stats.planCacheHits;
    else if (item.cacheStatus == Session::PlanCacheStatus::Miss)
      ++result.stats.planCacheMisses;
  }
  if (sharedCache != nullptr) {
    const cache::CacheStats cacheAfter = sharedCache->stats();
    result.stats.planCacheStores = cacheAfter.stores - cacheBefore.stores;
    result.stats.planCacheInvalidations =
        cacheAfter.invalidations - cacheBefore.invalidations;
  }
  return result;
}

std::vector<BatchJob> coldJobs() {
  std::vector<BatchJob> jobs;
  for (const auto &def : suite::allBenchmarks())
    jobs.push_back({def.name, def.name + ".c", def.unoptimized});
  for (unsigned seed = 1; seed <= kColdCorpusSeeds; ++seed) {
    const gen::GeneratedProgram program = gen::generateProgram(seed);
    jobs.push_back({program.name, program.name + ".c", program.combined()});
  }
  return jobs;
}

std::string identityDigest(const BatchResult &result) {
  hash::Hasher hasher;
  for (const BatchItem &item : result.items) {
    hasher.update(item.name);
    hasher.update(std::string(item.success ? "ok" : "fail"));
    hasher.update(item.report.plan.fingerprint());
    hasher.update(static_cast<std::uint64_t>(item.report.diagnostics.size()));
    for (const Diagnostic &diag : item.report.diagnostics) {
      hasher.update(diag.message);
      hasher.update(static_cast<std::uint64_t>(diag.location.offset));
      hasher.update(static_cast<std::uint64_t>(diag.severity));
    }
    hasher.update(static_cast<std::uint64_t>(item.report.metrics.kernels));
    hasher.update(
        static_cast<std::uint64_t>(item.report.metrics.mappedVariables));
    hasher.update(item.report.metrics.possibleMappings);
    hasher.update(item.output);
  }
  return hasher.hex();
}

} // namespace ompdart
