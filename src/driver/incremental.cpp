#include "driver/incremental.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

namespace ompdart {

namespace {

/// Runs `worker` on up to `threads` threads (inline when <= 1). Workers
/// pull indices from a shared cursor, so callers pass a closure that loops.
void runPool(unsigned threads, std::size_t jobs,
             const std::function<void()> &worker) {
  if (threads > jobs)
    threads = static_cast<unsigned>(jobs);
  if (threads <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    pool.emplace_back(worker);
  for (std::thread &thread : pool)
    thread.join();
}

} // namespace

const char *replanReasonName(ReplanReason reason) {
  switch (reason) {
  case ReplanReason::Reused:
    return "reused";
  case ReplanReason::Initial:
    return "initial";
  case ReplanReason::SourceChanged:
    return "source-changed";
  case ReplanReason::ImportsChanged:
    return "imports-changed";
  }
  return "unknown";
}

json::Value IncrementalResult::toJson() const {
  json::Value doc = json::Value::object();
  doc.set("success", success);
  doc.set("linkPasses", linkPasses);
  doc.set("linkReused", linkReused);
  doc.set("importsRebuilt", importsRebuilt);
  doc.set("summariesExtracted", summariesExtracted);
  doc.set("summariesReused", summariesReused);
  doc.set("tusReplanned", tusReplanned);
  doc.set("tusReused", tusReused);
  doc.set("wallSeconds", wallSeconds);

  json::Value scheduleJson = json::Value::array();
  for (const std::string &name : scheduleOrder)
    scheduleJson.push(name);
  doc.set("schedule", std::move(scheduleJson));

  json::Value runsJson = json::Value::object();
  for (const Stage stage : allStages())
    runsJson.set(stageName(stage), stageRuns[static_cast<unsigned>(stage)]);
  doc.set("stageRuns", std::move(runsJson));

  json::Value secondsJson = json::Value::object();
  for (const Stage stage : allStages())
    secondsJson.set(stageName(stage),
                    stageSeconds[static_cast<unsigned>(stage)]);
  doc.set("stageSeconds", std::move(secondsJson));

  json::Value phasesJson = json::Value::object();
  phasesJson.set("summaries", phaseSeconds.summaries);
  phasesJson.set("link", phaseSeconds.link);
  phasesJson.set("imports", phaseSeconds.imports);
  phasesJson.set("plan", phaseSeconds.plan);
  phasesJson.set("fold", phaseSeconds.fold);
  doc.set("phaseSeconds", std::move(phasesJson));

  json::Value linkDiagsJson = json::Value::array();
  for (const Diagnostic &diag : linkDiagnostics)
    linkDiagsJson.push(diagnosticToJson(diag));
  doc.set("linkDiagnostics", std::move(linkDiagsJson));

  json::Value tusJson = json::Value::array();
  for (const IncrementalTuResult &tu : tus) {
    json::Value tuJson = json::Value::object();
    tuJson.set("name", tu.name);
    tuJson.set("reason", replanReasonName(tu.reason));
    tuJson.set("summaryReused", tu.summaryReused);
    tuJson.set("success", tu.item->success);
    tusJson.push(std::move(tuJson));
  }
  doc.set("tus", std::move(tusJson));
  return doc;
}

IncrementalProject::IncrementalProject(PipelineConfig config,
                                       Options options)
    : config_(std::move(config)), options_(options) {}

IncrementalProject::IncrementalProject(PipelineConfig config)
    : IncrementalProject(std::move(config), Options()) {}

cache::PlanCache *IncrementalProject::activeCache() {
  if (config_.planCache != nullptr)
    return config_.planCache;
  if (ownedCache_ == nullptr && !config_.cacheDir.empty() &&
      config_.cacheMode != cache::CacheMode::Off)
    ownedCache_ = std::make_unique<cache::PlanCache>(config_.cacheDir,
                                                     config_.cacheMode);
  return ownedCache_.get();
}

void IncrementalProject::invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  state_.clear();
  order_.clear();
  link_.reset();
  schedule_.clear();
}

std::size_t IncrementalProject::heldTus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_.size();
}

IncrementalResult
IncrementalProject::replan(const std::vector<ProjectTu> &tus) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto wallStart = std::chrono::steady_clock::now();
  auto phaseStart = wallStart;
  auto lap = [&phaseStart](double &seconds) {
    const auto now = std::chrono::steady_clock::now();
    seconds = std::chrono::duration<double>(now - phaseStart).count();
    phaseStart = now;
  };

  IncrementalResult result;
  result.tus.resize(tus.size());
  if (tus.empty()) {
    result.success = true;
    return result;
  }

  cache::PlanCache *cache = activeCache();

  // Phase 1 — summaries. `next` becomes the held state; it starts from the
  // held TuState (all shared, so the copy is cheap). A TU whose source
  // bytes are unchanged keeps its summary; a changed one is re-extracted
  // (via the summary cache) in parallel, and keeps the held summary object
  // when the extraction comes out equal — facts, locations and file.
  std::vector<const TuState *> held(tus.size(), nullptr);
  std::vector<TuState> next(tus.size());
  for (std::size_t i = 0; i < tus.size(); ++i) {
    const auto it = state_.find(tus[i].name);
    if (it != state_.end()) {
      held[i] = &it->second;
      next[i] = it->second;
    }
    next[i].fileName = tus[i].fileName;
  }
  // char, not bool: workers write distinct elements concurrently.
  std::vector<char> summaryReused(tus.size(), 0);
  std::vector<char> moduleChanged(tus.size(), 0);
  std::atomic<std::size_t> cursor{0};
  runPool(options_.threads, tus.size(), [&]() {
    while (true) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= tus.size())
        return;
      const ProjectTu &tu = tus[i];
      const TuState *old = held[i];
      TuState &now = next[i];
      if (old != nullptr && *old->source == tu.source) {
        summaryReused[i] = 1;
        if (old->fileName != tu.fileName) {
          // Same facts (the fingerprint is file-independent), new labels.
          auto module = std::make_shared<summary::ModuleSummary>(*old->module);
          module->rebindFile(tu.fileName);
          now.module = std::move(module);
          moduleChanged[i] = 1;
        }
        continue;
      }
      now.source = std::make_shared<const std::string>(tu.source);
      summary::ModuleSummary module =
          loadOrExtractModuleSummary(cache, tu.fileName, tu.source);
      if (old != nullptr && old->fileName == tu.fileName &&
          *old->module == module)
        continue;
      now.moduleFingerprint = module.fingerprint();
      now.module =
          std::make_shared<const summary::ModuleSummary>(std::move(module));
      moduleChanged[i] = 1;
    }
  });
  lap(result.phaseSeconds.summaries);

  // Phase 2 — link. Unchanged summaries in an unchanged order link to the
  // held result; anything else reruns the whole-program fixed point
  // (sequential: it is a fixed point) and the schedule.
  bool sameProgram = link_ != nullptr && order_.size() == tus.size();
  for (std::size_t i = 0; sameProgram && i < tus.size(); ++i)
    sameProgram = order_[i] == tus[i].name && moduleChanged[i] == 0;
  std::shared_ptr<const summary::LinkResult> link = link_;
  std::vector<std::size_t> schedule = schedule_;
  result.linkReused = sameProgram;
  if (!sameProgram) {
    std::vector<const summary::ModuleSummary *> modules;
    modules.reserve(tus.size());
    for (const TuState &now : next)
      modules.push_back(now.module.get());
    link = std::make_shared<const summary::LinkResult>(
        summary::linkProgram(modules));
    schedule = summary::reverseTopologicalOrder(modules);
    result.linkPasses = link->passes;
  }
  result.linkDiagnostics = link->diagnostics;
  lap(result.phaseSeconds.link);

  // Phase 3 — import slices. A reused link leaves every held slice valid.
  // After a relink every slice is rebuilt and compared with the held one;
  // only a new or changed slice is sealed (fingerprinted) and replaces it.
  if (!sameProgram) {
    std::atomic<std::size_t> importsCursor{0};
    runPool(options_.threads, tus.size(), [&]() {
      while (true) {
        const std::size_t i = importsCursor.fetch_add(1);
        if (i >= tus.size())
          return;
        TuState &now = next[i];
        summary::TuImports imports =
            summary::buildTuImports(*now.module, *link);
        if (now.imports != nullptr && now.imports->imports() == imports)
          continue;
        now.imports =
            std::make_shared<const summary::SealedImports>(std::move(imports));
        result.tus[i].importsRebuilt = true;
      }
    });
  }
  lap(result.phaseSeconds.imports);

  // Phase 4 — decide reuse per TU. The decision mirrors the plan-cache key
  // (source + imports fingerprint; config fixed per instance), so a reused
  // item equals what a fresh Session would emit.
  std::vector<char> needsPlan(tus.size(), 0);
  for (std::size_t i = 0; i < tus.size(); ++i) {
    IncrementalTuResult &tu = result.tus[i];
    tu.name = tus[i].name;
    tu.summaryReused = summaryReused[i] != 0;
    if (held[i] == nullptr) {
      tu.reason = ReplanReason::Initial;
    } else if (!tu.summaryReused) {
      tu.reason = ReplanReason::SourceChanged;
    } else if (held[i]->imports->fingerprint() !=
               next[i].imports->fingerprint()) {
      tu.reason = ReplanReason::ImportsChanged;
    } else {
      tu.reason = ReplanReason::Reused;
      tu.item = next[i].item;
      continue;
    }
    needsPlan[i] = 1;
  }

  // Phase 5 — plan the invalidated TUs in reverse topological call-graph
  // order (callees first, matching ProjectSession), over the worker pool.
  std::vector<std::size_t> planOrder;
  for (const std::size_t index : schedule)
    if (needsPlan[index] != 0)
      planOrder.push_back(index);
  for (const std::size_t index : planOrder)
    result.scheduleOrder.push_back(tus[index].name);

  std::vector<std::array<unsigned, kStageCount>> sessionRuns(
      planOrder.size());
  std::vector<std::array<double, kStageCount>> sessionSeconds(
      planOrder.size());
  std::atomic<std::size_t> planCursor{0};
  runPool(options_.threads, planOrder.size(), [&]() {
    while (true) {
      const std::size_t slot = planCursor.fetch_add(1);
      if (slot >= planOrder.size())
        return;
      const std::size_t index = planOrder[slot];
      const ProjectTu &tu = tus[index];
      TuState &now = next[index];
      PipelineConfig config = config_;
      config.imports = now.imports.get();
      if (cache != nullptr)
        config.planCache = cache;
      Session session(tu.fileName, tu.source, config);
      auto item = std::make_shared<ProjectItem>();
      item->name = tu.name;
      item->summaryFromCache = summaryReused[index] != 0;
      item->summaryFingerprint = now.moduleFingerprint;
      item->success = session.run();
      item->report = session.report();
      item->cacheStatus = session.planCacheStatus();
      if (session.stageRuns(Stage::Rewrite) > 0)
        item->output = session.rewrite();
      for (const Stage stage : allStages()) {
        sessionRuns[slot][static_cast<unsigned>(stage)] =
            session.stageRuns(stage);
        sessionSeconds[slot][static_cast<unsigned>(stage)] =
            session.stageSeconds(stage);
      }
      now.item = item;
      result.tus[index].item = std::move(item);
    }
  });
  lap(result.phaseSeconds.plan);

  // Phase 6 — fold results and refresh the held state.
  for (const auto &runs : sessionRuns)
    for (unsigned stage = 0; stage < kStageCount; ++stage)
      result.stageRuns[stage] += runs[stage];
  for (const auto &seconds : sessionSeconds)
    for (unsigned stage = 0; stage < kStageCount; ++stage)
      result.stageSeconds[stage] += seconds[stage];

  result.success = true;
  for (const IncrementalTuResult &tu : result.tus) {
    if (tu.replanned())
      ++result.tusReplanned;
    else
      ++result.tusReused;
    if (tu.importsRebuilt)
      ++result.importsRebuilt;
    if (tu.summaryReused)
      ++result.summariesReused;
    else
      ++result.summariesExtracted;
    result.success = result.success && tu.item->success;
  }
  for (const Diagnostic &diag : link->diagnostics)
    if (diag.severity == Severity::Error)
      result.success = false;

  // Replacing (not merging) drops TUs that left the project.
  std::map<std::string, TuState> nextState;
  order_.clear();
  for (std::size_t i = 0; i < tus.size(); ++i) {
    nextState[tus[i].name] = std::move(next[i]);
    order_.push_back(tus[i].name);
  }
  state_ = std::move(nextState);
  link_ = std::move(link);
  schedule_ = std::move(schedule);
  lap(result.phaseSeconds.fold);

  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  return result;
}

} // namespace ompdart
