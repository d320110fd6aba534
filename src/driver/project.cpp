#include "driver/project.hpp"

#include "frontend/parser.hpp"
#include "support/hash.hpp"
#include "support/source_manager.hpp"
#include "support/version.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace ompdart {

namespace fs = std::filesystem;

namespace {

/// Summary-cache keys fingerprint the source and the artifact format; the
/// artifact is config-independent (direct effects + call edges only), so
/// ablation switches never invalidate it.
cache::CacheKey summaryKeyFor(const std::string &source) {
  cache::CacheKey key;
  key.sourceHash = hash::fingerprint(source);
  key.configHash =
      "module-summary-v" + std::to_string(summary::ModuleSummary::kVersion);
  key.toolVersion = kToolVersion;
  return key;
}

std::optional<std::string> readFileText(const fs::path &path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

} // namespace

summary::ModuleSummary
loadOrExtractModuleSummary(cache::PlanCache *cache,
                           const std::string &fileName,
                           const std::string &source, bool *fromCache) {
  if (fromCache != nullptr)
    *fromCache = false;
  const cache::CacheKey key = summaryKeyFor(source);
  if (cache != nullptr && cache->enabled()) {
    if (const auto payload = cache->lookupSummary(key)) {
      if (auto module = summary::ModuleSummary::fromJson(*payload)) {
        // The cached artifact may carry another path for identical
        // content; the facts are path-independent, but the labels —
        // including the file-qualified prefixes of static-function
        // linked names — must follow this project's TU.
        module->rebindFile(fileName);
        if (fromCache != nullptr)
          *fromCache = true;
        return std::move(*module);
      }
    }
  }
  // Link-phase parse: summary extraction only (the plan phase's Session
  // owns the authoritative parse and its diagnostics).
  SourceManager sourceManager(fileName, source);
  ASTContext context;
  DiagnosticEngine diags;
  summary::ModuleSummary module;
  module.file = fileName;
  if (parseSource(sourceManager, context, diags) && !diags.hasErrors()) {
    module = summary::extractModuleSummary(context.unit(), fileName);
    // enabled(), not writable(): a read-only cache still memoizes the
    // artifact in memory, so a long-lived process re-extracts a given
    // source hash at most once.
    if (cache != nullptr && cache->enabled())
      cache->storeSummary(key, module.toJson());
  }
  return module;
}

std::optional<ProjectManifest>
ProjectManifest::fromJsonFile(const std::string &path, std::string *error) {
  const auto text = readFileText(path);
  if (!text) {
    json::setFirstError(error, "cannot read the manifest file");
    return std::nullopt;
  }
  const auto doc = json::Value::parse(*text, error);
  if (!doc)
    return std::nullopt;
  if (!doc->isObject()) {
    json::setFirstError(error, "manifest must be a JSON object");
    return std::nullopt;
  }
  ProjectManifest manifest;
  manifest.name = doc->stringOr("name", "project");
  const json::Value *tusJson = doc->find("tus");
  if (tusJson == nullptr || !tusJson->isArray() || tusJson->items().empty()) {
    json::setFirstError(error, "manifest needs a non-empty 'tus' array");
    return std::nullopt;
  }
  const fs::path baseDir = fs::path(path).parent_path();
  for (const json::Value &entry : tusJson->items()) {
    ProjectTu tu;
    std::string file;
    if (entry.kind() == json::Value::Kind::String) {
      file = entry.asString();
    } else if (entry.isObject()) {
      file = entry.stringOr("file");
      tu.name = entry.stringOr("name");
    }
    if (file.empty()) {
      json::setFirstError(error,
                          "each manifest TU must be a file path or an "
                          "object with a 'file' member");
      return std::nullopt;
    }
    const fs::path resolved =
        fs::path(file).is_absolute() ? fs::path(file) : baseDir / file;
    const auto source = readFileText(resolved);
    if (!source) {
      if (error != nullptr && error->empty())
        *error = "cannot read TU '" + resolved.string() + "'";
      return std::nullopt;
    }
    tu.fileName = resolved.string();
    // Default names keep the manifest-relative path (not the basename):
    // two TUs named a/util.c and b/util.c must stay distinguishable in
    // results and per-TU output files.
    if (tu.name.empty())
      tu.name = file;
    tu.source = *source;
    manifest.tus.push_back(std::move(tu));
  }
  return manifest;
}

ProjectSession::ProjectSession(ProjectManifest manifest,
                               PipelineConfig config)
    : ProjectSession(std::move(manifest), std::move(config), Options()) {}

ProjectSession::ProjectSession(ProjectManifest manifest,
                               PipelineConfig config, Options options)
    : manifest_(std::move(manifest)), config_(std::move(config)),
      options_(options) {
  for (ProjectTu &tu : manifest_.tus) {
    if (tu.fileName.empty())
      tu.fileName = tu.name;
    if (tu.name.empty())
      tu.name = tu.fileName;
  }
}

cache::PlanCache *ProjectSession::activeCache() {
  if (config_.planCache != nullptr)
    return config_.planCache;
  if (ownedCache_ == nullptr && !config_.cacheDir.empty() &&
      config_.cacheMode != cache::CacheMode::Off)
    ownedCache_ = std::make_unique<cache::PlanCache>(config_.cacheDir,
                                                     config_.cacheMode);
  return ownedCache_.get();
}

void ProjectSession::loadOrExtractSummaries(cache::PlanCache *cache) {
  modules_.assign(manifest_.tus.size(), summary::ModuleSummary{});
  summaryCached_.assign(manifest_.tus.size(), false);

  // Per-TU extraction is independent (the cache is thread-safe), so cold
  // starts use the same worker-pool width as the plan phase.
  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    while (true) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= manifest_.tus.size())
        return;
      const ProjectTu &tu = manifest_.tus[i];
      bool fromCache = false;
      modules_[i] = loadOrExtractModuleSummary(cache, tu.fileName,
                                               tu.source, &fromCache);
      summaryCached_[i] = fromCache;
    }
  };
  unsigned threadCount = options_.threads;
  if (threadCount > manifest_.tus.size())
    threadCount = static_cast<unsigned>(manifest_.tus.size());
  if (threadCount <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(threadCount);
    for (unsigned i = 0; i < threadCount; ++i)
      threads.emplace_back(worker);
    for (std::thread &thread : threads)
      thread.join();
  }
}

void ProjectSession::runSessions(cache::PlanCache *cache) {
  sessions_.clear();
  sessions_.resize(manifest_.tus.size());
  items_.assign(manifest_.tus.size(), ProjectItem{});

  // Plan TUs in reverse topological call-graph order (callees first). With
  // the import slices precomputed the order does not change results; it
  // matches the direction facts flow, keeps warm-cache behavior
  // deterministic, and is the order a future pipelined scheduler would
  // stream artifacts in.
  std::vector<const summary::ModuleSummary *> modules;
  modules.reserve(modules_.size());
  for (const summary::ModuleSummary &module : modules_)
    modules.push_back(&module);
  const std::vector<std::size_t> order =
      summary::reverseTopologicalOrder(modules);
  scheduleOrder_.clear();
  for (const std::size_t index : order)
    scheduleOrder_.push_back(manifest_.tus[index].name);

  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    while (true) {
      const std::size_t slot = cursor.fetch_add(1);
      if (slot >= order.size())
        return;
      const std::size_t index = order[slot];
      const ProjectTu &tu = manifest_.tus[index];
      PipelineConfig config = config_;
      config.imports = &imports_[index];
      if (cache != nullptr)
        config.planCache = cache;
      auto session =
          std::make_unique<Session>(tu.fileName, tu.source, config);
      ProjectItem &item = items_[index];
      item.name = tu.name;
      item.summaryFromCache = summaryCached_[index];
      item.summaryFingerprint = modules_[index].fingerprint();
      item.success = session->run();
      item.report = session->report();
      item.cacheStatus = session->planCacheStatus();
      if (session->stageRuns(Stage::Rewrite) > 0)
        item.output = session->rewrite();
      sessions_[index] = std::move(session);
    }
  };

  unsigned threadCount = options_.threads;
  if (threadCount > order.size())
    threadCount = static_cast<unsigned>(order.size());
  if (threadCount <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(threadCount);
    for (unsigned i = 0; i < threadCount; ++i)
      threads.emplace_back(worker);
    for (std::thread &thread : threads)
      thread.join();
  }
}

bool ProjectSession::run() {
  if (ran_)
    return success_;
  ran_ = true;

  cache::PlanCache *cache = activeCache();
  loadOrExtractSummaries(cache);
  link_ = summary::linkProgram(modules_);

  imports_.clear();
  imports_.reserve(modules_.size());
  for (const summary::ModuleSummary &module : modules_)
    imports_.emplace_back(summary::buildTuImports(module, link_));

  runSessions(cache);

  success_ = true;
  for (const ProjectItem &item : items_)
    success_ = success_ && item.success;
  for (const Diagnostic &diag : link_.diagnostics)
    if (diag.severity == Severity::Error)
      success_ = false;
  return success_;
}

Session *ProjectSession::sessionFor(const std::string &name) {
  for (std::size_t i = 0; i < manifest_.tus.size(); ++i)
    if (manifest_.tus[i].name == name && i < sessions_.size())
      return sessions_[i].get();
  return nullptr;
}

json::Value ProjectSession::reportJson() const {
  json::Value doc = json::Value::object();
  doc.set("project", manifest_.name);
  doc.set("success", success_);

  json::Value scheduleJson = json::Value::array();
  for (const std::string &name : scheduleOrder_)
    scheduleJson.push(name);
  doc.set("schedule", std::move(scheduleJson));

  json::Value linkJson = json::Value::object();
  linkJson.set("passes", link_.passes);
  json::Value definedInJson = json::Value::object();
  for (const auto &[fn, file] : link_.definedIn)
    definedInJson.set(fn, file);
  linkJson.set("definedIn", std::move(definedInJson));
  json::Value executionsJson = json::Value::object();
  for (const auto &[fn, count] : link_.executions)
    executionsJson.set(fn, count);
  linkJson.set("executions", std::move(executionsJson));
  json::Value linkDiagsJson = json::Value::array();
  for (const Diagnostic &diag : link_.diagnostics)
    linkDiagsJson.push(diagnosticToJson(diag));
  linkJson.set("diagnostics", std::move(linkDiagsJson));
  doc.set("link", std::move(linkJson));

  json::Value tusJson = json::Value::array();
  for (const ProjectItem &item : items_) {
    json::Value tuJson = json::Value::object();
    tuJson.set("name", item.name);
    tuJson.set("success", item.success);
    tuJson.set("summaryFromCache", item.summaryFromCache);
    tuJson.set("summaryFingerprint", item.summaryFingerprint);
    tuJson.set("report", item.report.toJson());
    tusJson.push(std::move(tuJson));
  }
  doc.set("tus", std::move(tusJson));

  if (config_.planCache != nullptr || ownedCache_ != nullptr) {
    const cache::PlanCache *cache =
        config_.planCache != nullptr ? config_.planCache : ownedCache_.get();
    doc.set("planCache", cache->stats().toJson());
  }
  return doc;
}

} // namespace ompdart
