#include "server/service.hpp"

#include "support/version.hpp"

#include <thread>
#include <utility>
#include <vector>

namespace ompdart::server {

namespace {

const char *cacheStatusName(Session::PlanCacheStatus status) {
  switch (status) {
  case Session::PlanCacheStatus::Disabled:
    return "disabled";
  case Session::PlanCacheStatus::Uncacheable:
    return "uncacheable";
  case Session::PlanCacheStatus::Miss:
    return "miss";
  case Session::PlanCacheStatus::Hit:
    return "hit";
  }
  return "unknown";
}

/// Reads the request's "tus" array: [{"name", "file", "source"}, ...].
/// "file" defaults to "name" and vice versa; "source" is required.
bool parseTus(const json::Value &request, std::vector<ProjectTu> *tus,
              std::string *error) {
  const json::Value *tusJson = request.find("tus");
  if (tusJson == nullptr || !tusJson->isArray()) {
    *error = "missing \"tus\" array";
    return false;
  }
  tus->reserve(tusJson->items().size());
  for (const json::Value &tuJson : tusJson->items()) {
    if (!tuJson.isObject()) {
      *error = "\"tus\" entries must be objects";
      return false;
    }
    ProjectTu tu;
    tu.name = tuJson.stringOr("name");
    tu.fileName = tuJson.stringOr("file");
    if (tu.name.empty())
      tu.name = tu.fileName;
    if (tu.fileName.empty())
      tu.fileName = tu.name;
    if (tu.name.empty()) {
      *error = "\"tus\" entry is missing both \"name\" and \"file\"";
      return false;
    }
    const json::Value *source = tuJson.find("source");
    if (source == nullptr || source->kind() != json::Value::Kind::String) {
      *error = "\"tus\" entry \"" + tu.name +
               "\" is missing a string \"source\"";
      return false;
    }
    tu.source = source->asString();
    tus->push_back(std::move(tu));
  }
  return true;
}

json::Value stageRunsJson(const Session &session) {
  json::Value runs = json::Value::object();
  for (const Stage stage : allStages())
    runs.set(stageName(stage), session.stageRuns(stage));
  return runs;
}

} // namespace

json::Value ServiceStats::toJson() const {
  json::Value doc = json::Value::object();
  doc.set("requests", requests);
  doc.set("errors", errors);
  doc.set("parseErrors", parseErrors);
  doc.set("pingRequests", pingRequests);
  doc.set("planRequests", planRequests);
  doc.set("batchRequests", batchRequests);
  doc.set("projectRequests", projectRequests);
  doc.set("invalidateRequests", invalidateRequests);
  doc.set("statsRequests", statsRequests);
  doc.set("shutdownRequests", shutdownRequests);
  doc.set("tusPlanned", tusPlanned);
  doc.set("tusReused", tusReused);
  json::Value stagesJson = json::Value::object();
  for (const Stage stage : allStages()) {
    const auto index = static_cast<unsigned>(stage);
    json::Value entry = json::Value::object();
    entry.set("seconds", stageSeconds[index]);
    entry.set("runs", stageRuns[index]);
    stagesJson.set(stageName(stage), std::move(entry));
  }
  doc.set("stages", std::move(stagesJson));
  return doc;
}

/// Atomic mirrors of ServiceStats, bumped with relaxed ordering: requests
/// running on other workers must be able to read a consistent-enough
/// snapshot without taking any lock.
struct PlanService::Counters {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> parseErrors{0};
  std::atomic<std::uint64_t> pingRequests{0};
  std::atomic<std::uint64_t> planRequests{0};
  std::atomic<std::uint64_t> batchRequests{0};
  std::atomic<std::uint64_t> projectRequests{0};
  std::atomic<std::uint64_t> invalidateRequests{0};
  std::atomic<std::uint64_t> statsRequests{0};
  std::atomic<std::uint64_t> shutdownRequests{0};
  std::atomic<std::uint64_t> tusPlanned{0};
  std::atomic<std::uint64_t> tusReused{0};
  /// Per-stage totals; seconds accumulate as integer nanoseconds so the
  /// counters stay lock-free atomics like everything else here.
  std::array<std::atomic<std::uint64_t>, kStageCount> stageNanos{};
  std::array<std::atomic<std::uint64_t>, kStageCount> stageRuns{};

  void addStage(unsigned stage, double seconds, std::uint64_t runs) {
    stageNanos[stage].fetch_add(
        static_cast<std::uint64_t>(seconds * 1e9),
        std::memory_order_relaxed);
    stageRuns[stage].fetch_add(runs, std::memory_order_relaxed);
  }
};

PlanService::PlanService(ServiceOptions options)
    : options_(std::move(options)),
      counters_(std::make_unique<Counters>()) {
  threads_ = options_.threads;
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0)
      threads_ = 1;
  }
  if (options_.config.planCache != nullptr) {
    cache_ = options_.config.planCache;
  } else if (!options_.config.cacheDir.empty() &&
             options_.config.cacheMode != cache::CacheMode::Off) {
    ownedCache_ = std::make_unique<cache::PlanCache>(
        options_.config.cacheDir, options_.config.cacheMode);
    cache_ = ownedCache_.get();
  }
}

PlanService::~PlanService() = default;

ServiceStats PlanService::stats() const {
  const auto load = [](const std::atomic<std::uint64_t> &counter) {
    return counter.load(std::memory_order_relaxed);
  };
  ServiceStats stats;
  stats.requests = load(counters_->requests);
  stats.errors = load(counters_->errors);
  stats.parseErrors = load(counters_->parseErrors);
  stats.pingRequests = load(counters_->pingRequests);
  stats.planRequests = load(counters_->planRequests);
  stats.batchRequests = load(counters_->batchRequests);
  stats.projectRequests = load(counters_->projectRequests);
  stats.invalidateRequests = load(counters_->invalidateRequests);
  stats.statsRequests = load(counters_->statsRequests);
  stats.shutdownRequests = load(counters_->shutdownRequests);
  stats.tusPlanned = load(counters_->tusPlanned);
  stats.tusReused = load(counters_->tusReused);
  for (unsigned stage = 0; stage < kStageCount; ++stage) {
    stats.stageSeconds[stage] =
        static_cast<double>(load(counters_->stageNanos[stage])) * 1e-9;
    stats.stageRuns[stage] = load(counters_->stageRuns[stage]);
  }
  return stats;
}

std::size_t PlanService::heldProjects() const {
  std::lock_guard<std::mutex> lock(projectsMutex_);
  return projects_.size();
}

json::Value PlanService::handleLine(const std::string &line) {
  std::string parseError;
  const std::optional<json::Value> request =
      json::Value::parse(line, &parseError);
  if (!request.has_value()) {
    counters_->requests.fetch_add(1, std::memory_order_relaxed);
    counters_->parseErrors.fetch_add(1, std::memory_order_relaxed);
    counters_->errors.fetch_add(1, std::memory_order_relaxed);
    return makeErrorResponse(nullptr, "invalid JSON: " + parseError);
  }
  return handle(*request);
}

json::Value PlanService::handle(const json::Value &request) {
  counters_->requests.fetch_add(1, std::memory_order_relaxed);
  const json::Value *id =
      request.isObject() ? request.find("id") : nullptr;
  json::Value response = dispatch(request, id);
  if (!response.boolOr("ok"))
    counters_->errors.fetch_add(1, std::memory_order_relaxed);
  return response;
}

json::Value PlanService::dispatch(const json::Value &request,
                                  const json::Value *id) {
  if (!request.isObject())
    return makeErrorResponse(id, "request must be a JSON object");
  const std::string method = request.stringOr("method");
  if (method.empty())
    return makeErrorResponse(id, "missing \"method\"");

  const auto bump = [this](std::atomic<std::uint64_t> &counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  };

  std::string error;
  if (method == "ping") {
    bump(counters_->pingRequests);
    return makeOkResponse(id, handlePing());
  }
  if (method == "plan") {
    bump(counters_->planRequests);
    json::Value result = handlePlan(request, &error);
    return error.empty() ? makeOkResponse(id, std::move(result))
                         : makeErrorResponse(id, error);
  }
  if (method == "batch") {
    bump(counters_->batchRequests);
    json::Value result = handleBatch(request, &error);
    return error.empty() ? makeOkResponse(id, std::move(result))
                         : makeErrorResponse(id, error);
  }
  if (method == "project") {
    bump(counters_->projectRequests);
    json::Value result = handleProject(request, &error);
    return error.empty() ? makeOkResponse(id, std::move(result))
                         : makeErrorResponse(id, error);
  }
  if (method == "invalidate") {
    bump(counters_->invalidateRequests);
    return makeOkResponse(id, handleInvalidate(request));
  }
  if (method == "stats") {
    bump(counters_->statsRequests);
    return makeOkResponse(id, handleStats());
  }
  if (method == "shutdown") {
    bump(counters_->shutdownRequests);
    shutdown_.store(true, std::memory_order_release);
    json::Value result = json::Value::object();
    result.set("stopping", true);
    return makeOkResponse(id, std::move(result));
  }
  return makeErrorResponse(id, "unknown method \"" + method + "\"");
}

json::Value PlanService::handlePing() {
  json::Value result = json::Value::object();
  result.set("pong", true);
  result.set("toolVersion", kToolVersion);
  return result;
}

bool PlanService::requestConfig(const json::Value &request,
                                PipelineConfig *config, std::string *error) {
  *config = options_.config;
  config->planCache = cache_;
  config->imports = nullptr;
  // The server always produces complete artifacts: a request cannot stop
  // the pipeline early or strip the output from reports.
  config->stopAfter.reset();
  config->includeOutputInReport = true;

  const json::Value *overrides = request.find("config");
  if (overrides == nullptr)
    return true;
  if (!overrides->isObject()) {
    *error = "\"config\" must be an object";
    return false;
  }
  for (const auto &[key, value] : overrides->members()) {
    if (key == "firstprivate") {
      config->planner.useFirstprivate = value.asBool(true);
    } else if (key == "hoistUpdates") {
      config->planner.hoistUpdates = value.asBool(true);
    } else if (key == "regionOverLoops") {
      config->planner.extendRegionOverLoops = value.asBool(true);
    } else if (key == "interprocedural") {
      config->planner.interprocedural = value.asBool(true);
    } else if (key == "interprocMaxPasses") {
      config->interprocMaxPasses =
          static_cast<unsigned>(value.asUint(config->interprocMaxPasses));
    } else if (key == "rejectExistingDataDirectives") {
      config->rejectExistingDataDirectives = value.asBool(true);
    } else {
      *error = "unknown config override \"" + key + "\"";
      return false;
    }
  }
  return true;
}

json::Value PlanService::handlePlan(const json::Value &request,
                                    std::string *error) {
  const json::Value *source = request.find("source");
  if (source == nullptr || source->kind() != json::Value::Kind::String) {
    *error = "missing string \"source\"";
    return {};
  }
  std::string fileName = request.stringOr("file");
  std::string name = request.stringOr("name");
  if (fileName.empty())
    fileName = name;
  if (name.empty())
    name = fileName;
  if (fileName.empty()) {
    *error = "missing \"file\" (or \"name\")";
    return {};
  }

  PipelineConfig config;
  if (!requestConfig(request, &config, error))
    return {};

  Session session(fileName, source->asString(), config);
  const bool success = session.run();
  counters_->tusPlanned.fetch_add(1, std::memory_order_relaxed);
  for (const Stage stage : allStages())
    counters_->addStage(static_cast<unsigned>(stage),
                        session.stageSeconds(stage),
                        session.stageRuns(stage));

  json::Value result = json::Value::object();
  result.set("name", name);
  result.set("file", fileName);
  result.set("success", success);
  result.set("cache", cacheStatusName(session.planCacheStatus()));
  result.set("output", session.rewrite());
  result.set("stageRuns", stageRunsJson(session));
  if (request.boolOr("report"))
    result.set("report", session.report().toJson());
  return result;
}

json::Value PlanService::handleBatch(const json::Value &request,
                                     std::string *error) {
  std::vector<ProjectTu> tus;
  if (!parseTus(request, &tus, error))
    return {};

  PipelineConfig config;
  if (!requestConfig(request, &config, error))
    return {};

  std::vector<BatchJob> jobs;
  jobs.reserve(tus.size());
  for (ProjectTu &tu : tus) {
    BatchJob job;
    job.name = std::move(tu.name);
    job.fileName = std::move(tu.fileName);
    job.source = std::move(tu.source);
    jobs.push_back(std::move(job));
  }

  BatchDriver::Options options;
  options.threads = threads_;
  options.config = std::move(config);
  const BatchResult batch = BatchDriver(std::move(options)).run(jobs);
  counters_->tusPlanned.fetch_add(batch.items.size(),
                                  std::memory_order_relaxed);
  for (unsigned stage = 0; stage < kStageCount; ++stage)
    counters_->addStage(stage, batch.stats.stageSeconds[stage],
                        batch.stats.stageRuns[stage]);

  json::Value result = json::Value::object();
  json::Value itemsJson = json::Value::array();
  bool success = !batch.items.empty();
  for (const BatchItem &item : batch.items) {
    json::Value itemJson = json::Value::object();
    itemJson.set("name", item.name);
    itemJson.set("success", item.success);
    itemJson.set("cache", cacheStatusName(item.cacheStatus));
    itemJson.set("output", item.output);
    if (request.boolOr("report"))
      itemJson.set("report", item.report.toJson());
    itemsJson.push(std::move(itemJson));
    success = success && item.success;
  }
  result.set("success", success);
  result.set("items", std::move(itemsJson));
  result.set("stats", batch.stats.toJson());
  return result;
}

std::shared_ptr<IncrementalProject>
PlanService::projectFor(const std::string &name,
                        const PipelineConfig &config) {
  // Keyed by name + plan fingerprint: the replanner's reuse proof requires
  // one fixed config per instance, so each override set replans separately.
  // The shared_ptr copy leaves the lock with the caller: a concurrent
  // "invalidate" erasing the map entry must not destroy an instance that is
  // mid-replan on another worker.
  const std::string key = name + "\n" + planFingerprint(config);
  std::lock_guard<std::mutex> lock(projectsMutex_);
  std::shared_ptr<IncrementalProject> &slot = projects_[key];
  if (slot == nullptr) {
    IncrementalProject::Options options;
    options.threads = threads_;
    slot = std::make_shared<IncrementalProject>(config, options);
  }
  return slot;
}

json::Value PlanService::handleProject(const json::Value &request,
                                       std::string *error) {
  std::vector<ProjectTu> tus;
  if (!parseTus(request, &tus, error))
    return {};

  PipelineConfig config;
  if (!requestConfig(request, &config, error))
    return {};

  std::string projectName = request.stringOr("project");
  if (projectName.empty())
    projectName = "default";

  const std::shared_ptr<IncrementalProject> project =
      projectFor(projectName, config);
  const IncrementalResult replan = project->replan(tus);
  counters_->tusPlanned.fetch_add(replan.tusReplanned,
                                  std::memory_order_relaxed);
  counters_->tusReused.fetch_add(replan.tusReused,
                                 std::memory_order_relaxed);
  for (unsigned stage = 0; stage < kStageCount; ++stage)
    counters_->addStage(stage, replan.stageSeconds[stage],
                        replan.stageRuns[stage]);

  // The replan accounting plus the payload the wire client needs per TU
  // (cache status and output).
  const bool withReport = request.boolOr("report");
  json::Value result = replan.toJson(
      [&](const IncrementalTuResult &tu, json::Value &tuJson) {
        tuJson.set("cache", cacheStatusName(tu.item->cacheStatus));
        tuJson.set("output", tu.item->output);
        if (withReport)
          tuJson.set("report", tu.item->report.toJson());
      });
  result.set("project", projectName);
  return result;
}

json::Value PlanService::handleInvalidate(const json::Value &request) {
  const std::string projectName = request.stringOr("project");
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(projectsMutex_);
    if (projectName.empty()) {
      dropped = projects_.size();
      projects_.clear();
    } else {
      const std::string prefix = projectName + "\n";
      for (auto it = projects_.begin(); it != projects_.end();) {
        if (it->first.compare(0, prefix.size(), prefix) == 0) {
          it = projects_.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
  }
  if (cache_ != nullptr)
    cache_->dropMemos();

  json::Value result = json::Value::object();
  result.set("projectsDropped", static_cast<std::uint64_t>(dropped));
  result.set("memosDropped", cache_ != nullptr);
  return result;
}

json::Value PlanService::handleStats() {
  json::Value result = json::Value::object();
  result.set("server", stats().toJson());
  result.set("projectsHeld", static_cast<std::uint64_t>(heldProjects()));
  result.set("threads", threads_);
  result.set("cacheEnabled", cache_ != nullptr);
  if (cache_ != nullptr)
    result.set("cache", cache_->stats().toJson());
  return result;
}

} // namespace ompdart::server
