// Plan-server scale benchmark: synthesizes a large flat project with
// src/gen's deterministic scale generator (OMPDART_SCALE_TUS translation
// units, default 1000), serves it through a REAL PlanServer over a Unix
// socket, and measures
//
//   1. cold single-TU "plan" requests-per-second + p99 latency over
//      concurrent client connections,
//   2. the same requests warm (every plan must come back a cache hit with
//      ZERO parse/cfg/interproc/plan stage executions, byte-identical to
//      the cold pass and to an in-process one-shot Session),
//   3. whole-project request latency, then touch-one-TU replan latency:
//      a comment-only edit must replan exactly the edited TU, and a
//      summary-visible fact edit must replan exactly the edited TU plus
//      main (whose imports cover every stage summary) — asserted from the
//      per-TU replan reasons and the response's stage-run counts.
//
// Results go to BENCH_scale.json; any gate failure exits non-zero so CI can
// use this as the planning-as-a-service regression gate.
#include "driver/pipeline.hpp"
#include "gen/generator.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "support/json.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;
namespace json = ompdart::json;
namespace server = ompdart::server;

namespace {

/// The benchmark's socket and cache directory, removed with the object.
struct ScopedDir {
  fs::path path;
  ScopedDir() {
    std::random_device rd;
    path = fs::temp_directory_path() /
           ("ompdart-bench-scale-" + std::to_string(rd()));
    fs::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

constexpr std::uint64_t kSeed = 7;

unsigned envTuCount() {
  const char *env = std::getenv("OMPDART_SCALE_TUS");
  if (env == nullptr)
    return 1000;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed < 8 ? 8 : static_cast<unsigned>(parsed);
}

struct RequestTiming {
  double wallSeconds = 0.0;
  std::vector<double> latencies; ///< seconds, unsorted

  [[nodiscard]] double rps() const {
    return wallSeconds > 0.0
               ? static_cast<double>(latencies.size()) / wallSeconds
               : 0.0;
  }
  [[nodiscard]] double p99Millis() const {
    if (latencies.empty())
      return 0.0;
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t index =
        std::min(sorted.size() - 1,
                 static_cast<std::size_t>(
                     static_cast<double>(sorted.size()) * 0.99));
    return sorted[index] * 1000.0;
  }
  [[nodiscard]] json::Value toJson() const {
    json::Value doc = json::Value::object();
    doc.set("requests", static_cast<std::uint64_t>(latencies.size()));
    doc.set("wallSeconds", wallSeconds);
    doc.set("requestsPerSecond", rps());
    doc.set("p99Millis", p99Millis());
    return doc;
  }
};

/// Sends one "plan" request per TU over `threads` concurrent connections.
/// Each response's (cache, output, planStageRuns) lands in the out-arrays
/// by TU index.
RequestTiming planAll(const std::string &socketPath,
                      const std::vector<ompdart::gen::GeneratedTu> &tus,
                      unsigned threads, std::vector<std::string> *outputs,
                      std::vector<std::string> *cacheStatuses,
                      std::vector<unsigned> *planStageRuns, bool *transportOk) {
  outputs->assign(tus.size(), "");
  cacheStatuses->assign(tus.size(), "");
  planStageRuns->assign(tus.size(), 0);
  *transportOk = true;

  RequestTiming timing;
  timing.latencies.resize(tus.size(), 0.0);
  std::atomic<std::size_t> cursor{0};
  std::mutex failMutex;

  const auto wallStart = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&]() {
      server::PlanClient client;
      std::string error;
      if (!client.connect(socketPath, &error)) {
        std::lock_guard<std::mutex> lock(failMutex);
        std::fprintf(stderr, "client connect failed: %s\n", error.c_str());
        *transportOk = false;
        return;
      }
      while (true) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= tus.size())
          return;
        json::Value request = json::Value::object();
        request.set("method", "plan");
        request.set("file", tus[i].name);
        request.set("source", tus[i].source);
        const auto start = std::chrono::steady_clock::now();
        const auto response = client.call(request, &error);
        timing.latencies[i] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (!response || !response->boolOr("ok")) {
          std::lock_guard<std::mutex> lock(failMutex);
          std::fprintf(stderr, "plan request %zu failed: %s\n", i,
                       error.c_str());
          *transportOk = false;
          return;
        }
        const json::Value *result = response->find("result");
        (*outputs)[i] = result->stringOr("output");
        (*cacheStatuses)[i] = result->stringOr("cache");
        const json::Value *runs = result->find("stageRuns");
        if (runs != nullptr)
          (*planStageRuns)[i] = static_cast<unsigned>(
              runs->uintOr("parse") + runs->uintOr("cfg") +
              runs->uintOr("interproc") + runs->uintOr("plan"));
      }
    });
  }
  for (std::thread &thread : pool)
    thread.join();
  timing.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  return timing;
}

json::Value projectRequest(const std::vector<ompdart::gen::GeneratedTu> &tus) {
  json::Value request = json::Value::object();
  request.set("method", "project");
  request.set("project", "scale");
  json::Value tusJson = json::Value::array();
  for (const ompdart::gen::GeneratedTu &tu : tus) {
    json::Value tuJson = json::Value::object();
    tuJson.set("name", tu.name);
    tuJson.set("file", tu.name);
    tuJson.set("source", tu.source);
    tusJson.push(std::move(tuJson));
  }
  request.set("tus", std::move(tusJson));
  return request;
}

/// Names of the TUs the replan actually re-planned (reason != "reused").
std::vector<std::string> replannedNames(const json::Value &result) {
  std::vector<std::string> names;
  const json::Value *tus = result.find("tus");
  if (tus == nullptr)
    return names;
  for (const json::Value &tu : tus->items())
    if (tu.stringOr("reason") != "reused")
      names.push_back(tu.stringOr("name"));
  return names;
}

bool gate(bool condition, const char *message, bool *ok) {
  if (!condition) {
    std::fprintf(stderr, "GATE FAILED: %s\n", message);
    *ok = false;
  }
  return condition;
}

} // namespace

int main() {
  const unsigned tuCount = envTuCount();
  const unsigned clientThreads =
      std::min(8u, std::max(2u, std::thread::hardware_concurrency()));

  // Declared before the server, so it is removed after the server's
  // shutdown has written its last cache files, on every return path.
  const ScopedDir work;
  const fs::path &workDir = work.path;
  const std::string socketPath = (workDir / "plan.sock").string();

  const ompdart::gen::GeneratedProgram program =
      ompdart::gen::generateScaleProject(kSeed, tuCount);

  server::ServerOptions options;
  options.socketPath = socketPath;
  options.workers = clientThreads;
  options.service.config.cacheDir = (workDir / "cache").string();
  options.service.config.cacheMode = ompdart::cache::CacheMode::ReadWrite;
  server::PlanServer planServer(std::move(options));
  std::string error;
  if (!planServer.start(&error)) {
    std::fprintf(stderr, "cannot start plan server: %s\n", error.c_str());
    return 1;
  }

  bool ok = true;

  // --- 1. cold single-TU plans over concurrent connections ---
  std::vector<std::string> coldOutputs, coldStatuses;
  std::vector<unsigned> coldRuns;
  bool transportOk = false;
  const RequestTiming cold =
      planAll(socketPath, program.tus, clientThreads, &coldOutputs,
              &coldStatuses, &coldRuns, &transportOk);
  gate(transportOk, "cold pass transport failed", &ok);

  // --- 2. warm: all hits, zero plan-stage runs, byte-identical ---
  std::vector<std::string> warmOutputs, warmStatuses;
  std::vector<unsigned> warmRuns;
  const RequestTiming warm =
      planAll(socketPath, program.tus, clientThreads, &warmOutputs,
              &warmStatuses, &warmRuns, &transportOk);
  gate(transportOk, "warm pass transport failed", &ok);

  unsigned warmHits = 0, warmPlanStageRuns = 0;
  bool warmByteIdentical = true;
  for (std::size_t i = 0; i < program.tus.size(); ++i) {
    warmHits += warmStatuses[i] == "hit" ? 1 : 0;
    warmPlanStageRuns += warmRuns[i];
    warmByteIdentical = warmByteIdentical && warmOutputs[i] == coldOutputs[i];
  }
  gate(warmHits == program.tus.size(), "warm pass was not 100% cache hits",
       &ok);
  gate(warmPlanStageRuns == 0,
       "warm pass executed parse/cfg/interproc/plan stages", &ok);
  gate(warmByteIdentical, "warm outputs differ from cold outputs", &ok);

  // Server responses must match what an in-process one-shot pipeline emits
  // (spot-checked: full-corpus comparison would dominate the benchmark).
  bool matchesOneShot = true;
  const std::size_t sampleStep =
      std::max<std::size_t>(1, program.tus.size() / 16);
  for (std::size_t i = 0; i < program.tus.size(); i += sampleStep) {
    ompdart::Session session(program.tus[i].name, program.tus[i].source);
    session.run();
    matchesOneShot = matchesOneShot && session.rewrite() == coldOutputs[i];
  }
  gate(matchesOneShot, "server outputs differ from one-shot Session", &ok);

  // --- 3. whole-project + touch-one-TU replans ---
  server::PlanClient client;
  if (!client.connect(socketPath, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto callProject =
      [&](const std::vector<ompdart::gen::GeneratedTu> &tus,
          double *seconds) -> std::optional<json::Value> {
    const auto start = std::chrono::steady_clock::now();
    auto response = client.call(projectRequest(tus), &error);
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (!response || !response->boolOr("ok")) {
      std::fprintf(stderr, "project request failed: %s\n", error.c_str());
      return std::nullopt;
    }
    return *response->find("result");
  };

  double projectColdSeconds = 0.0, commentSeconds = 0.0, factSeconds = 0.0;
  const auto projectCold = callProject(program.tus, &projectColdSeconds);
  gate(projectCold.has_value() && projectCold->boolOr("success"),
       "cold project request failed", &ok);

  // Comment-only edit of one stage: source hash changes, summary does not —
  // exactly ONE TU may replan.
  const std::size_t editIndex = 1 + (program.tus.size() - 1) / 2;
  std::vector<ompdart::gen::GeneratedTu> commentEdit = program.tus;
  commentEdit[editIndex].source += "/* touched */\n";
  const auto commentResult = callProject(commentEdit, &commentSeconds);
  if (gate(commentResult.has_value(), "comment-edit replan failed", &ok)) {
    const auto names = replannedNames(*commentResult);
    gate(commentResult->uintOr("tusReplanned") == 1 && names.size() == 1 &&
             names[0] == commentEdit[editIndex].name,
         "comment edit did not replan exactly the edited TU", &ok);
    gate(commentResult->uintOr("tusReused") == program.tus.size() - 1,
         "comment edit dropped held TUs", &ok);
  }

  // Fact edit (variant 1 flips the stage's kernel access effects): the
  // edited TU replans for its source, main replans because its imports
  // cover the stage summary — and nothing else moves.
  std::vector<ompdart::gen::GeneratedTu> factEdit = commentEdit;
  factEdit[editIndex] = ompdart::gen::generateScaleTu(
      kSeed, static_cast<unsigned>(editIndex), tuCount, /*variant=*/1);
  const auto factResult = callProject(factEdit, &factSeconds);
  if (gate(factResult.has_value(), "fact-edit replan failed", &ok)) {
    auto names = replannedNames(*factResult);
    std::sort(names.begin(), names.end());
    std::vector<std::string> expected = {factEdit[0].name,
                                         factEdit[editIndex].name};
    std::sort(expected.begin(), expected.end());
    gate(names == expected,
         "fact edit did not replan exactly {edited TU, main}", &ok);
    const json::Value *stageRuns = factResult->find("stageRuns");
    gate(stageRuns != nullptr && stageRuns->uintOr("plan") <= 2,
         "fact-edit replan ran more than 2 plan stages", &ok);
  }

  // Clean shutdown through the protocol.
  json::Value shutdownRequest = json::Value::object();
  shutdownRequest.set("method", "shutdown");
  (void)client.call(shutdownRequest, &error);
  planServer.stop();
  planServer.wait();

  std::printf("plan-server scale benchmark: %u TUs, %u client threads\n",
              tuCount, clientThreads);
  std::printf("  cold plans: %8.3f s wall, %8.1f req/s, p99 %7.2f ms\n",
              cold.wallSeconds, cold.rps(), cold.p99Millis());
  std::printf("  warm plans: %8.3f s wall, %8.1f req/s, p99 %7.2f ms "
              "(%u/%zu hits)\n",
              warm.wallSeconds, warm.rps(), warm.p99Millis(), warmHits,
              program.tus.size());
  std::printf("  project cold: %8.3f s\n", projectColdSeconds);
  std::printf("  replan (comment edit): %8.3f s\n", commentSeconds);
  std::printf("  replan (fact edit):    %8.3f s\n", factSeconds);

  json::Value doc = json::Value::object();
  doc.set("tus", tuCount);
  doc.set("clientThreads", clientThreads);
  doc.set("cold", cold.toJson());
  doc.set("warm", warm.toJson());
  doc.set("warmHits", warmHits);
  doc.set("warmPlanStageRuns", warmPlanStageRuns);
  doc.set("warmByteIdentical", warmByteIdentical);
  doc.set("matchesOneShot", matchesOneShot);
  doc.set("projectColdSeconds", projectColdSeconds);
  doc.set("commentReplanSeconds", commentSeconds);
  doc.set("factReplanSeconds", factSeconds);
  doc.set("allGatesPassed", ok);
  std::ofstream out("BENCH_scale.json");
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("wrote BENCH_scale.json\n");
  return ok ? 0 : 1;
}
