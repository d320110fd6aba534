// Command-line front end over the staged pipeline API: read a C file with
// OpenMP offload kernels, run the pipeline (optionally stopping after a
// given stage), and emit transformed source, the mapping plan, the
// serialized Mapping IR, or the full JSON report.
//
//   $ ./ompdart_cli input.c                    # transformed source to stdout
//   $ ./ompdart_cli input.c -o output.c        # ... or to a file
//   $ ./ompdart_cli input.c --emit=json        # structured report (plan,
//                                              #  diagnostics, timings)
//   $ ./ompdart_cli input.c --emit=plan        # human-readable plan summary
//   $ ./ompdart_cli input.c --emit=ir          # self-contained Mapping IR
//   $ ./ompdart_cli input.c --stop-after=plan --emit=json
//   $ ./ompdart_cli input.c --dump-ast         # front-end debugging
//   $ ./ompdart_cli input.c --no-firstprivate --no-hoist
#include "driver/batch.hpp"
#include "driver/pipeline.hpp"
#include "driver/project.hpp"
#include "frontend/ast_printer.hpp"
#include "frontend/parser.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "support/hash.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

const std::vector<std::string> &emitKinds() {
  static const std::vector<std::string> kinds = {"source", "plan", "ir",
                                                 "json"};
  return kinds;
}

std::string joined(const std::vector<std::string> &names) {
  std::string out;
  for (const std::string &name : names)
    out += (out.empty() ? "" : " | ") + name;
  return out;
}

std::vector<std::string> stageNames() {
  std::vector<std::string> names;
  for (const ompdart::Stage stage : ompdart::allStages())
    names.emplace_back(ompdart::stageName(stage));
  return names;
}

void usage(const char *argv0) {
  std::printf(
      "usage: %s <input.c> [options]\n"
      "       %s --project=<manifest.json> [options]\n"
      "  --project=<file>     whole-program mode: analyze every TU listed\n"
      "                       in the manifest ({\"tus\": [\"a.c\", ...]})\n"
      "                       as one program; -o names an output DIRECTORY\n"
      "  -o <file>            write output to <file> instead of stdout\n"
      "  --emit=<kind>        %s (default: source)\n"
      "  --stop-after=<stage> %s\n"
      "  --check              report plan-safety findings (stale-device-read,\n"
      "                       stale-host-read, dead-transfer, double-transfer,\n"
      "                       exit-without-entry) as warnings\n"
      "  --check=error        promote plan-safety findings to errors (the\n"
      "                       pipeline stops before the rewrite stage)\n"
      "  --dump-ast           print the AST instead of transforming\n"
      "  --no-firstprivate    disable the firstprivate optimization\n"
      "  --no-hoist           disable Algorithm 1 update hoisting\n"
      "  --per-kernel         do not extend data regions over loops\n"
      "  --no-interproc       disable the interprocedural fixed point\n"
      "  --cache-dir=<dir>    content-addressed plan cache directory\n"
      "  --cache=<mode>       off | read | read-write (default: read-write\n"
      "                       once --cache-dir is set)\n"
      "  --fuzz=<N>           generate N seeded programs and run the\n"
      "                       differential plan-correctness oracle on each\n"
      "                       (-o names a DIRECTORY: corpus + manifest.json;\n"
      "                       --emit=json prints the full fuzz report)\n"
      "  --gen-seed=<K>       first seed of the fuzz corpus (default: 1)\n"
      "  --shrink             minimize failing programs to statement-minimal\n"
      "                       repros (written as <name>.shrunk.c under -o)\n"
      "  --serve=<socket>     plan-server daemon on a Unix socket: the plan\n"
      "                       cache and project summaries stay hot across\n"
      "                       requests (NDJSON protocol; see README)\n"
      "  --workers=<N>        connection worker threads for --serve\n"
      "  --connect=<socket>   client mode: plan the positional file (or\n"
      "                       --project manifest) via a running server\n"
      "  --request=<file|->   with --connect: replay raw NDJSON request\n"
      "                       lines and print each response line\n"
      "  --shutdown           with --connect: ask the server to stop\n",
      argv0, argv0, joined(emitKinds()).c_str(),
      joined(stageNames()).c_str());
}

std::string renderPlanSummaryFor(const ompdart::Report &report) {
  std::ostringstream out;
  for (const ompdart::ir::Region &region : report.plan.regions) {
    out << "function '" << region.function << "' (lines "
        << region.beginLine() << ".." << region.endLine() << ", "
        << (region.appendsToKernel ? "clauses on kernel pragma"
                                   : "new target data region")
        << ")\n";
    for (const ompdart::ir::MapItem &map : region.maps)
      out << "  map("
          << ompdart::ir::mapTypeSpellingWithModifiers(map.type,
                                                       map.modifiers)
          << ": " << map.item << ")  ~" << map.approxBytes << " bytes\n";
    for (const ompdart::ir::UpdateItem &update : region.updates)
      out << "  update " << ompdart::ir::updateDirectionName(update.direction)
          << "(" << update.item << ") at line " << update.anchor.line << " ["
          << ompdart::ir::updatePlacementName(update.placement)
          << (update.hoisted ? ", hoisted" : "") << "]\n";
    for (const ompdart::ir::FirstprivateItem &fp : region.firstprivates)
      out << "  firstprivate(" << fp.var << ") on kernel at line "
          << fp.kernelLine << "\n";
  }
  if (report.plan.regions.empty())
    out << "no target data regions planned\n";
  return out.str();
}

/// Whole-program mode: run the manifest's TUs as one ProjectSession and
/// emit per-TU sources (into the -o directory or stdout with separators),
/// the aggregate JSON report, or per-TU plan/IR sections.
int runProjectMode(const std::string &manifestPath,
                   const std::string &outputPath, const std::string &emit,
                   ompdart::PipelineConfig config) {
  namespace fs = std::filesystem;
  std::string error;
  auto manifest = ompdart::ProjectManifest::fromJsonFile(manifestPath,
                                                         &error);
  if (!manifest) {
    std::fprintf(stderr, "cannot load project '%s': %s\n",
                 manifestPath.c_str(), error.c_str());
    return 1;
  }
  ompdart::ProjectSession project(std::move(*manifest), std::move(config));
  const bool ok = project.run();

  for (const ompdart::Diagnostic &diag : project.linkDiagnostics())
    std::fprintf(stderr, "link: %s: %s\n",
                 ompdart::severityName(diag.severity),
                 diag.message.c_str());
  for (const ompdart::ProjectItem &item : project.items())
    for (const ompdart::Diagnostic &diag : item.report.diagnostics)
      std::fprintf(stderr, "%s:%s\n", item.name.c_str(),
                   diag.str().c_str());

  if (emit == "json") {
    // The aggregate report is one document: here -o names a file, unlike
    // the per-TU emissions below where it names a directory.
    const std::string payload =
        project.reportJson().dump(/*pretty=*/true);
    if (outputPath.empty()) {
      std::printf("%s", payload.c_str());
    } else {
      std::ofstream out(outputPath);
      out << payload;
      out.flush();
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     outputPath.c_str());
        return 1;
      }
    }
    return ok ? 0 : 1;
  }

  bool writeFailed = false;
  std::set<std::string> usedNames;
  for (const ompdart::ProjectItem &item : project.items()) {
    std::string payload;
    if (emit == "plan") {
      payload = renderPlanSummaryFor(item.report);
    } else if (emit == "ir") {
      payload = item.report.plan.toJson().dump(/*pretty=*/true);
    } else {
      payload = item.output;
    }
    if (outputPath.empty()) {
      std::printf("// ===== %s =====\n%s", item.name.c_str(),
                  payload.c_str());
      if (!payload.empty() && payload.back() != '\n')
        std::printf("\n");
    } else {
      std::error_code ec;
      fs::create_directories(outputPath, ec);
      // Flatten the TU name into one path component so same-basename TUs
      // from different directories land in distinct files; flattening is
      // not injective ("a/b.c" vs "a_b.c"), so residual collisions get a
      // numeric suffix instead of silently overwriting.
      std::string flat = item.name;
      for (char &c : flat)
        if (c == '/' || c == '\\')
          c = '_';
      std::string unique = flat;
      for (unsigned n = 2; !usedNames.insert(unique).second; ++n)
        unique = flat + "." + std::to_string(n);
      const fs::path target = fs::path(outputPath) / unique;
      std::ofstream out(target);
      out << payload;
      out.flush();
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     target.string().c_str());
        writeFailed = true;
      } else {
        std::fprintf(stderr, "wrote %s\n", target.string().c_str());
      }
    }
  }
  return (ok && !writeFailed) ? 0 : 1;
}

std::string renderPlanSummary(ompdart::Session &session) {
  return renderPlanSummaryFor(session.report());
}

/// Fuzz mode: generate the seeded corpus, run the differential oracle on
/// every program, print one deterministic line per program (or the JSON
/// report), and optionally write the corpus + manifest into the -o
/// directory. Exit 0 iff every program passed all oracle invariants.
int runFuzzMode(unsigned count, std::uint64_t baseSeed, bool shrink,
                const std::string &outputPath, const std::string &emit,
                const ompdart::PipelineConfig &config) {
  namespace fs = std::filesystem;
  using ompdart::BatchDriver;
  namespace json = ompdart::json;

  BatchDriver::Options options;
  options.config = config;
  options.config.stopAfter.reset();
  BatchDriver driver(options);

  BatchDriver::FuzzOptions fuzz;
  fuzz.baseSeed = baseSeed;
  fuzz.count = count;
  fuzz.shrinkFailures = shrink;
  const ompdart::FuzzResult result = driver.runFuzz(fuzz);

  if (!outputPath.empty()) {
    // Regenerate for emission: runFuzz owns no corpus copy, and generation
    // is deterministic by contract.
    const auto corpus = ompdart::gen::generateCorpus(baseSeed, count);
    std::error_code ec;
    fs::create_directories(outputPath, ec);
    json::Value manifest = json::Value::object();
    manifest.set("baseSeed", baseSeed);
    manifest.set("count", count);
    json::Value programs = json::Value::array();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const auto &program = corpus[i];
      json::Value entry = json::Value::object();
      entry.set("name", program.name);
      entry.set("seed", program.seed);
      entry.set("provableTrips", program.provableTrips);
      entry.set("multiTu", program.multiTu());
      entry.set("sourceHash", ompdart::hash::fingerprint(program.combined()));
      entry.set("irFingerprint", result.items[i].verdict.irFingerprint);
      entry.set("ok", result.items[i].passed());
      json::Value files = json::Value::array();
      for (const auto &tu : program.tus) {
        std::ofstream out(fs::path(outputPath) / tu.name);
        out << tu.source;
        out.flush();
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n", tu.name.c_str());
          return 1;
        }
        files.push(tu.name);
      }
      entry.set("files", std::move(files));
      programs.push(std::move(entry));
    }
    manifest.set("programs", std::move(programs));
    std::ofstream out(fs::path(outputPath) / "manifest.json");
    out << manifest.dump(/*pretty=*/true);
    for (const ompdart::FuzzFailure &failure : result.failures) {
      if (failure.shrunken.empty())
        continue;
      std::ofstream repro(fs::path(outputPath) /
                          (failure.name + ".shrunk.c"));
      repro << failure.shrunken;
    }
  }

  if (emit == "json") {
    json::Value report = json::Value::object();
    report.set("stats", result.stats.toJson());
    json::Value items = json::Value::array();
    for (const ompdart::FuzzItem &item : result.items) {
      json::Value entry = json::Value::object();
      entry.set("name", item.name);
      entry.set("seed", item.seed);
      entry.set("ran", item.ran);
      entry.set("provableTrips", item.provableTrips);
      entry.set("multiTu", item.multiTu);
      entry.set("verdict", item.verdict.toJson());
      items.push(std::move(entry));
    }
    report.set("items", std::move(items));
    json::Value failures = json::Value::array();
    for (const ompdart::FuzzFailure &failure : result.failures) {
      json::Value entry = json::Value::object();
      entry.set("name", failure.name);
      entry.set("seed", failure.seed);
      entry.set("divergence", failure.divergence);
      entry.set("originalStatements", failure.originalStatements);
      entry.set("shrunkenStatements", failure.shrunkenStatements);
      failures.push(std::move(entry));
    }
    report.set("failures", std::move(failures));
    std::printf("%s\n", report.dump(/*pretty=*/true).c_str());
  } else {
    for (const ompdart::FuzzItem &item : result.items) {
      if (!item.ran) {
        std::printf("%s seed=%llu SKIP (time box)\n", item.name.c_str(),
                    static_cast<unsigned long long>(item.seed));
        continue;
      }
      std::printf("%s seed=%llu %s provable=%d multi-tu=%d baseline=%llu "
                  "plan=%llu predicted=%llu ir=%s\n",
                  item.name.c_str(),
                  static_cast<unsigned long long>(item.seed),
                  item.verdict.ok ? "PASS" : "FAIL", item.provableTrips,
                  item.multiTu,
                  static_cast<unsigned long long>(
                      item.verdict.baselineBytes),
                  static_cast<unsigned long long>(item.verdict.planBytes),
                  static_cast<unsigned long long>(
                      item.verdict.predictedBytes),
                  item.verdict.irFingerprint.c_str());
    }
    for (const ompdart::FuzzFailure &failure : result.failures) {
      std::printf("--- %s ---\n%s\n", failure.name.c_str(),
                  failure.divergence.c_str());
      if (!failure.shrunken.empty())
        std::printf("shrunken repro (%u -> %u statements):\n%s\n",
                    failure.originalStatements, failure.shrunkenStatements,
                    failure.shrunken.c_str());
    }
    std::printf("fuzz: %u/%u passed (%u failed, %u skipped), %u provable, "
                "%u multi-TU\n",
                result.stats.passed, result.stats.programs,
                result.stats.failed, result.stats.skippedByTimeBox,
                result.stats.provable, result.stats.multiTu);
  }
  return result.allPassed() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Plan-server modes
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t gStopRequested = 0;

void handleStopSignal(int) { gStopRequested = 1; }

/// Daemon mode: serve plan requests on a Unix socket until a "shutdown"
/// request or SIGINT/SIGTERM arrives.
int runServeMode(const std::string &socketPath, unsigned workers,
                 ompdart::PipelineConfig config) {
  namespace server = ompdart::server;
  server::ServerOptions options;
  options.socketPath = socketPath;
  options.workers = workers;
  options.service.config = std::move(config);

  server::PlanServer planServer(std::move(options));
  std::string error;
  if (!planServer.start(&error)) {
    std::fprintf(stderr, "cannot start plan server: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "plan server listening on %s\n", socketPath.c_str());

  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);
  // The signal handler only flips a flag; the main thread polls it so the
  // actual stop runs in normal (signal-safe) context.
  while (planServer.running() && gStopRequested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  planServer.stop();
  planServer.wait();

  const server::ServiceStats stats = planServer.service().stats();
  std::fprintf(stderr,
               "plan server stopped: %llu requests, %llu TUs planned, "
               "%llu TUs reused, %llu connections\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.tusPlanned),
               static_cast<unsigned long long>(stats.tusReused),
               static_cast<unsigned long long>(
                   planServer.connectionsServed()));
  return 0;
}

/// The planning switches of this invocation as a request "config" override
/// object, so a server with different defaults still plans what the client
/// asked for.
ompdart::json::Value configOverrides(const ompdart::PipelineConfig &config) {
  ompdart::json::Value overrides = ompdart::json::Value::object();
  overrides.set("firstprivate", config.planner.useFirstprivate);
  overrides.set("hoistUpdates", config.planner.hoistUpdates);
  overrides.set("regionOverLoops", config.planner.extendRegionOverLoops);
  overrides.set("interprocedural", config.planner.interprocedural);
  return overrides;
}

/// Client mode: plan the given file / project through a running server, or
/// replay a raw NDJSON request script.
int runConnectMode(const std::string &socketPath,
                   const std::string &inputPath, const std::string &source,
                   const std::string &projectPath,
                   const std::string &requestScript, bool shutdown,
                   const std::string &outputPath, const std::string &emit,
                   const ompdart::PipelineConfig &config) {
  namespace fs = std::filesystem;
  namespace json = ompdart::json;
  namespace server = ompdart::server;

  server::PlanClient client;
  std::string error;
  if (!client.connect(socketPath, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  if (!requestScript.empty()) {
    // Raw replay: one response line per request line, verbatim.
    std::istream *in = &std::cin;
    std::ifstream file;
    if (requestScript != "-") {
      file.open(requestScript);
      if (!file) {
        std::fprintf(stderr, "cannot open '%s'\n", requestScript.c_str());
        return 1;
      }
      in = &file;
    }
    std::string line;
    bool anyFailed = false;
    while (std::getline(*in, line)) {
      if (line.empty())
        continue;
      const auto response = client.callRaw(line, &error);
      if (!response) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      std::printf("%s\n", response->c_str());
      const auto parsed = json::Value::parse(*response);
      anyFailed = anyFailed || !parsed || !parsed->boolOr("ok");
    }
    return anyFailed ? 1 : 0;
  }

  if (shutdown) {
    json::Value request = json::Value::object();
    request.set("method", "shutdown");
    const auto response = client.call(request, &error);
    if (!response || !response->boolOr("ok")) {
      std::fprintf(stderr, "shutdown failed: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }

  if (!projectPath.empty()) {
    auto manifest = ompdart::ProjectManifest::fromJsonFile(projectPath,
                                                           &error);
    if (!manifest) {
      std::fprintf(stderr, "cannot load project '%s': %s\n",
                   projectPath.c_str(), error.c_str());
      return 1;
    }
    json::Value request = json::Value::object();
    request.set("method", "project");
    request.set("project", manifest->name);
    request.set("config", configOverrides(config));
    if (emit == "json")
      request.set("report", true);
    json::Value tus = json::Value::array();
    for (const ompdart::ProjectTu &tu : manifest->tus) {
      json::Value tuJson = json::Value::object();
      tuJson.set("name", tu.name);
      tuJson.set("file", tu.fileName);
      tuJson.set("source", tu.source);
      tus.push(std::move(tuJson));
    }
    request.set("tus", std::move(tus));

    const auto response = client.call(request, &error);
    if (!response) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!response->boolOr("ok")) {
      std::fprintf(stderr, "server error: %s\n",
                   response->stringOr("error").c_str());
      return 1;
    }
    // An ok:true reply can still be missing members (protocol skew, an
    // older server) — report it instead of dereferencing null.
    const json::Value *result = response->find("result");
    if (result == nullptr) {
      std::fprintf(stderr, "malformed server response: missing \"result\"\n");
      return 1;
    }
    if (emit == "json") {
      std::printf("%s\n", result->dump(/*pretty=*/true).c_str());
      return result->boolOr("success") ? 0 : 1;
    }
    const json::Value *tusJson = result->find("tus");
    if (tusJson == nullptr) {
      std::fprintf(stderr, "malformed server response: missing \"tus\"\n");
      return 1;
    }
    bool ok = result->boolOr("success");
    for (const json::Value &tu : tusJson->items()) {
      const std::string name = tu.stringOr("name");
      const std::string output = tu.stringOr("output");
      if (outputPath.empty()) {
        std::printf("// ===== %s =====\n%s", name.c_str(), output.c_str());
        if (!output.empty() && output.back() != '\n')
          std::printf("\n");
      } else {
        std::error_code ec;
        fs::create_directories(outputPath, ec);
        std::string flat = name;
        for (char &c : flat)
          if (c == '/' || c == '\\')
            c = '_';
        std::ofstream out(fs::path(outputPath) / flat);
        out << output;
        out.flush();
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n", flat.c_str());
          ok = false;
        }
      }
    }
    return ok ? 0 : 1;
  }

  json::Value request = json::Value::object();
  request.set("method", "plan");
  request.set("file", inputPath);
  request.set("source", source);
  request.set("config", configOverrides(config));
  if (emit != "source")
    request.set("report", true);
  const auto response = client.call(request, &error);
  if (!response) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!response->boolOr("ok")) {
    std::fprintf(stderr, "server error: %s\n",
                 response->stringOr("error").c_str());
    return 1;
  }
  const json::Value *result = response->find("result");
  if (result == nullptr) {
    std::fprintf(stderr, "malformed server response: missing \"result\"\n");
    return 1;
  }
  std::fprintf(stderr, "plan cache: %s\n",
               result->stringOr("cache").c_str());
  const bool ok = result->boolOr("success");

  std::string payload;
  if (emit == "json") {
    const json::Value *report = result->find("report");
    payload = (report != nullptr ? *report : json::Value()).dump(true);
  } else if (emit == "plan" || emit == "ir") {
    const json::Value *report = result->find("report");
    std::string decodeError;
    std::optional<ompdart::Report> decoded;
    if (report != nullptr)
      decoded = ompdart::Report::fromJson(*report, &decodeError);
    if (!decoded) {
      std::fprintf(stderr, "cannot decode server report: %s\n",
                   decodeError.c_str());
      return 1;
    }
    payload = emit == "plan" ? renderPlanSummaryFor(*decoded)
                             : decoded->plan.toJson().dump(/*pretty=*/true);
  } else {
    if (!ok)
      return 1;
    payload = result->stringOr("output");
  }
  if (outputPath.empty()) {
    std::printf("%s", payload.c_str());
  } else {
    std::ofstream out(outputPath);
    out << payload;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", outputPath.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 1;
  }
  std::string inputPath;
  std::string outputPath;
  std::string projectPath;
  std::string emit = "source";
  bool dumpAst = false;
  bool cacheModeExplicit = false;
  unsigned fuzzCount = 0;
  bool fuzzMode = false;
  std::uint64_t genSeed = 1;
  bool genSeedExplicit = false;
  bool shrink = false;
  std::string servePath;
  std::string connectPath;
  std::string requestScript;
  unsigned serveWorkers = 0;
  bool shutdownRequest = false;
  ompdart::PipelineConfig config;
  auto parseUnsigned = [](const std::string &text,
                          std::uint64_t &value) -> bool {
    if (text.empty())
      return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
      return false;
    value = parsed;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      outputPath = argv[++i];
    } else if (arg.rfind("--project=", 0) == 0) {
      projectPath = arg.substr(10);
    } else if (arg == "--project" && i + 1 < argc) {
      projectPath = argv[++i];
    } else if (arg == "--dump-ast") {
      dumpAst = true;
    } else if (arg.rfind("--emit=", 0) == 0) {
      emit = arg.substr(7);
      bool known = false;
      for (const std::string &kind : emitKinds())
        known = known || emit == kind;
      if (!known) {
        std::fprintf(stderr, "unknown emit kind '%s' (valid kinds: %s)\n",
                     emit.c_str(), joined(emitKinds()).c_str());
        return 1;
      }
    } else if (arg.rfind("--stop-after=", 0) == 0) {
      const std::string stage = arg.substr(13);
      config.stopAfter = ompdart::stageFromName(stage);
      if (!config.stopAfter) {
        std::fprintf(stderr, "unknown stage '%s' (valid stages: %s)\n",
                     stage.c_str(), joined(stageNames()).c_str());
        return 1;
      }
    } else if (arg == "--check") {
      config.check = true;
    } else if (arg == "--check=error") {
      config.checkErrors = true;
    } else if (arg.rfind("--check=", 0) == 0) {
      std::fprintf(stderr,
                   "unknown check mode '%s' (use --check or --check=error)\n",
                   arg.substr(8).c_str());
      return 1;
    } else if (arg == "--no-firstprivate") {
      config.planner.useFirstprivate = false;
    } else if (arg == "--no-hoist") {
      config.planner.hoistUpdates = false;
    } else if (arg == "--per-kernel") {
      config.planner.extendRegionOverLoops = false;
    } else if (arg == "--no-interproc") {
      config.planner.interprocedural = false;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      config.cacheDir = arg.substr(12);
    } else if (arg.rfind("--cache=", 0) == 0) {
      const std::string mode = arg.substr(8);
      const auto parsed = ompdart::cache::cacheModeFromName(mode);
      if (!parsed) {
        std::fprintf(stderr,
                     "unknown cache mode '%s' (off | read | read-write)\n",
                     mode.c_str());
        return 1;
      }
      config.cacheMode = *parsed;
      cacheModeExplicit = true;
    } else if (arg.rfind("--fuzz=", 0) == 0) {
      std::uint64_t parsed = 0;
      if (!parseUnsigned(arg.substr(7), parsed) || parsed == 0 ||
          parsed > 1'000'000) {
        std::fprintf(stderr,
                     "--fuzz needs a positive program count, got '%s'\n",
                     arg.substr(7).c_str());
        return 1;
      }
      fuzzCount = static_cast<unsigned>(parsed);
      fuzzMode = true;
    } else if (arg.rfind("--gen-seed=", 0) == 0) {
      if (!parseUnsigned(arg.substr(11), genSeed)) {
        std::fprintf(stderr, "--gen-seed needs an unsigned seed, got '%s'\n",
                     arg.substr(11).c_str());
        return 1;
      }
      genSeedExplicit = true;
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg.rfind("--serve=", 0) == 0) {
      servePath = arg.substr(8);
    } else if (arg.rfind("--connect=", 0) == 0) {
      connectPath = arg.substr(10);
    } else if (arg.rfind("--request=", 0) == 0) {
      requestScript = arg.substr(10);
    } else if (arg.rfind("--workers=", 0) == 0) {
      std::uint64_t parsed = 0;
      if (!parseUnsigned(arg.substr(10), parsed) || parsed == 0 ||
          parsed > 256) {
        std::fprintf(stderr,
                     "--workers needs a thread count in 1..256, got '%s'\n",
                     arg.substr(10).c_str());
        return 1;
      }
      serveWorkers = static_cast<unsigned>(parsed);
    } else if (arg == "--shutdown") {
      shutdownRequest = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      inputPath = arg;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (!fuzzMode && (genSeedExplicit || shrink)) {
    std::fprintf(stderr, "%s requires --fuzz=<N>\n",
                 genSeedExplicit ? "--gen-seed" : "--shrink");
    return 1;
  }
  const bool serveMode = !servePath.empty();
  const bool connectMode = !connectPath.empty();
  if (serveMode && (fuzzMode || connectMode || !inputPath.empty() ||
                    !projectPath.empty() || dumpAst)) {
    std::fprintf(stderr,
                 "--serve is a standalone mode; drop the input file, "
                 "--project, --fuzz, --connect and --dump-ast\n");
    return 1;
  }
  if (serveWorkers != 0 && !serveMode) {
    std::fprintf(stderr, "--workers requires --serve=<socket>\n");
    return 1;
  }
  if ((!requestScript.empty() || shutdownRequest) && !connectMode) {
    std::fprintf(stderr, "%s requires --connect=<socket>\n",
                 requestScript.empty() ? "--shutdown" : "--request");
    return 1;
  }
  if (connectMode) {
    if (fuzzMode || dumpAst) {
      std::fprintf(stderr,
                   "--connect cannot combine with --fuzz or --dump-ast\n");
      return 1;
    }
    const int payloads = (inputPath.empty() ? 0 : 1) +
                         (projectPath.empty() ? 0 : 1) +
                         (requestScript.empty() ? 0 : 1) +
                         (shutdownRequest ? 1 : 0);
    if (payloads != 1) {
      std::fprintf(stderr,
                   "--connect needs exactly one of: an input file, "
                   "--project, --request, --shutdown\n");
      return 1;
    }
  }
  if (fuzzMode && (!inputPath.empty() || !projectPath.empty())) {
    std::fprintf(stderr,
                 "--fuzz generates its own inputs; drop the positional "
                 "file / --project\n");
    return 1;
  }
  if (fuzzMode && emit != "source" && emit != "json") {
    std::fprintf(stderr, "--fuzz supports --emit=json only\n");
    return 1;
  }
  if (inputPath.empty() && projectPath.empty() && !fuzzMode && !serveMode &&
      !connectMode) {
    usage(argv[0]);
    return 1;
  }
  if (!projectPath.empty() && !inputPath.empty()) {
    std::fprintf(stderr,
                 "--project and a positional input are mutually exclusive\n");
    return 1;
  }
  if (!projectPath.empty() && dumpAst) {
    std::fprintf(stderr,
                 "--dump-ast is a single-file flag; run it per TU\n");
    return 1;
  }
  if (emit == "source" && config.stopAfter &&
      *config.stopAfter < ompdart::Stage::Rewrite) {
    std::fprintf(stderr,
                 "--emit=source needs the rewrite stage; drop --stop-after "
                 "or use --emit=plan/ir/json\n");
    return 1;
  }

  std::string source;
  if (!inputPath.empty() && projectPath.empty() && !fuzzMode) {
    std::ifstream in(inputPath);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", inputPath.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  if (dumpAst) {
    ompdart::SourceManager sourceManager(inputPath, source);
    ompdart::ASTContext context;
    ompdart::DiagnosticEngine diags;
    if (!ompdart::parseSource(sourceManager, context, diags)) {
      std::fprintf(stderr, "%s", diags.summary().c_str());
      return 1;
    }
    std::printf("%s", ompdart::dumpTranslationUnit(context.unit()).c_str());
    return 0;
  }

  // Flag order must not matter: --cache-dir without an explicit --cache
  // defaults to read-write; an explicit --cache=off wins either way.
  if (!config.cacheDir.empty() && !cacheModeExplicit)
    config.cacheMode = ompdart::cache::CacheMode::ReadWrite;
  if (config.cacheDir.empty() &&
      config.cacheMode != ompdart::cache::CacheMode::Off) {
    std::fprintf(stderr, "--cache=%s needs --cache-dir=<dir>\n",
                 ompdart::cache::cacheModeName(config.cacheMode));
    return 1;
  }
  if (!config.cacheDir.empty() &&
      config.cacheMode == ompdart::cache::CacheMode::Off)
    config.cacheDir.clear();

  if (serveMode)
    return runServeMode(servePath, serveWorkers, std::move(config));
  if (connectMode)
    return runConnectMode(connectPath, inputPath, source, projectPath,
                          requestScript, shutdownRequest, outputPath, emit,
                          config);
  if (fuzzMode)
    return runFuzzMode(fuzzCount, genSeed, shrink, outputPath, emit, config);
  if (!projectPath.empty())
    return runProjectMode(projectPath, outputPath, emit, std::move(config));

  ompdart::Session session(inputPath, source, config);
  // Pretty-print diagnostics to stderr as they are reported.
  ompdart::StreamSink diagnosticPrinter(std::cerr, inputPath);
  session.diagnostics().setSink(&diagnosticPrinter);

  const bool ok = session.run();

  switch (session.planCacheStatus()) {
  case ompdart::Session::PlanCacheStatus::Disabled:
    break;
  case ompdart::Session::PlanCacheStatus::Uncacheable:
    std::fprintf(stderr, "plan cache: uncacheable configuration\n");
    break;
  case ompdart::Session::PlanCacheStatus::Miss:
  case ompdart::Session::PlanCacheStatus::Hit:
    std::fprintf(stderr, "plan cache: %s (key %s)\n",
                 session.planFromCache() ? "hit" : "miss",
                 session.planCacheKey().id().c_str());
    break;
  }

  std::string payload;
  if (emit == "json") {
    payload = session.report().toJson().dump(/*pretty=*/true);
  } else if (emit == "plan") {
    payload = renderPlanSummary(session);
  } else if (emit == "ir") {
    payload = session.ir().toJson().dump(/*pretty=*/true);
  } else {
    if (!ok)
      return 1;
    payload = session.rewrite();
  }

  if (outputPath.empty()) {
    std::printf("%s", payload.c_str());
  } else {
    std::ofstream out(outputPath);
    out << payload;
    const ompdart::Report &report = session.report();
    std::size_t maps = 0, updates = 0;
    for (const ompdart::ir::Region &region : report.plan.regions) {
      maps += region.maps.size();
      updates += region.updates.size();
    }
    std::fprintf(stderr,
                 "wrote %s (%zu map items, %zu updates, tool time %.4fs)\n",
                 outputPath.c_str(), maps, updates, report.totalSeconds);
  }
  return ok ? 0 : 1;
}
