// project_edit: a generated scale project of a few hundred TUs, replanned
// through "project" requests on the plan server's socket after each edit of
// a seeded edit stream. Edits come in pairs, an edit and its flip-back:
//   - a comment edit replans exactly the edited TU,
//   - a fact edit (generateScaleTu variant 1) replans the edited TU plus
//     main, whose imports cover every stage summary,
//   - a flip-back restores the original source (a plan-cache hit) and
//     replans the same set as the edit it reverts.
// The only workload that exercises summary extraction, the whole-program
// link fixed point, IncrementalProject reuse and multi-hundred-KB lines.
#include "bench.hpp"

#include "analysis/summary.hpp"
#include "driver/incremental.hpp"
#include "gen/generator.hpp"
#include "server/client.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

namespace server = ompdart::server;
namespace gen = ompdart::gen;

constexpr unsigned kProjectTus = 300;
/// Worker threads of the project replanner. An edit replans one or two
/// TUs, so a pool buys nothing but scheduling noise.
constexpr unsigned kReplanThreads = 1;
/// The share of fact edits is measured on this repository's own history
/// (perfbench/edit_mix.py): 49 of 94 modified C/C++ TUs (52 %) changed
/// with their header of the same name, an edit other TUs see; the rest
/// changed nothing another TU imports, as a comment edit does. So 13 of
/// every 25 edit/flip-back pairs are fact edits, spread evenly.
constexpr std::uint64_t kFactPairsPerCycle = 13;
constexpr std::uint64_t kPairsPerCycle = 25;
/// Ops per quantum: one cycle of pairs, so a phase samples the mix exactly.
constexpr std::uint64_t kOpsPerCycle = 2 * kPairsPerCycle;
/// Ops of the traced stream replayed against single layers: one cycle.
constexpr std::uint64_t kReplayOps = kOpsPerCycle;

std::string tuFragment(const gen::GeneratedTu &tu) {
  json::Value entry = json::Value::object();
  entry.set("name", tu.name);
  entry.set("file", tu.name);
  entry.set("source", tu.source);
  return entry.dump();
}

struct Project {
  std::vector<gen::GeneratedTu> tus;  ///< original sources (variant 0)
  std::vector<std::string> fragments; ///< their JSON request entries
};

Project buildProject(std::uint64_t seed) {
  Project project;
  project.tus = gen::generateScaleProject(seed, kProjectTus).tus;
  for (const gen::GeneratedTu &tu : project.tus)
    project.fragments.push_back(tuFragment(tu));
  return project;
}

/// Op `index` of phase `phase`: even ops edit one stage TU, odd ops flip
/// it back. kFactPairsPerCycle of every kPairsPerCycle pairs are fact
/// edits, the others comment edits.
struct Edit {
  std::size_t tu = 0;
  bool fact = false;
  bool flipBack = false;
  gen::GeneratedTu source;           ///< the TU's source after this op
  std::vector<std::string> expected; ///< sorted names that must replan
};

Edit editFor(const Project &project, std::uint64_t seed, char phase,
             std::uint64_t index) {
  const std::uint64_t pair = index / 2;
  gen::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + pair * 0x632be59bd9b4e019ull +
                      static_cast<std::uint64_t>(phase));
  const unsigned count = static_cast<unsigned>(project.tus.size());
  Edit edit;
  edit.tu = static_cast<std::size_t>(rng.pick(1, static_cast<int>(count) - 1));
  const std::uint64_t inCycle = pair % kPairsPerCycle;
  edit.fact = (inCycle + 1) * kFactPairsPerCycle / kPairsPerCycle >
              inCycle * kFactPairsPerCycle / kPairsPerCycle;
  edit.flipBack = index % 2 == 1;
  edit.source = project.tus[edit.tu];
  if (!edit.flipBack) {
    if (edit.fact)
      edit.source = gen::generateScaleTu(seed, static_cast<unsigned>(edit.tu),
                                         count, /*variant=*/1);
    else
      edit.source.source += "/* edit " + std::string(1, phase) + "-" +
                            std::to_string(pair) + " */\n";
  }
  edit.expected.push_back(project.tus[edit.tu].name);
  if (edit.fact)
    edit.expected.push_back(project.tus[0].name);
  std::sort(edit.expected.begin(), edit.expected.end());
  return edit;
}

/// The "project" request line with `edit` applied.
std::string projectLine(const Project &project, const Edit &edit) {
  std::string line = R"({"method":"project","project":"bench","tus":[)";
  for (std::size_t i = 0; i < project.fragments.size(); ++i) {
    if (i > 0)
      line += ',';
    line += i == edit.tu ? tuFragment(edit.source) : project.fragments[i];
  }
  line += "]}";
  return line;
}

std::string initialLine(const Project &project) {
  Edit none;
  none.tu = project.tus.size(); // matches no TU
  return projectLine(project, none);
}

/// Names of the TUs a replan reply says were replanned, sorted.
std::vector<std::string> replanned(const json::Value &result) {
  std::vector<std::string> names;
  if (const json::Value *tus = result.find("tus"))
    for (const json::Value &tu : tus->items())
      if (tu.stringOr("reason") != "reused")
        names.push_back(tu.stringOr("name"));
  std::sort(names.begin(), names.end());
  return names;
}

struct EditState {
  Project project;
  std::unique_ptr<ServerFixture> fixture;
};

/// Set-up: generate the project, start the server, plan the whole project
/// once through it (untimed warm-up).
bool setUp(const RunOptions &options, EditState *state, std::string *error) {
  state->project = buildProject(options.seed);
  const std::string dir = options.workDir + "/server";
  state->fixture = std::make_unique<ServerFixture>(
      dir, 1, serviceOptions(dir + "/cache", kReplanThreads));
  if (!state->fixture->ok()) {
    *error = state->fixture->error();
    return false;
  }
  server::PlanClient client;
  if (!client.connect(state->fixture->socketPath(), error))
    return false;
  const auto reply = client.callRaw(initialLine(state->project), error);
  const auto parsed = reply ? json::Value::parse(*reply) : std::nullopt;
  const json::Value *result = parsed ? parsed->find("result") : nullptr;
  if (result == nullptr || !result->boolOr("success")) {
    *error = "initial project request failed";
    return false;
  }
  return true;
}

Phase editPhase(const EditState &state, const RunOptions &options, char phase,
                WorkloadResult *result) {
  server::PlanClient client;
  std::string error;
  if (!client.connect(state.fixture->socketPath(), &error))
    result->fail("project_edit connect: " + error);
  return timedLoop(
      1, options.seconds,
      [&](unsigned, std::uint64_t index, double &latency) {
        const Edit edit = editFor(state.project, options.seed, phase, index);
        const std::string line = projectLine(state.project, edit);
        std::optional<std::string> reply;
        {
          ScopedSpan span("server.request", index);
          const auto start = Clock::now();
          reply = client.callRaw(line, &error);
          latency = secondsSince(start);
        }
        const auto parsed = reply ? json::Value::parse(*reply) : std::nullopt;
        const json::Value *body = parsed ? parsed->find("result") : nullptr;
        if (body == nullptr || !body->boolOr("success") ||
            replanned(*body) != edit.expected) {
          std::fprintf(stderr,
                       "perfbench: project_edit op %llu (%s%s of %s) did not "
                       "replan the expected TUs\n",
                       static_cast<unsigned long long>(index),
                       edit.fact ? "fact" : "comment",
                       edit.flipBack ? " flip-back" : "",
                       state.project.tus[edit.tu].name.c_str());
          return false;
        }
        return true;
      },
      result, kOpsPerCycle);
}

std::vector<ompdart::ProjectTu> projectTus(const Project &project,
                                           const Edit &edit) {
  std::vector<ompdart::ProjectTu> tus;
  for (std::size_t i = 0; i < project.tus.size(); ++i) {
    const gen::GeneratedTu &tu = i == edit.tu ? edit.source : project.tus[i];
    tus.push_back({tu.name, tu.name, tu.source});
  }
  return tus;
}

/// Per-layer replays of the first kReplayOps ops of the traced stream.
void replay(const EditState &state, const RunOptions &options, char phase,
            double roundTripMedianUs, WorkloadResult *result) {
  const Project &project = state.project;
  std::vector<Edit> edits;
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < kReplayOps; ++i) {
    edits.push_back(editFor(project, options.seed, phase, i));
    lines.push_back(projectLine(project, edits.back()));
  }
  auto &layers = result->layers;
  const double ops = static_cast<double>(kReplayOps);

  { // driver: IncrementalProject::replan called directly.
    ScratchDir dir(options.workDir + "/replay-driver");
    ompdart::PipelineConfig config = coldConfig();
    config.cacheDir = dir.file("cache");
    config.cacheMode = ompdart::cache::CacheMode::ReadWrite;
    ompdart::IncrementalProject incremental(
        config, {kReplanThreads});
    Edit none;
    none.tu = project.tus.size();
    (void)incremental.replan(projectTus(project, none));
    double replannedTus = 0.0, extracted = 0.0;
    for (std::size_t i = 0; i < edits.size(); ++i) {
      ompdart::IncrementalResult replan;
      {
        ScopedSpan span("driver.replan", i);
        replan = incremental.replan(projectTus(project, edits[i]));
      }
      replannedTus += replan.tusReplanned;
      extracted += replan.summariesExtracted;
      std::vector<std::string> names;
      for (const auto &tu : replan.tus)
        if (tu.replanned())
          names.push_back(tu.name);
      std::sort(names.begin(), names.end());
      ++result->attempted;
      if (!replan.success || names != edits[i].expected)
        result->fail("project_edit replay of IncrementalProject::replan");
    }
    layers["driver.tus_replanned"] = replannedTus / ops;
    layers["driver.summaries_extracted"] = extracted / ops;
  }

  { // analysis: summary extraction of the edited TU, link of the program.
    std::vector<ompdart::summary::ModuleSummary> modules;
    for (const gen::GeneratedTu &tu : project.tus) {
      ompdart::Session session(tu.name, tu.source, coldConfig());
      modules.push_back(ompdart::summary::extractModuleSummary(
          session.parse().unit(), tu.name));
    }
    unsigned passes = 0;
    for (std::size_t i = 0; i < edits.size(); ++i) {
      const gen::GeneratedTu &tu = edits[i].source;
      ompdart::Session session(tu.name, tu.source, coldConfig());
      const auto &unit = session.parse().unit();
      std::vector<ompdart::summary::ModuleSummary> linked = modules;
      {
        ScopedSpan span("analysis.summary_extract", i);
        linked[edits[i].tu] =
            ompdart::summary::extractModuleSummary(unit, tu.name);
      }
      ScopedSpan span("analysis.link", i);
      passes = ompdart::summary::linkProgram(linked).passes;
    }
    layers["analysis.link_passes"] = passes;
  }

  { // server.handle: a fresh service warmed with the whole project.
    ScratchDir dir(options.workDir + "/replay-service");
    server::PlanService service(
        serviceOptions(dir.file("cache"), kReplanThreads));
    (void)service.handleLine(initialLine(project));
    Latencies handle;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ScopedSpan span("server.handle", i);
      const auto start = Clock::now();
      const json::Value reply = service.handleLine(lines[i]);
      handle.add(secondsSince(start));
      ++result->attempted;
      if (!reply.boolOr("ok"))
        result->fail("project_edit replay of handleLine");
    }
    const double handleUs = handle.percentileMs(50.0) * 1000.0;
    layers["server.handle_us"] = handleUs;
    layers["server.transport_us"] = roundTripMedianUs - handleUs;
  }

  layers["server.frame_mb_per_s"] = frameMegabytesPerSecond(lines);

  { // cache: lookups and stores on the edited TUs' sources.
    std::vector<SourceTu> sources;
    std::vector<std::size_t> warm, stream;
    for (const gen::GeneratedTu &tu : project.tus) {
      warm.push_back(sources.size());
      sources.push_back({tu.name, tu.source});
    }
    std::map<std::string, std::size_t> edited;
    for (const Edit &edit : edits) {
      if (edit.flipBack) {
        stream.push_back(edit.tu);
        continue;
      }
      const auto [it, fresh] =
          edited.emplace(edit.source.source, sources.size());
      if (fresh)
        sources.push_back({edit.source.name, edit.source.source});
      stream.push_back(it->second);
    }
    ScratchDir dir(options.workDir + "/replay-cache");
    replayCache(sources, warm, stream, dir.file("cache"), options.threads,
                result);
  }

  // The pipeline, stage by stage, on each op's edited TU.
  for (std::size_t i = 0; i < edits.size(); ++i)
    (void)planTu({edits[i].source.name, edits[i].source.source}, coldConfig(),
                 i);
  const auto totals = Tracer::totals();
  addStageLayers(totals, kReplayOps, result);
  layers["driver.replan_s"] = selfSeconds(totals, "driver.replan") / ops;
  layers["analysis.summary_extract_s"] =
      selfSeconds(totals, "analysis.summary_extract") / ops;
  layers["analysis.link_s"] = selfSeconds(totals, "analysis.link") / ops;
}

} // namespace

WorkloadResult runProjectEdit(const RunOptions &options) {
  WorkloadResult result;
  result.tailPercentile = 90.0;

  EditState state;
  std::vector<double> setups;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    // Stopping the previous repetition's server (which flushes its cache)
    // is not set-up.
    state.fixture.reset();
    const auto start = Clock::now();
    std::string error;
    if (!setUp(options, &state, &error)) {
      ++result.attempted;
      result.fail("project_edit set-up: " + error);
      return result;
    }
    setups.push_back(secondsSince(start));
  }
  result.setupSeconds = median(setups);

  const Phase plain = editPhase(state, options, 'p', &result);
  setEndToEnd(plain, &result);

  if (options.trace) {
    const std::string &socket = state.fixture->socketPath();
    const json::Value before = serverCacheStats(socket);
    Tracer::reset();
    Tracer::setEnabled(true);
    const auto traceStart = Clock::now();
    const Phase traced = editPhase(state, options, 't', &result);
    addCacheRatios(before, serverCacheStats(socket), &result);
    replay(state, options, 't', traced.latencies.percentileMs(50.0) * 1000.0,
           &result);
    Tracer::setEnabled(false);
    addLayerShares(Tracer::totals(), secondsSince(traceStart), &result);
    addTraceOverhead(plain, traced, &result);
  }
  state.fixture.reset();

  json::Value &detail = result.detail;
  detail.set("project_tus", static_cast<std::uint64_t>(kProjectTus));
  detail.set("replan_per_s", result.opsPerSecond);
  detail.set("replan_p50_ms", result.p50Ms);
  detail.set("replan_tail_ms", result.tailMs);
  detail.set("request_bytes",
             static_cast<std::uint64_t>(initialLine(state.project).size()));
  // One worker, so sample i is op i.
  Latencies kinds[2][2]; // [fact][flip-back]
  for (std::size_t i = 0; i < plain.latencies.size(); ++i) {
    const Edit edit = editFor(state.project, options.seed, 'p', i);
    kinds[edit.fact][edit.flipBack].add(plain.latencies.samples[i]);
  }
  detail.set("comment_edit_p50_ms", kinds[0][0].percentileMs(50.0));
  detail.set("comment_flip_back_p50_ms", kinds[0][1].percentileMs(50.0));
  detail.set("fact_edit_p50_ms", kinds[1][0].percentileMs(50.0));
  detail.set("fact_flip_back_p50_ms", kinds[1][1].percentileMs(50.0));
  return result;
}

} // namespace perfbench
