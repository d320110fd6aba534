// serve_mixed: an in-process PlanServer on a Unix socket, driven by a
// closed-loop client (a build system or editor waits for each reply). A
// seeded stream of "plan" requests over a pool of generated TUs: most
// repeat an already-planned source (a plan-cache read), a minority carry an
// edited source (a miss that runs the pipeline). Cache and server dominate
// the median; the pipeline shows only in the tail. Cache stores are timed
// on their own in the traced run.
#include "bench.hpp"

#include "gen/generator.hpp"
#include "server/client.hpp"
#include "support/hash.hpp"

#include <cstdio>

namespace perfbench {

namespace {

namespace server = ompdart::server;

/// The traffic mix is measured on this repository's own history
/// (perfbench/edit_mix.py): rebuilding after each commit that touches a
/// C/C++ TU asks for every TU of the tree, and 17.6 % of those requests
/// (214 of 1213 over 9 rebuilds) were added or modified TUs. The pool is
/// the repository's TU count at the time of measurement (182); the edit
/// share is rounded to a whole percent.
constexpr unsigned kPoolPrograms = 182;
constexpr int kEditPercent = 18;
/// Closed-loop client connections and server workers. One of each keeps
/// the request path's wake-ups on otherwise idle cores; with two of each,
/// throughput varied by up to 2x between runs on a four-core machine.
constexpr unsigned kClients = 1;
constexpr unsigned kServerWorkers = 1;
/// Requests of the traced stream replayed against single layers.
constexpr std::size_t kReplayRequests = 2000;

struct Pool {
  std::vector<SourceTu> tus;
  std::vector<std::string> lines; ///< the "plan" request line of each TU
};

std::string planLine(const SourceTu &tu) {
  json::Value request = json::Value::object();
  request.set("method", "plan");
  request.set("file", tu.fileName);
  request.set("source", tu.source);
  return request.dump();
}

Pool buildPool(std::uint64_t seed) {
  Pool pool;
  for (const std::uint64_t programSeed :
       drawCorpusSeeds(seed ^ 0x5e77e5eedull, kPoolPrograms)) {
    const auto program = ompdart::gen::generateProgram(programSeed);
    pool.tus.push_back({program.name + ".c", program.combined()});
    pool.lines.push_back(planLine(pool.tus.back()));
  }
  return pool;
}

/// Request `index` of phase `phase`: a pool TU, edited with probability
/// kEditPercent. Edits append a comment unique to (phase, index), so every
/// edit is a cache miss.
struct Request {
  std::size_t pool = 0;
  bool edit = false;
  SourceTu tu;      ///< set for edits
  std::string line; ///< set for edits
};

Request requestFor(const Pool &pool, std::uint64_t seed, char phase,
                   std::uint64_t index) {
  ompdart::gen::SplitMix64 rng(seed * 0x2545f4914f6cdd1dull +
                               index * 0x9e3779b97f4a7c15ull +
                               static_cast<std::uint64_t>(phase));
  Request request;
  request.pool = static_cast<std::size_t>(
      rng.pick(0, static_cast<int>(pool.tus.size()) - 1));
  request.edit = rng.chance(kEditPercent);
  if (request.edit) {
    request.tu = pool.tus[request.pool];
    request.tu.source += "\n/* edit " + std::string(1, phase) + "-" +
                         std::to_string(index) + " */\n";
    request.line = planLine(request.tu);
  }
  return request;
}

/// One served reply, kept for the correctness check after the phase.
struct Served {
  std::uint64_t index = 0;
  std::size_t pool = 0;
  bool edit = false;
  bool hit = false;
  std::string outputFingerprint;
  double seconds = 0.0; ///< round trip
};

struct ServeState {
  Pool pool;
  /// Declared before the fixture, so the server (and its PlanCache) is
  /// destroyed before the cache directory is removed.
  std::unique_ptr<ScratchDir> cacheDir;
  std::unique_ptr<ServerFixture> fixture;
};

/// Set-up: generate the pool, plan every pool TU into a read-write plan
/// cache (as an earlier build would have), then start the server over that
/// cache in read mode and request every pool TU once, so each is a memo
/// hit when timing starts. Read mode keeps the misses' entry-file writes
/// out of the timed path: with them the edit latency drifted by 50 % from
/// run to run with the disk, and every edit in the stream is unique, so a
/// store would never be read back.
bool setUp(const RunOptions &options, ServeState *state, std::string *error) {
  state->pool = buildPool(options.seed);
  state->cacheDir = std::make_unique<ScratchDir>(options.workDir + "/cache");
  {
    ompdart::cache::PlanCache cache(state->cacheDir->path(),
                                    ompdart::cache::CacheMode::ReadWrite);
    ompdart::PipelineConfig config = coldConfig();
    config.planCache = &cache;
    for (const SourceTu &tu : state->pool.tus) {
      ompdart::Session session(tu.fileName, tu.source, config);
      if (!session.run()) {
        *error = "cannot plan " + tu.fileName;
        return false;
      }
    }
  }
  state->fixture = std::make_unique<ServerFixture>(
      options.workDir + "/server", kServerWorkers,
      serviceOptions(state->cacheDir->path(), kServerWorkers,
                     ompdart::cache::CacheMode::Read));
  if (!state->fixture->ok()) {
    *error = state->fixture->error();
    return false;
  }
  server::PlanClient client;
  if (!client.connect(state->fixture->socketPath(), error))
    return false;
  for (const std::string &line : state->pool.lines) {
    const auto reply = client.callRaw(line, error);
    const auto parsed = reply ? json::Value::parse(*reply) : std::nullopt;
    const json::Value *body = parsed ? parsed->find("result") : nullptr;
    if (body == nullptr || body->stringOr("cache") != "hit") {
      *error = "warm-up request was not a plan-cache hit";
      return false;
    }
  }
  return true;
}

Phase servePhase(const ServeState &state, const RunOptions &options,
                 char phase, std::vector<Served> *served,
                 WorkloadResult *result) {
  std::vector<std::unique_ptr<server::PlanClient>> connections;
  std::vector<std::vector<Served>> perClient(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    connections.push_back(std::make_unique<server::PlanClient>());
    std::string error;
    if (!connections.back()->connect(state.fixture->socketPath(), &error))
      result->fail("serve_mixed connect: " + error);
  }
  const Phase measured = timedLoop(
      kClients, options.seconds,
      [&](unsigned worker, std::uint64_t index, double &latency) {
        const Request request =
            requestFor(state.pool, options.seed, phase, index);
        const std::string &line =
            request.edit ? request.line : state.pool.lines[request.pool];
        std::string error;
        std::optional<std::string> reply;
        {
          ScopedSpan span("server.request", index);
          const auto start = Clock::now();
          reply = connections[worker]->callRaw(line, &error);
          latency = secondsSince(start);
        }
        const auto parsed =
            reply ? json::Value::parse(*reply) : std::optional<json::Value>();
        const json::Value *body = parsed ? parsed->find("result") : nullptr;
        if (body == nullptr || !parsed->boolOr("ok") ||
            !body->boolOr("success")) {
          std::fprintf(stderr, "perfbench: serve_mixed request %llu: %s\n",
                       static_cast<unsigned long long>(index),
                       reply ? reply->substr(0, 200).c_str() : error.c_str());
          return false;
        }
        Served record;
        record.index = index;
        record.pool = request.pool;
        record.edit = request.edit;
        record.hit = body->stringOr("cache") == "hit";
        record.outputFingerprint =
            ompdart::hash::fingerprint(body->stringOr("output"));
        record.seconds = latency;
        perClient[worker].push_back(record);
        return true;
      },
      result);
  for (const auto &records : perClient)
    served->insert(served->end(), records.begin(), records.end());
  return measured;
}

/// Served output must be byte-equal to a one-shot Session's. Returns the
/// number of mismatching replies.
std::uint64_t verifyServed(const ServeState &state, const RunOptions &options,
                           char phase, const std::vector<Served> &served) {
  std::vector<std::string> poolOutputs(state.pool.tus.size());
  parallelFor(poolOutputs.size(), options.threads, [&](std::size_t i) {
    poolOutputs[i] = ompdart::hash::fingerprint(
        planTu(state.pool.tus[i], coldConfig(), i).output);
  });
  std::vector<char> bad(served.size(), 0);
  parallelFor(served.size(), options.threads, [&](std::size_t i) {
    const Served &record = served[i];
    const std::string expected =
        record.edit
            ? ompdart::hash::fingerprint(
                  planTu(requestFor(state.pool, options.seed, phase,
                                    record.index)
                             .tu,
                         coldConfig(), record.index)
                      .output)
            : poolOutputs[record.pool];
    bad[i] = record.outputFingerprint == expected ? 0 : 1;
  });
  std::uint64_t mismatches = 0;
  for (const char b : bad)
    mismatches += static_cast<std::uint64_t>(b);
  return mismatches;
}

/// Per-layer replays of the first kReplayRequests requests of the traced
/// stream: PlanService::handleLine without a socket, LineFramer on the
/// request bytes, PlanCache lookups/stores on the key stream, and the
/// pipeline stage by stage on the misses.
void replay(const ServeState &state, const RunOptions &options, char phase,
            double roundTripMedianUs, WorkloadResult *result) {
  std::vector<Request> requests;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    requests.push_back(requestFor(state.pool, options.seed, phase, i));
    lines.push_back(requests.back().edit
                        ? requests.back().line
                        : state.pool.lines[requests.back().pool]);
  }
  auto &layers = result->layers;

  { // server.handle: a second service over the same read-only cache,
    // warmed with the pool as the server was.
    server::PlanService service(serviceOptions(
        state.cacheDir->path(), 1, ompdart::cache::CacheMode::Read));
    for (const std::string &line : state.pool.lines)
      (void)service.handleLine(line);
    Latencies handle;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ScopedSpan span("server.handle", i);
      const auto start = Clock::now();
      const json::Value reply = service.handleLine(lines[i]);
      handle.add(secondsSince(start));
      if (!reply.boolOr("ok"))
        result->fail("serve_mixed replay handleLine");
    }
    result->attempted += lines.size();
    const double handleUs = handle.percentileMs(50.0) * 1000.0;
    layers["server.handle_us"] = handleUs;
    layers["server.transport_us"] = roundTripMedianUs - handleUs;
  }

  layers["server.frame_mb_per_s"] = frameMegabytesPerSecond(lines);

  { // cache: lookups and stores on the request key stream.
    std::vector<SourceTu> sources;
    std::vector<std::size_t> sourceOf(requests.size());
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const SourceTu &tu = requests[i].edit
                               ? requests[i].tu
                               : state.pool.tus[requests[i].pool];
      const auto [it, fresh] = seen.emplace(tu.source, sources.size());
      if (fresh)
        sources.push_back(tu);
      sourceOf[i] = it->second;
    }
    std::vector<std::size_t> warm(state.pool.tus.size());
    for (std::size_t p = 0; p < warm.size(); ++p) {
      const auto [it, fresh] =
          seen.emplace(state.pool.tus[p].source, sources.size());
      if (fresh)
        sources.push_back(state.pool.tus[p]);
      warm[p] = it->second;
    }
    ScratchDir dir(options.workDir + "/replay-cache");
    replayCache(sources, warm, sourceOf, dir.file("cache"), options.threads,
                result);
  }

  // The pipeline, stage by stage, on the misses of the replayed stream.
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (requests[i].edit)
      (void)planTu(requests[i].tu, coldConfig(), i);
  addStageLayers(Tracer::totals(), requests.size(), result);
}

} // namespace

WorkloadResult runServeMixed(const RunOptions &options) {
  WorkloadResult result;
  result.tailPercentile = 99.0;

  ServeState state;
  std::vector<double> setups;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    // Tearing the previous repetition down (stop the server, then drop the
    // cache) is not set-up.
    state.fixture.reset();
    state.cacheDir.reset();
    const auto start = Clock::now();
    std::string error;
    if (!setUp(options, &state, &error)) {
      ++result.attempted;
      result.fail("serve_mixed set-up: " + error);
      return result;
    }
    setups.push_back(secondsSince(start));
  }
  result.setupSeconds = median(setups);

  std::vector<Served> served;
  const Phase plain = servePhase(state, options, 'p', &served, &result);
  setEndToEnd(plain, &result);
  std::uint64_t hits = 0, edits = 0;
  for (const Served &record : served) {
    hits += record.hit ? 1 : 0;
    edits += record.edit ? 1 : 0;
  }
  std::uint64_t mismatches = verifyServed(state, options, 'p', served);

  if (options.trace) {
    const std::string &socket = state.fixture->socketPath();
    const json::Value before = serverCacheStats(socket);
    Tracer::reset();
    Tracer::setEnabled(true);
    const auto traceStart = Clock::now();
    std::vector<Served> tracedServed;
    const Phase traced =
        servePhase(state, options, 't', &tracedServed, &result);
    addCacheRatios(before, serverCacheStats(socket), &result);
    replay(state, options, 't', traced.latencies.percentileMs(50.0) * 1000.0,
           &result);
    Tracer::setEnabled(false);
    addLayerShares(Tracer::totals(), secondsSince(traceStart), &result);
    addTraceOverhead(plain, traced, &result);
    mismatches += verifyServed(state, options, 't', tracedServed);
  }
  result.failed += mismatches;
  state.fixture.reset();

  json::Value &detail = result.detail;
  detail.set("pool_tus", static_cast<std::uint64_t>(state.pool.tus.size()));
  detail.set("clients", kClients);
  detail.set("server_workers", kServerWorkers);
  detail.set("req_per_s", result.opsPerSecond);
  detail.set("req_p50_ms", result.p50Ms);
  detail.set("req_tail_ms", result.tailMs);
  detail.set("edited_requests", edits);
  detail.set("cache_hit_replies", hits);
  detail.set("output_mismatches", mismatches);
  Latencies hitLatencies, missLatencies;
  for (const Served &record : served)
    (record.edit ? missLatencies : hitLatencies).add(record.seconds);
  detail.set("repeat_p50_ms", hitLatencies.percentileMs(50.0));
  detail.set("edit_p50_ms", missLatencies.percentileMs(50.0));
  detail.set("edit_p90_ms", missLatencies.percentileMs(90.0));
  return result;
}

} // namespace perfbench
