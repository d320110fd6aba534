#include "bench.hpp"

#include "frontend/lexer.hpp"
#include "gen/generator.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "support/hash.hpp"
#include "support/version.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;

double Latencies::percentileMs(double p) const {
  if (samples.empty())
    return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return sorted[index] * 1000.0;
}

double median(std::vector<double> values) {
  if (values.empty())
    return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void setEndToEnd(const Phase &plain, WorkloadResult *result) {
  constexpr unsigned kMaxWindows = 5;
  const double perWindow = 10.0 / (1.0 - result->tailPercentile / 100.0);
  const std::size_t n = plain.latencies.size();
  const unsigned windows = static_cast<unsigned>(std::clamp<double>(
      std::floor(static_cast<double>(n) / perWindow), 1.0, kMaxWindows));
  double span = 0.0;
  for (const double end : plain.ends)
    span = std::max(span, end);
  std::vector<Phase> cut(windows);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned w = std::min<unsigned>(
        windows - 1,
        static_cast<unsigned>(plain.ends[i] / span * windows));
    cut[w].latencies.add(plain.latencies.samples[i]);
    cut[w].busySeconds += plain.latencies.samples[i];
  }
  std::vector<double> rates, p50s, tails;
  for (Phase &window : cut) {
    if (window.latencies.size() == 0)
      continue;
    window.ops = window.latencies.size();
    window.workers = plain.workers;
    rates.push_back(window.opsPerSecond());
    p50s.push_back(window.latencies.percentileMs(50.0));
    tails.push_back(window.latencies.percentileMs(result->tailPercentile));
  }
  result->opsPerSecond = median(rates);
  result->p50Ms = median(p50s);
  result->tailMs = median(tails);
  result->samples = n;
  result->windows = windows;
  result->peakRssMb = peakRssMb();
}

void WorkloadResult::fail(const std::string &what) {
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

ScratchDir::ScratchDir(const std::string &path) : path_(path) {
  std::error_code ec;
  fs::remove_all(path_, ec);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

ompdart::server::ServiceOptions serviceOptions(const std::string &cacheDir,
                                               unsigned threads,
                                               ompdart::cache::CacheMode mode) {
  ompdart::server::ServiceOptions options;
  options.config.cacheDir = cacheDir;
  options.config.cacheMode = mode;
  options.threads = threads;
  return options;
}

ServerFixture::ServerFixture(const std::string &dir, unsigned workers,
                             ompdart::server::ServiceOptions service)
    : dir_(dir), socketPath_(dir_.file("plan.sock")) {
  ompdart::server::ServerOptions options;
  options.socketPath = socketPath_;
  options.workers = workers;
  options.service = std::move(service);
  server_ = std::make_unique<ompdart::server::PlanServer>(std::move(options));
  started_ = server_->start(&error_);
}

ServerFixture::~ServerFixture() {
  if (started_) {
    server_->stop();
    server_->wait();
  }
  // Destroying the server destroys its PlanCache, which flushes the index
  // shards; only then may the scratch directory go.
  server_.reset();
}

json::Value serverCacheStats(const std::string &socketPath) {
  ompdart::server::PlanClient client;
  std::string error;
  json::Value request = json::Value::object();
  request.set("method", "stats");
  if (client.connect(socketPath, &error))
    if (const auto reply = client.call(request, &error))
      if (const json::Value *body = reply->find("result"))
        if (const json::Value *cache = body->find("cache"))
          return *cache;
  return json::Value::object();
}

void addCacheRatios(const json::Value &before, const json::Value &after,
                    WorkloadResult *result) {
  const auto delta = [&](const char *key) {
    return static_cast<double>(after.uintOr(key) - before.uintOr(key));
  };
  if (delta("lookups") > 0.0)
    result->layers["cache.hit_ratio"] = delta("hits") / delta("lookups");
  if (delta("hits") > 0.0)
    result->layers["cache.memo_hit_ratio"] = delta("memoHits") / delta("hits");
}

void resetPeakRss() {
  // Return the previous workload's freed heap to the system first, so the
  // reset high-water mark starts from what this process still holds.
  (void)::malloc_trim(0);
  std::ofstream clearRefs("/proc/self/clear_refs");
  clearRefs << "5";
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &fn) {
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t)
    pool.emplace_back([&]() {
      for (std::size_t i = cursor.fetch_add(1); i < count;
           i = cursor.fetch_add(1))
        fn(i);
    });
  for (std::thread &thread : pool)
    thread.join();
}

Phase timedLoop(unsigned workers, double seconds,
                const std::function<bool(unsigned, std::uint64_t, double &)> &op,
                WorkloadResult *result, std::uint64_t quantum) {
  std::atomic<std::uint64_t> cursor{0}, failures{0};
  // First op index not to run; set once the deadline passed, rounded up to
  // a whole quantum.
  std::atomic<std::uint64_t> limit{~0ull};
  std::vector<Latencies> perWorker(workers);
  std::vector<std::vector<double>> perWorkerEnds(workers);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w)
    pool.emplace_back([&, w]() {
      while (true) {
        const std::uint64_t index = cursor.fetch_add(1);
        if (Clock::now() >= deadline) {
          const std::uint64_t end = (index + quantum - 1) / quantum * quantum;
          std::uint64_t seen = limit.load();
          while (end < seen && !limit.compare_exchange_weak(seen, end)) {
          }
        }
        if (index >= limit.load())
          break;
        double latency = -1.0;
        const auto opStart = Clock::now();
        const bool ok = op(w, index, latency);
        perWorker[w].add(latency >= 0.0 ? latency : secondsSince(opStart));
        perWorkerEnds[w].push_back(secondsSince(start));
        if (!ok)
          failures.fetch_add(1);
      }
    });
  for (std::thread &thread : pool)
    thread.join();

  Phase phase;
  phase.workers = workers;
  for (unsigned w = 0; w < workers; ++w) {
    phase.latencies.append(perWorker[w]);
    phase.ends.insert(phase.ends.end(), perWorkerEnds[w].begin(),
                      perWorkerEnds[w].end());
  }
  phase.ops = phase.latencies.size();
  for (const double sample : phase.latencies.samples)
    phase.busySeconds += sample;
  result->attempted += phase.ops;
  result->failed += failures.load();
  return phase;
}

std::vector<std::uint64_t> drawCorpusSeeds(std::uint64_t seed,
                                           unsigned count) {
  std::vector<std::uint64_t> seeds(500);
  for (std::size_t i = 0; i < seeds.size(); ++i)
    seeds[i] = i + 1;
  ompdart::gen::SplitMix64 rng(seed);
  const std::size_t take = std::min<std::size_t>(count, seeds.size());
  for (std::size_t i = 0; i < take; ++i)
    std::swap(seeds[i], seeds[i + static_cast<std::size_t>(rng.pick(
                                     0, static_cast<int>(seeds.size() - i) -
                                            1))]);
  seeds.resize(take);
  return seeds;
}

ompdart::PipelineConfig coldConfig() {
  ompdart::PipelineConfig config;
  config.cacheMode = ompdart::cache::CacheMode::Off;
  config.includeOutputInReport = false;
  return config;
}

bool runSession(ompdart::Session &session, std::uint64_t request) {
  if (Tracer::enabled()) {
    { ScopedSpan span("frontend.parse", request); (void)session.parse(); }
    { ScopedSpan span("cfg.build", request); (void)session.cfg(); }
    {
      ScopedSpan span("analysis.interproc", request);
      (void)session.interproc();
    }
    { ScopedSpan span("mapping.plan", request); (void)session.ir(); }
    { ScopedSpan span("check.check", request); (void)session.check(); }
    { ScopedSpan span("rewrite.rewrite", request); (void)session.rewrite(); }
  }
  return session.run();
}

TuRun planTu(const SourceTu &tu, const ompdart::PipelineConfig &config,
             std::uint64_t request) {
  ScopedSpan sessionSpan("driver.session", request);
  ompdart::Session session(tu.fileName, tu.source, config);
  TuRun run;
  run.success = runSession(session, request);
  run.findings = session.check().findings.size();
  for (const auto &region : session.ir().regions) {
    ++run.regions;
    run.items += region.maps.size() + region.updates.size() +
                 region.firstprivates.size();
  }
  run.output = session.rewrite();
  return run;
}

double lexTokensPerSecond(const std::vector<SourceTu> &tus) {
  std::uint64_t tokens = 0;
  const auto start = Clock::now();
  for (const SourceTu &tu : tus) {
    ScopedSpan span("frontend.lex");
    ompdart::SourceManager sources(tu.fileName, tu.source);
    ompdart::DiagnosticEngine diags;
    ompdart::Lexer lexer(sources, diags);
    tokens += lexer.lexAll().size();
  }
  return static_cast<double>(tokens) / secondsSince(start);
}

double frameMegabytesPerSecond(const std::vector<std::string> &lines) {
  std::string bytes;
  for (const std::string &line : lines) {
    bytes += line;
    bytes += '\n';
  }
  constexpr std::size_t kChunk = 64 * 1024;
  double seconds = 0.0;
  std::uint64_t moved = 0, framed = 0;
  while (seconds < 0.2) {
    ScopedSpan span("server.frame");
    const auto start = Clock::now();
    ompdart::server::LineFramer framer;
    for (std::size_t offset = 0; offset < bytes.size(); offset += kChunk) {
      (void)framer.feed(bytes.data() + offset,
                        std::min(kChunk, bytes.size() - offset));
      while (const auto line = framer.next())
        framed += line->size();
    }
    seconds += secondsSince(start);
    moved += bytes.size();
  }
  return framed > 0 ? static_cast<double>(moved) / seconds / 1e6 : 0.0;
}

void replayCache(const std::vector<SourceTu> &sources,
                 const std::vector<std::size_t> &warm,
                 const std::vector<std::size_t> &stream,
                 const std::string &cacheDir, unsigned threads,
                 WorkloadResult *result) {
  namespace cache = ompdart::cache;
  const ompdart::PipelineConfig config = coldConfig();
  const std::string configHash = ompdart::planFingerprint(config);
  std::vector<cache::CacheKey> keys(sources.size());
  std::vector<cache::CacheEntry> entries(sources.size());
  parallelFor(sources.size(), threads, [&](std::size_t i) {
    keys[i].sourceHash = ompdart::hash::fingerprint(sources[i].source);
    keys[i].configHash = configHash;
    keys[i].toolVersion = ompdart::kToolVersion;
    ompdart::Session session(sources[i].fileName, sources[i].source, config);
    (void)session.run();
    entries[i].fileName = sources[i].fileName;
    entries[i].ir = session.ir();
    entries[i].metrics = session.metrics();
    entries[i].irFingerprint = session.ir().fingerprint();
  });

  cache::PlanCache planCache(cacheDir, cache::CacheMode::ReadWrite);
  std::vector<char> stored(sources.size(), 0);
  for (const std::size_t i : warm) {
    planCache.store(keys[i], entries[i]);
    stored[i] = 1;
  }
  Latencies hits, misses, stores;
  for (std::size_t r = 0; r < stream.size(); ++r) {
    const std::size_t i = stream[r];
    const bool expectHit = stored[i] != 0;
    {
      ScopedSpan span(expectHit ? "cache.lookup_hit" : "cache.lookup_miss",
                      r);
      const auto start = Clock::now();
      const bool hit =
          planCache.lookup(keys[i], sources[i].fileName).has_value();
      (expectHit ? hits : misses).add(secondsSince(start));
      ++result->attempted;
      if (hit != expectHit)
        result->fail("cache replay of " + sources[i].fileName);
    }
    if (!expectHit) {
      ScopedSpan span("cache.store", r);
      const auto start = Clock::now();
      planCache.store(keys[i], entries[i]);
      stores.add(secondsSince(start));
      stored[i] = 1;
    }
  }
  result->layers["cache.lookup_hit_us"] = hits.percentileMs(50.0) * 1000.0;
  result->layers["cache.lookup_miss_us"] = misses.percentileMs(50.0) * 1000.0;
  result->layers["cache.store_us"] = stores.percentileMs(50.0) * 1000.0;
}

void addStageLayers(const std::map<std::string, SpanTotals> &totals,
                    std::uint64_t ops, WorkloadResult *result) {
  static const std::pair<const char *, const char *> kStages[] = {
      {"frontend.parse", "frontend.parse_s"},
      {"cfg.build", "cfg.build_s"},
      {"analysis.interproc", "analysis.interproc_s"},
      {"mapping.plan", "mapping.plan_s"},
      {"check.check", "check.check_s"},
      {"rewrite.rewrite", "rewrite.rewrite_s"},
      {"driver.session", "driver.session_s"},
  };
  if (ops == 0)
    return;
  for (const auto &[span, metric] : kStages)
    result->layers[metric] =
        selfSeconds(totals, span) / static_cast<double>(ops);
}

void addTraceOverhead(const Phase &plain, const Phase &traced,
                      WorkloadResult *result) {
  if (plain.opsPerSecond() > 0.0)
    result->layers["trace.overhead"] =
        1.0 - traced.opsPerSecond() / plain.opsPerSecond();
  result->layers["trace.spans"] = static_cast<double>(Tracer::spanCount());
}

} // namespace perfbench
