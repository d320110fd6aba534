// Shared pieces of the repository benchmark: run options, the result every
// workload returns, latency statistics, the in-memory span tracer, and the
// scratch directory / plan-server fixtures the socket workloads share.
//
// Every workload follows the same shape:
//   1. set-up, repeated kSetupReps times (the median is `setup_s`); the last
//      repetition's state is kept. Set-up includes an untimed warm-up pass,
//      so the process-global symbol interner and the cache memos are hot
//      before timing starts,
//   2. a timed phase of `--seconds` with tracing off (the end-to-end run),
//   3. with `--trace 1`: the same timed phase again with spans on, then
//      replays of single public calls on the workload's own inputs (the
//      per-layer run),
//   4. correctness checks against references that do not come from the
//      code under measurement.
#pragma once

#include "driver/pipeline.hpp"
#include "server/server.hpp"
#include "support/json.hpp"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace json = ompdart::json;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-up repetitions per run; `setup_s` is their median.
constexpr unsigned kSetupReps = 9;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for caches and sockets (relative to the checkout
  /// root, which is the process working directory).
  std::string workDir;
  /// Threads the workload may keep busy (nproc, capped at 4).
  unsigned threads = 4;
};

/// Latency samples in seconds.
struct Latencies {
  std::vector<double> samples;

  void add(double seconds) { samples.push_back(seconds); }
  void append(const Latencies &other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
  /// Nearest-rank percentile in milliseconds (`p` in [0, 100]).
  [[nodiscard]] double percentileMs(double p) const;
  [[nodiscard]] std::size_t size() const { return samples.size(); }
};

/// Median of a non-empty vector (by value: it sorts a copy).
[[nodiscard]] double median(std::vector<double> values);

struct Phase;
struct WorkloadResult;

/// Sets the end-to-end figures of `result` from the untraced phase `plain`
/// and records the peak RSS (call right after the phase). The phase is cut
/// into up to five windows of equal wall time, each holding at least ten
/// samples beyond the tail percentile; ops per second, p50 and the tail are
/// the medians over the windows, so a burst of load from outside the
/// benchmark that spans less than half the run does not move them.
void setEndToEnd(const Phase &plain, WorkloadResult *result);

/// What one workload measured: the end-to-end figures of the untraced timed
/// phase, `layers` the per-layer metrics of a traced run (empty without
/// tracing), `detail` the workload's own named figures (tu_per_s, geomeans,
/// ...), printed before the result.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setupSeconds = 0.0;
  /// Percentile reported as `tail_ms` (fixed per workload so that runs
  /// compare; it must leave at least ten samples beyond it).
  double tailPercentile = 99.0;
  /// End-to-end figures of the untraced timed phase (see `setEndToEnd`).
  double peakRssMb = 0.0;
  double opsPerSecond = 0.0;
  double p50Ms = 0.0;
  double tailMs = 0.0;
  std::size_t samples = 0;
  unsigned windows = 0;
  std::map<std::string, double> layers;
  json::Value detail = json::Value::object();

  void fail(const std::string &what);
};

/// Outcome of one timed phase: ops completed and each op's latency.
struct Phase {
  std::uint64_t ops = 0;
  unsigned workers = 1;
  double busySeconds = 0.0; ///< sum of op latencies over all workers
  Latencies latencies;
  /// When each op ended, seconds into the phase (parallel to `latencies`).
  std::vector<double> ends;

  /// Ops per second with every worker busy: ops / (busy seconds / workers).
  /// Unlike ops / wall, this does not count the end of the phase, when
  /// workers finishing their last op leave the others idle.
  [[nodiscard]] double opsPerSecond() const {
    return busySeconds > 0.0
               ? static_cast<double>(ops) * workers / busySeconds
               : 0.0;
  }
};

// --- tracing ---------------------------------------------------------------

/// Aggregate of every span with one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double totalSeconds = 0.0;
  double selfSeconds = 0.0;
};

/// Process-wide span recorder. Spans are kept in per-thread buffers in
/// memory; `totals` and `write` merge them when the run ends. Names must outlive the
/// tracer (string literals or strings of static storage).
class Tracer {
public:
  static void setEnabled(bool enabled);
  [[nodiscard]] static bool enabled();
  /// Drops every recorded span.
  static void reset();
  /// Totals per span name over all threads.
  [[nodiscard]] static std::map<std::string, SpanTotals> totals();
  [[nodiscard]] static std::uint64_t spanCount();
  /// Writes the totals plus up to `maxSpans` raw spans as JSON.
  static bool write(const std::string &path, std::size_t maxSpans);
};

/// RAII span: records [start, end), its parent (the innermost open span on
/// this thread) and the request id. A no-op while tracing is disabled.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  std::int64_t index_ = -1;
};

/// Self busy-seconds of the spans named `name`, or 0.
[[nodiscard]] double selfSeconds(const std::map<std::string, SpanTotals> &t,
                                 const std::string &name);

/// Adds `<layer>.cpu_share` (self busy-seconds of the layer's spans per
/// wall second of the phase) for every layer.
void addLayerShares(const std::map<std::string, SpanTotals> &totals,
                    double wallSeconds, WorkloadResult *result);

/// Adds the pipeline-stage busy seconds per op (`frontend.parse_s`, ...,
/// `driver.session_s`) from the spans `planTu` records.
void addStageLayers(const std::map<std::string, SpanTotals> &totals,
                    std::uint64_t ops, WorkloadResult *result);

/// Adds `trace.overhead` (throughput lost with spans on) and `trace.spans`.
void addTraceOverhead(const Phase &plain, const Phase &traced,
                      WorkloadResult *result);

// --- pipeline calls shared by the workloads --------------------------------

struct SourceTu {
  std::string fileName;
  std::string source;
};

/// What one Session produced.
struct TuRun {
  bool success = false;
  std::size_t findings = 0;
  std::size_t regions = 0;
  std::size_t items = 0; ///< maps + updates + firstprivates
  std::string output;
};

/// `count` distinct generator seeds drawn (seeded by `seed`) from 1..500,
/// the corpus the repository's fuzz gate keeps oracle-clean. Programs from
/// other seeds can trip planner bugs (the oracle rejects e.g. seed
/// 3000303), which would make the workload measure failures.
[[nodiscard]] std::vector<std::uint64_t> drawCorpusSeeds(std::uint64_t seed,
                                                         unsigned count);

/// The one-shot configuration: plan cache off, no output in the report.
[[nodiscard]] ompdart::PipelineConfig coldConfig();

/// `session.run()`. With tracing on, each stage is first forced on its own
/// inside a span ("frontend.parse", "cfg.build", "analysis.interproc",
/// "mapping.plan", "check.check", "rewrite.rewrite"); `run()` then finds
/// every stage done.
bool runSession(ompdart::Session &session, std::uint64_t request);

/// One TU through a Session (`runSession`) inside a "driver.session" span.
[[nodiscard]] TuRun planTu(const SourceTu &tu,
                           const ompdart::PipelineConfig &config,
                           std::uint64_t request);

/// Lexer::lexAll over every source, in "frontend.lex" spans; tokens per
/// second.
[[nodiscard]] double lexTokensPerSecond(const std::vector<SourceTu> &tus);

/// LineFramer::feed/next over the request lines (joined by '\n', fed in
/// 64 KiB chunks, repeated for at least 0.2 s), in "server.frame" spans;
/// MB per second.
[[nodiscard]] double frameMegabytesPerSecond(
    const std::vector<std::string> &lines);

/// Replays a key stream on a fresh PlanCache in `cacheDir`: the sources
/// `warm` indexes are stored first (as the workload's warm-up did), then
/// each `stream` entry looks its source up and, on a miss, stores it.
/// Records cache.lookup_hit_us, cache.lookup_miss_us and cache.store_us
/// (medians) from "cache.*" spans.
void replayCache(const std::vector<SourceTu> &sources,
                 const std::vector<std::size_t> &warm,
                 const std::vector<std::size_t> &stream,
                 const std::string &cacheDir, unsigned threads,
                 WorkloadResult *result);

// --- fixtures --------------------------------------------------------------

/// A scratch directory under the run's work dir, removed on destruction.
/// Declare it before any PlanServer / PlanCache that writes into it, so
/// those are destroyed (and flush) first.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &path);
  ~ScratchDir();
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  [[nodiscard]] const std::string &path() const { return path_; }
  [[nodiscard]] std::string file(const std::string &name) const {
    return path_ + "/" + name;
  }

private:
  std::string path_;
};

/// An in-process plan server whose socket lives in its own scratch
/// directory `dir`. A plan cache inside `dir` is removed with it; members
/// are declared so the server stops and the cache flushes first.
class ServerFixture {
public:
  ServerFixture(const std::string &dir, unsigned workers,
                ompdart::server::ServiceOptions service);
  ~ServerFixture();
  ServerFixture(const ServerFixture &) = delete;
  ServerFixture &operator=(const ServerFixture &) = delete;

  [[nodiscard]] bool ok() const { return started_; }
  [[nodiscard]] const std::string &error() const { return error_; }
  [[nodiscard]] const std::string &socketPath() const { return socketPath_; }

private:
  ScratchDir dir_;
  std::string socketPath_;
  std::string error_;
  bool started_ = false;
  std::unique_ptr<ompdart::server::PlanServer> server_;
};

/// Plan-cache counters from the "stats" reply of the server at
/// `socketPath` (an empty object when the request fails).
[[nodiscard]] json::Value serverCacheStats(const std::string &socketPath);

/// Adds cache.hit_ratio and cache.memo_hit_ratio over the traffic between
/// two `serverCacheStats` snapshots.
void addCacheRatios(const json::Value &before, const json::Value &after,
                    WorkloadResult *result);

/// The plan-service configuration the socket workloads and their replays
/// use: a plan cache under `cacheDir`, `threads` for project requests.
[[nodiscard]] ompdart::server::ServiceOptions
serviceOptions(const std::string &cacheDir, unsigned threads,
               ompdart::cache::CacheMode mode =
                   ompdart::cache::CacheMode::ReadWrite);

/// Resets this process's peak resident set (VmHWM) to its current one, so
/// that a workload's `peak_rss_mb` is its own when one process runs several.
void resetPeakRss();

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peakRssMb();

/// Calls `fn(i)` for every i in [0, count) on `threads` threads.
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

/// Runs `op(worker, index, latency)` on `workers` threads until `seconds`
/// elapsed; each call is one op. `index` counts ops across all workers. The
/// op's latency is the whole call unless the op sets `latency` (seconds)
/// itself. An op returns false when it failed. The phase ends on a
/// multiple of `quantum` ops, so a workload whose pass has ops of very
/// different cost samples each of them equally often.
[[nodiscard]] Phase
timedLoop(unsigned workers, double seconds,
          const std::function<bool(unsigned, std::uint64_t, double &)> &op,
          WorkloadResult *result, std::uint64_t quantum = 1);

// --- workloads -------------------------------------------------------------

WorkloadResult runColdBatch(const RunOptions &options);
WorkloadResult runServeMixed(const RunOptions &options);
WorkloadResult runProjectEdit(const RunOptions &options);

/// The paper's nine benchmarks through exp::runBenchmark on `threads`
/// threads: counts each as an op, fails it unless its three outputs match
/// and every ledger equals Figures 3/4, and puts suite_s, the bytes/calls
/// reduction geomeans and per-benchmark ledgers in the detail.
void checkPaperSuite(unsigned threads, WorkloadResult *result);

/// Traced replay of the nine benchmarks' variants, one at a time: adds the
/// interp.*, sim.* and exp.*_s per-layer metrics.
void replayPaperSuite(WorkloadResult *result);

} // namespace perfbench
