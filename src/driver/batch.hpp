// Thread-safe batch driver: runs N independent pipeline Sessions in
// parallel over a worker pool. Sessions share no mutable state (each owns
// its SourceManager, ASTContext and DiagnosticEngine), so the only
// coordination is the work queue cursor. Results come back in input order
// with per-stage timing and aggregate statistics; per-item diagnostics are
// sorted by source location, so batch output is deterministic regardless of
// scheduling.
#pragma once

#include "cache/plan_cache.hpp"
#include "driver/pipeline.hpp"
#include "driver/report.hpp"
#include "gen/generator.hpp"
#include "support/json.hpp"
#include "verify/oracle.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ompdart {

/// One translation unit to push through the pipeline.
struct BatchJob {
  std::string name;     ///< label used in results/statistics
  std::string fileName; ///< diagnostics file name (defaults to `name`)
  std::string source;
};

/// Outcome for one job, in input order.
struct BatchItem {
  std::string name;
  bool success = false;
  Report report;
  /// Transformed source (empty when the rewrite stage was stopped before).
  std::string output;
  /// Plan-cache probe outcome for this job's session.
  Session::PlanCacheStatus cacheStatus = Session::PlanCacheStatus::Disabled;

  [[nodiscard]] bool planCacheHit() const {
    return cacheStatus == Session::PlanCacheStatus::Hit;
  }
};

/// Aggregate statistics over one batch run.
struct BatchStats {
  unsigned jobs = 0;
  unsigned succeeded = 0;
  unsigned failed = 0;
  unsigned threads = 0;
  /// End-to-end wall time of the batch.
  double wallSeconds = 0.0;
  /// Sum of per-session pipeline seconds (what a sequential run would cost).
  double cpuSeconds = 0.0;
  /// Per-stage seconds summed across all sessions, indexed by Stage.
  std::array<double, kStageCount> stageSeconds{};
  /// Per-stage execution counts summed across all sessions. On a fully warm
  /// cache run the parse/cfg/interproc/plan counters are zero — the
  /// observable proof those stages were skipped.
  std::array<unsigned, kStageCount> stageRuns{};
  /// Plan-cache outcomes across the batch (jobs with a cache configured).
  unsigned planCacheHits = 0;
  unsigned planCacheMisses = 0;
  /// Cache-side deltas for this run (shared-instance counters).
  std::uint64_t planCacheStores = 0;
  std::uint64_t planCacheInvalidations = 0;

  /// Parallel efficiency proxy: sequential-cost / wall-time.
  [[nodiscard]] double speedup() const {
    return wallSeconds > 0.0 ? cpuSeconds / wallSeconds : 0.0;
  }
  /// True when every job's plan came from the cache.
  [[nodiscard]] bool fullyWarm() const {
    return jobs > 0 && planCacheHits == jobs;
  }
  [[nodiscard]] json::Value toJson() const;
};

struct BatchResult {
  std::vector<BatchItem> items;
  BatchStats stats;
  /// Project mode only: TU names in the (reverse topological) order the
  /// driver scheduled them; empty for independent-job batches.
  std::vector<std::string> projectSchedule;

  [[nodiscard]] const BatchItem *find(const std::string &name) const {
    for (const BatchItem &item : items)
      if (item.name == name)
        return &item;
    return nullptr;
  }
};

/// One fuzzed program's outcome (input order = seed order).
struct FuzzItem {
  std::string name;
  std::uint64_t seed = 0;
  /// False when the time box expired before this program ran.
  bool ran = false;
  bool provableTrips = false;
  bool multiTu = false;
  verify::OracleVerdict verdict;

  [[nodiscard]] bool passed() const { return ran && verdict.ok; }
};

/// A failing program, with its shrunken repro when shrinking was on.
struct FuzzFailure {
  std::string name;
  std::uint64_t seed = 0;
  std::string divergence;
  std::string source; ///< combined program text
  std::string shrunken;
  unsigned originalStatements = 0;
  unsigned shrunkenStatements = 0;
};

struct FuzzStats {
  unsigned programs = 0;
  unsigned ran = 0;
  unsigned passed = 0;
  unsigned failed = 0;
  unsigned skippedByTimeBox = 0;
  unsigned provable = 0; ///< programs where invariant (3) applied
  unsigned multiTu = 0;
  unsigned threads = 0;
  double wallSeconds = 0.0;
  /// Ledger sums over every program that ran (baseline vs planned run).
  std::uint64_t baselineBytes = 0;
  std::uint64_t planBytes = 0;
  unsigned planCacheHits = 0;
  unsigned planCacheMisses = 0;

  [[nodiscard]] json::Value toJson() const;
};

struct FuzzResult {
  std::vector<FuzzItem> items;
  std::vector<FuzzFailure> failures;
  FuzzStats stats;

  [[nodiscard]] bool allPassed() const {
    return stats.ran > 0 && stats.failed == 0;
  }
};

class BatchDriver {
public:
  struct Options {
    /// Worker threads; 0 = min(hardware_concurrency, job count).
    unsigned threads = 0;
    /// Pipeline configuration applied to every session. When it names a
    /// cache (cacheDir + cacheMode, or an explicit planCache), the driver
    /// shares ONE PlanCache instance across all sessions so lookups,
    /// stores and stats aggregate coherently under concurrency.
    PipelineConfig config;
    /// Warm-run mode: execute the whole batch this many extra times first
    /// (results discarded) so the measured run hits a populated cache.
    /// Requires a writable cache to have any effect.
    unsigned warmupPasses = 0;
  };

  BatchDriver() = default;
  explicit BatchDriver(Options options) : options_(std::move(options)) {}

  /// Fuzz-mode knobs (BatchDriver::runFuzz).
  struct FuzzOptions {
    std::uint64_t baseSeed = 1;
    unsigned count = 100;
    gen::GenOptions gen;
    /// Interpreter limits + predicted-bytes switch for the oracle. The
    /// oracle's pipeline config comes from Options::config (ablation
    /// switches, shared plan cache).
    interp::InterpOptions interp;
    bool checkPredicted = true;
    /// Also verify the SourceRewriteBackend's transformed text against the
    /// baseline (oracle rewrite leg); pays a second parse + run per
    /// program.
    bool checkRewrite = false;
    /// Minimize failing programs with the statement-deletion shrinker.
    bool shrinkFailures = false;
    /// Stop starting new programs once this much wall time elapsed
    /// (0 = unbounded). Already-started programs finish; the rest are
    /// reported as skipped.
    double timeBoxSeconds = 0.0;
  };

  /// Runs every job through its own Session, in parallel.
  [[nodiscard]] BatchResult run(const std::vector<BatchJob> &jobs) const;

  /// Fuzz mode: generates `count` seeded programs, runs the differential
  /// oracle on each over the worker pool (sessions share the driver's plan
  /// cache exactly like `run`), and optionally shrinks failures to minimal
  /// repros. Deterministic: the same options produce the same corpus and
  /// the same verdicts.
  [[nodiscard]] FuzzResult runFuzz(const FuzzOptions &fuzz) const;

  /// Project mode: treats the jobs as the translation units of ONE program
  /// and drives them through a ProjectSession — whole-program summary link
  /// first, then per-TU pipelines with cross-TU imports, scheduled in
  /// reverse topological call-graph order over the worker pool. Results
  /// come back in input order; `projectSchedule` records the order TUs
  /// actually planned in.
  [[nodiscard]] BatchResult
  runProject(const std::vector<BatchJob> &jobs) const;

private:
  [[nodiscard]] BatchResult runOnce(const std::vector<BatchJob> &jobs,
                                    cache::PlanCache *sharedCache) const;

  Options options_;
};

/// Generated programs in the cold-path identity corpus (seeds 1..N).
constexpr unsigned kColdCorpusSeeds = 500;

/// The cold-path identity corpus: the nine suite benchmarks, then the
/// generated programs of seeds 1..kColdCorpusSeeds, one job each.
[[nodiscard]] std::vector<BatchJob> coldJobs();

/// Digest over everything a consumer can observe from a batch: plan IR
/// fingerprints, diagnostics, metrics and the rewritten sources. Timings
/// and cache counters are excluded (they vary run to run). Two builds with
/// the same digest over `coldJobs()` with the cache off produced
/// byte-identical plans, reports and rewrites.
[[nodiscard]] std::string identityDigest(const BatchResult &result);

} // namespace ompdart
