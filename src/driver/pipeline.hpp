// Staged pipeline API for OMPDart (paper Fig. 1).
//
// A `Session` owns one translation unit and exposes each pipeline stage as
// an explicit, lazily-computed, cached artifact:
//
//   parse()     -> const ASTContext &          front end (+ §IV-A input check)
//   cfg()       -> per-function AST-CFGs       Fig. 2 hybrid representation
//   interproc() -> InterproceduralResult       §IV-C fixed point
//   ir()        -> ir::MappingIr               §IV-D/§IV-E decision engine
//   rewrite()   -> transformed source          §IV-F
//   metrics()   -> ComplexityMetrics           Table IV counters
//   report()    -> Report                      aggregate, JSON-serializable
//
// Stages compute their dependencies on demand; repeated accesses return the
// cached artifact (`stageRuns` proves it). `run()` executes stages in order
// up to `PipelineConfig::stopAfter`, which is how the CLI's `--stop-after`
// and ablation harnesses skip the stages they do not need. Each Session is
// confined to one thread; independent Sessions share no mutable state, which
// is what BatchDriver exploits to run them in parallel.
#pragma once

#include "analysis/interproc.hpp"
#include "analysis/summary.hpp"
#include "cache/plan_cache.hpp"
#include "cfg/cfg.hpp"
#include "driver/report.hpp"
#include "frontend/ast.hpp"
#include "mapping/ir.hpp"
#include "mapping/planner.hpp"
#include "support/diagnostics.hpp"
#include "support/source_manager.hpp"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ompdart {

/// Unified configuration for the whole pipeline.
struct PipelineConfig {
  PlannerOptions planner;
  /// Reject inputs that already contain target data / target update
  /// directives or kernel `map` clauses (paper §IV-A: the expected input
  /// has none).
  bool rejectExistingDataDirectives = true;
  /// Cap on interprocedural fixed-point passes (forced to 1 when
  /// `planner.interprocedural` is off).
  unsigned interprocMaxPasses = 16;
  /// `run()`/`report()` execute stages only up to this one; nullopt runs
  /// the full pipeline.
  std::optional<Stage> stopAfter;
  /// Surface plan-safety findings (the check stage) as warning diagnostics.
  /// The stage itself runs on every fresh plan regardless and records its
  /// findings in the report; this flag only controls diagnostic emission —
  /// and forces the stage after a plan-cache hit, where it is otherwise
  /// skipped (checking needs the front end the hit avoided). Excluded from
  /// the plan fingerprint: findings never change the plan.
  bool check = false;
  /// Promote plan-safety findings to errors; `run()` then stops before the
  /// rewrite stage. Implies the diagnostics of `check`.
  bool checkErrors = false;
  /// Embed the transformed source in `report().output` (and its JSON).
  bool includeOutputInReport = true;
  /// Plan-cache directory; with a non-Off mode the Session consults a
  /// content-addressed cache before planning and skips
  /// parse->cfg->interproc->plan entirely on a hit.
  std::string cacheDir;
  cache::CacheMode cacheMode = cache::CacheMode::Off;
  /// Shared cache instance (wins over cacheDir/cacheMode when set; the
  /// BatchDriver shares one across its sessions so stats aggregate).
  /// Non-owning; must outlive the Session.
  cache::PlanCache *planCache = nullptr;
  /// Cross-TU facts injected by the Project layer: closed summaries for
  /// bodiless callees (consumed by the interproc stage), whole-program
  /// execution counts and external call-site facts (consumed by the
  /// planner). Null for single-TU runs. The imports fingerprint joins the
  /// plan-cache key, so a TU's cached plan is invalidated exactly when its
  /// imports change. Non-owning; must outlive the Session.
  const summary::SealedImports *imports = nullptr;
};

/// Fingerprint of every PipelineConfig field that can change planning
/// output (ablation switches, interprocedural pass cap, input
/// validation). Cache keys embed this, so flipping any such switch is an
/// automatic cache invalidation; presentation-only fields (stopAfter,
/// includeOutputInReport, cache wiring) are excluded.
[[nodiscard]] std::string planFingerprint(const PipelineConfig &config);

/// One translation unit moving through the staged pipeline.
class Session {
public:
  /// Outcome of the plan-cache probe for this Session.
  enum class PlanCacheStatus {
    Disabled,    ///< no cache configured (or the probe has not run)
    Uncacheable, ///< cache configured, but this config cannot be keyed
                 ///< (planner-level imports)
    Miss,        ///< probed, planned fresh
    Hit,         ///< probed, plan re-hydrated from the cache
  };

  Session(std::string fileName, std::string source,
          PipelineConfig config = {});

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  // --- stage artifacts (lazy, cached) ---

  /// Front end. Always returns the context; check `parseSucceeded()` or
  /// `diagnostics()` for errors.
  const ASTContext &parse();
  /// Per-function hybrid AST-CFGs (empty when parsing failed).
  const std::vector<std::unique_ptr<AstCfg>> &cfg();
  /// Interprocedural side-effect summaries.
  const InterproceduralResult &interproc();
  /// The mapping plan as a self-contained Mapping IR (the plan stage's
  /// artifact, planned fresh or re-hydrated from the plan cache; empty
  /// when an earlier stage reported errors). Serializable, AST-free,
  /// consumable by any PlanConsumer backend.
  const ir::MappingIr &ir();
  /// Plan-safety findings (empty when the stage was skipped after a
  /// cache hit without `config.check`, or when planning failed).
  const check::CheckResult &check();
  /// Transformed source; the original text when the pipeline failed.
  /// Produced by the SourceRewriteBackend over `ir()`.
  const std::string &rewrite();
  /// Table IV complexity counters.
  const ComplexityMetrics &metrics();
  /// Aggregate report over every stage that has run. Executes stages up to
  /// `config.stopAfter` first (the full pipeline by default).
  const Report &report();

  /// Executes stages in order up to `config.stopAfter`; stops early when a
  /// stage reports errors. Returns `success()`.
  bool run();

  // --- state queries (never trigger computation beyond their stage) ---

  [[nodiscard]] bool parseSucceeded();
  /// True when every executed stage completed without error diagnostics and
  /// parsing succeeded.
  [[nodiscard]] bool success() const;
  [[nodiscard]] const std::string &fileName() const { return fileName_; }
  [[nodiscard]] const SourceManager &sourceManager() const {
    return sourceManager_;
  }
  [[nodiscard]] const PipelineConfig &config() const { return config_; }
  [[nodiscard]] DiagnosticEngine &diagnostics() { return diags_; }
  [[nodiscard]] const DiagnosticEngine &diagnostics() const { return diags_; }

  /// Keeps the AST alive past the Session, for callers that hold on to
  /// AST nodes after the Session is gone.
  [[nodiscard]] std::shared_ptr<ASTContext> shareAst() const { return ast_; }

  /// Plan-cache probe outcome (Disabled until `run()`/`ir()` executes
  /// with a cache configured).
  [[nodiscard]] PlanCacheStatus planCacheStatus() const {
    return cacheStatus_;
  }
  /// The content-addressed key this Session used (empty hashes until the
  /// probe ran).
  [[nodiscard]] const cache::CacheKey &planCacheKey() const {
    return cacheKey_;
  }
  /// True when the plan artifact was re-hydrated from the cache (the
  /// parse/cfg/interproc/plan stages were skipped).
  [[nodiscard]] bool planFromCache() const { return planFromCache_; }

  /// How many times a stage actually executed (0 = never, 1 = computed once;
  /// never higher because artifacts are cached).
  [[nodiscard]] unsigned stageRuns(Stage stage) const {
    return runs_[static_cast<unsigned>(stage)];
  }
  /// Wall-clock seconds a stage spent computing (0 when it never ran).
  [[nodiscard]] double stageSeconds(Stage stage) const {
    return seconds_[static_cast<unsigned>(stage)];
  }
  /// Sum over all executed stages: the Table V tool time.
  [[nodiscard]] double totalSeconds() const;

private:
  class StageTimer;

  void ensureParse();
  void ensureCfg();
  void ensureInterproc();
  void ensurePlan();
  void ensureCheck();
  void ensureRewrite();
  void ensureMetrics();
  void ensureStage(Stage stage);

  [[nodiscard]] bool done(Stage stage) const {
    return done_[static_cast<unsigned>(stage)];
  }

  /// The plan artifact exists and no stage reported errors (fresh parse or
  /// cache re-hydration); gates the downstream stages.
  [[nodiscard]] bool planUsable() const {
    return (parseOk_ || planFromCache_) && !diags_.hasErrors();
  }

  /// The cache this Session consults: the shared instance from the config,
  /// else one lazily owned over `config.cacheDir`.
  [[nodiscard]] cache::PlanCache *activeCache();

  /// Computes the cache key and attempts re-hydration (once). On a hit the
  /// plan stage is marked done without running and true is returned.
  bool probePlanCache();

  /// Persists the freshly planned IR (+ metrics + diagnostics) when the
  /// active cache is writable and planning succeeded.
  void storePlanCacheEntry();

  [[nodiscard]] ComplexityMetrics computeMetrics() const;

  Report buildReport();

  std::string fileName_;
  PipelineConfig config_;
  SourceManager sourceManager_;
  DiagnosticEngine diags_;
  std::shared_ptr<ASTContext> ast_;

  std::array<bool, kStageCount> done_{};
  std::array<unsigned, kStageCount> runs_{};
  std::array<double, kStageCount> seconds_{};

  bool parseOk_ = false;
  std::vector<std::unique_ptr<AstCfg>> cfgs_;
  InterproceduralResult interproc_;
  ir::MappingIr ir_;
  /// Findings of the check stage; empty before it runs (and when it was
  /// skipped after a cache hit).
  check::CheckResult checkResult_;
  std::string rewritten_;
  ComplexityMetrics metrics_;
  std::optional<Report> report_;
  /// Total stage executions when `report_` was built; a later stage run
  /// invalidates the cached report.
  unsigned reportStageRuns_ = 0;

  // --- plan cache state ---
  std::unique_ptr<cache::PlanCache> ownedCache_;
  cache::CacheKey cacheKey_;
  PlanCacheStatus cacheStatus_ = PlanCacheStatus::Disabled;
  bool cacheProbed_ = false;
  bool planFromCache_ = false;
  /// Metrics re-hydrated from a cache hit, or precomputed at plan time on
  /// a fresh plan (served by the metrics stage either way).
  ComplexityMetrics cachedMetrics_;
  bool metricsPrecomputed_ = false;
};

} // namespace ompdart
