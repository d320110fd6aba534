// Whole-program multi-TU driver (the Project layer).
//
// A `ProjectSession` analyzes a set of translation units as one program:
//
//   summaries  each TU's serialized ModuleSummary (analysis/summary) is
//              loaded from the per-TU summary cache by source hash, or
//              extracted from a fresh parse on a miss,
//   link       the whole-program §IV-C fixed point closes the summaries
//              over the cross-TU call graph, estimates whole-program
//              execution counts, aggregates call-site facts and checks
//              declaration/definition signatures,
//   plan       every TU runs through the staged single-TU `Session` with
//              its `TuImports` slice injected — bodiless in-project callees
//              analyze with their imported summaries (no "maximally
//              pessimistic" inflation), and the planner's entry-count /
//              update-execution estimator sees cross-TU call counts —
//              scheduled in reverse topological call-graph order,
//   emit       per-TU rewritten sources and reports, plus an aggregate
//              project report.
//
// Incrementality: plan-cache keys embed each TU's imports fingerprint, so
// editing one file re-parses that file (its source hash changed) and
// re-plans only the TUs whose imported facts actually changed; a
// whitespace-only edit re-extracts one summary, fingerprints equal, and
// every other TU re-hits its cached plan.
//
// A single-TU project is bit-compatible with the plain Session: the import
// slice degenerates (no externals, execution counts identical to the
// per-TU estimator by construction) and the emitted source is byte-equal —
// pinned by tests/driver/project_test.cpp.
#pragma once

#include "analysis/summary.hpp"
#include "cache/plan_cache.hpp"
#include "driver/pipeline.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ompdart {

/// Loads one TU's module summary from the plan cache's summary store (the
/// in-memory memo or disk) by source hash, or extracts it from a fresh
/// parse on a miss, storing the artifact back so the next caller skips the
/// parse. Shared by ProjectSession and the incremental replanner; safe to
/// call concurrently (the cache is thread-safe and everything else is
/// local).
[[nodiscard]] summary::ModuleSummary
loadOrExtractModuleSummary(cache::PlanCache *cache,
                           const std::string &fileName,
                           const std::string &source,
                           bool *fromCache = nullptr);

/// One translation unit of a project.
struct ProjectTu {
  std::string name;     ///< label used in results (defaults to fileName)
  std::string fileName; ///< diagnostics file name
  std::string source;
};

/// The set of translation units forming one program.
struct ProjectManifest {
  std::string name = "project";
  std::vector<ProjectTu> tus;

  /// Loads a manifest JSON file:
  ///   { "name": "app", "tus": ["main.c", {"file": "kernel.c"}] }
  /// TU paths resolve relative to the manifest's directory; each listed
  /// file is read into its TU's source. Returns nullopt (and sets `error`)
  /// on malformed documents or unreadable files.
  [[nodiscard]] static std::optional<ProjectManifest>
  fromJsonFile(const std::string &path, std::string *error = nullptr);
};

/// Per-TU outcome of a project run, in manifest order.
struct ProjectItem {
  std::string name;
  bool success = false;
  Report report;
  /// Transformed source (empty when the rewrite stage did not run).
  std::string output;
  Session::PlanCacheStatus cacheStatus = Session::PlanCacheStatus::Disabled;
  /// The TU's module summary came from the summary cache (no link-phase
  /// parse happened).
  bool summaryFromCache = false;
  /// Content fingerprint of the TU's module summary.
  std::string summaryFingerprint;
};

class ProjectSession {
public:
  struct Options {
    /// Worker threads for the per-TU plan phase; 0/1 = sequential. The
    /// link phase is always sequential (it is a fixed point).
    unsigned threads = 1;
  };

  ProjectSession(ProjectManifest manifest, PipelineConfig config,
                 Options options);
  explicit ProjectSession(ProjectManifest manifest,
                          PipelineConfig config = {});

  ProjectSession(const ProjectSession &) = delete;
  ProjectSession &operator=(const ProjectSession &) = delete;

  /// Runs summaries -> link -> per-TU pipelines. Returns `success()`.
  bool run();

  [[nodiscard]] bool success() const { return ran_ && success_; }

  /// Per-TU outcomes in manifest order (empty before `run()`).
  [[nodiscard]] const std::vector<ProjectItem> &items() const {
    return items_;
  }
  /// TU names in the order they were scheduled (reverse topological over
  /// the cross-TU call graph: callees before callers).
  [[nodiscard]] const std::vector<std::string> &scheduleOrder() const {
    return scheduleOrder_;
  }
  /// The whole-program link result (closed summaries, execution counts,
  /// signature diagnostics).
  [[nodiscard]] const summary::LinkResult &link() const { return link_; }
  /// Link-level diagnostics (signature mismatches, duplicate definitions).
  [[nodiscard]] const std::vector<Diagnostic> &linkDiagnostics() const {
    return link_.diagnostics;
  }
  /// The per-TU module summaries, in manifest order.
  [[nodiscard]] const std::vector<summary::ModuleSummary> &
  moduleSummaries() const {
    return modules_;
  }
  /// The per-TU import slices, in manifest order.
  [[nodiscard]] const std::vector<summary::SealedImports> &tuImports() const {
    return imports_;
  }
  /// The Session that planned a TU (by name); null before `run()` or for
  /// unknown names. Useful for inspecting stage artifacts (interproc
  /// summaries, IR) after a project run.
  [[nodiscard]] Session *sessionFor(const std::string &name);

  [[nodiscard]] const ProjectManifest &manifest() const { return manifest_; }

  /// Aggregate project report: schedule, link facts, per-TU reports, and
  /// (when a cache is configured) plan/summary cache counters.
  [[nodiscard]] json::Value reportJson() const;

private:
  [[nodiscard]] cache::PlanCache *activeCache();
  void loadOrExtractSummaries(cache::PlanCache *cache);
  void runSessions(cache::PlanCache *cache);

  ProjectManifest manifest_;
  PipelineConfig config_;
  Options options_;
  std::unique_ptr<cache::PlanCache> ownedCache_;

  std::vector<summary::ModuleSummary> modules_;
  /// char, not bool: worker threads write distinct elements concurrently,
  /// which vector<bool>'s bit packing would turn into a data race.
  std::vector<char> summaryCached_;
  summary::LinkResult link_;
  /// Stable storage: sessions hold non-owning pointers into this.
  std::vector<summary::SealedImports> imports_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<ProjectItem> items_;
  std::vector<std::string> scheduleOrder_;
  bool ran_ = false;
  bool success_ = false;
};

} // namespace ompdart
