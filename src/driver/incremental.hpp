// Incremental whole-program replanning (the plan server's project engine).
//
// `ProjectSession` is one-shot: every `project` request re-extracts every
// TU's summary (or at least re-reads the artifact), re-links, and runs a
// Session per TU — even when the request differs from the previous one by a
// single edit. `IncrementalProject` is the long-lived counterpart: it holds
// the previous replan's per-TU state (source bytes, module summary, import
// slice and the fingerprints of both, planned item — shared, never deep
// copied) plus the previous link, and on the next request does work in
// proportion to the edit:
//
//   1. summaries: a TU whose source bytes equal the held ones reuses its
//      held ModuleSummary (no hash, no parse, no disk, no JSON); only
//      changed TUs are hashed and re-extracted (via the summary cache),
//   2. link: when every summary equals the held one (facts and source
//      locations) and the TU order is unchanged — a comment edit, or the
//      flip-back of one — the held LinkResult is reused and no link runs;
//      otherwise the link fixed point reruns over the full summary set,
//   3. imports: a reused link keeps every held import slice; after a
//      relink each TU's slice is rebuilt and compared with the held one,
//      and only a new TU's slice or one that differs is sealed (its
//      fingerprint computed, once) and replaces the held one,
//   4. plan: ONLY the TUs whose source or imports fingerprint changed run
//      a Session (handed the sealed slice, so the plan-cache probe reads
//      its fingerprint instead of recomputing it); every other TU's item
//      is served from the held state with zero pipeline stage executions.
//
// The reuse decision mirrors the plan-cache key exactly (source + imports
// fingerprint; the config is fixed per instance), so a served-from-state
// item is byte-identical to what a fresh Session would produce — the
// cache-key equality IS the proof. tests/driver/incremental_test.cpp and
// tests/driver/edit_stream_test.cpp pin this against ProjectSession
// outputs.
#pragma once

#include "driver/pipeline.hpp"
#include "driver/project.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ompdart {

/// Why a TU ran (or skipped) a pipeline Session during a replan.
enum class ReplanReason {
  Reused,         ///< source and imports unchanged: served from held state
  Initial,        ///< first time this TU name was seen
  SourceChanged,  ///< the TU's own source hash changed
  ImportsChanged, ///< a dependency's facts changed this TU's imports
};

[[nodiscard]] const char *replanReasonName(ReplanReason reason);

/// Per-TU outcome of one replan, in request order.
struct IncrementalTuResult {
  std::string name;
  ReplanReason reason = ReplanReason::Initial;
  /// The TU's module summary was reused from held state (no extraction and
  /// no summary-cache lookup happened this replan).
  bool summaryReused = false;
  /// The TU's import slice is new or changed this replan, so it was sealed
  /// (fingerprinted) anew.
  bool importsRebuilt = false;
  /// Shared with the replanner's held state: serving a reused TU copies
  /// nothing.
  std::shared_ptr<const ProjectItem> item;

  [[nodiscard]] bool replanned() const {
    return reason != ReplanReason::Reused;
  }
};

/// Wall seconds of each replan phase.
struct ReplanPhaseSeconds {
  double summaries = 0.0; ///< source compare + changed-TU extraction
  double link = 0.0;      ///< link fixed point + schedule (0 when reused)
  double imports = 0.0;   ///< slice rebuilds, compares, new fingerprints
  double plan = 0.0;      ///< the replanned TUs' Sessions
  double fold = 0.0;      ///< result counters + held-state refresh
};

/// Outcome of one replan request.
struct IncrementalResult {
  bool success = false;
  std::vector<IncrementalTuResult> tus; ///< request order
  /// Names of the TUs that actually ran a Session, in the (reverse
  /// topological) order they were scheduled.
  std::vector<std::string> scheduleOrder;
  /// Link-level diagnostics of the program (the held link's when it was
  /// reused).
  std::vector<Diagnostic> linkDiagnostics;
  /// Link fixed-point passes this replan ran (0 when the link was reused).
  unsigned linkPasses = 0;
  /// No link ran: every module summary and the TU order equalled the held
  /// ones, so the held link, import slices and fingerprints were reused.
  bool linkReused = false;
  /// TUs whose import slice was new or changed, so sealed anew.
  unsigned importsRebuilt = 0;
  unsigned summariesExtracted = 0; ///< summaries refreshed (parse or cache)
  unsigned summariesReused = 0;    ///< summaries served from held state
  unsigned tusReplanned = 0;
  unsigned tusReused = 0;
  /// Pipeline stage executions across THIS replan's sessions only; reused
  /// TUs contribute zero by construction — the observable proof the replan
  /// was incremental.
  std::array<unsigned, kStageCount> stageRuns{};
  /// Wall seconds per stage summed across this replan's sessions.
  std::array<double, kStageCount> stageSeconds{};
  ReplanPhaseSeconds phaseSeconds;
  double wallSeconds = 0.0;

  [[nodiscard]] const IncrementalTuResult *
  find(const std::string &name) const {
    for (const IncrementalTuResult &tu : tus)
      if (tu.name == name)
        return &tu;
    return nullptr;
  }
  /// Adds members to one TU's entry of the `tus` array.
  using TuJsonExtra =
      std::function<void(const IncrementalTuResult &, json::Value &)>;
  /// The replan accounting; each `tus` entry carries the TU's name, replan
  /// reason and success, then whatever `extra` adds.
  [[nodiscard]] json::Value toJson(const TuJsonExtra &extra = {}) const;
};

/// Long-lived whole-program replanner. Thread-safe: replans serialize on an
/// internal mutex (the per-TU phases inside one replan still fan out over
/// the worker pool).
class IncrementalProject {
public:
  struct Options {
    /// Worker threads for the summary and plan phases; 0/1 = sequential.
    unsigned threads = 1;
  };

  IncrementalProject(PipelineConfig config, Options options);
  explicit IncrementalProject(PipelineConfig config);

  IncrementalProject(const IncrementalProject &) = delete;
  IncrementalProject &operator=(const IncrementalProject &) = delete;

  /// Replans `tus` as one program against the held state. TUs are matched
  /// to held state by name; names that disappeared are dropped, new names
  /// plan as Initial.
  [[nodiscard]] IncrementalResult replan(const std::vector<ProjectTu> &tus);

  /// Drops all held state: the next replan is a full plan.
  void invalidate();

  /// Number of TUs currently held.
  [[nodiscard]] std::size_t heldTus() const;

private:
  /// Everything held for one TU. Heavy members are shared, so copying a
  /// TuState (to serve or carry it into the next replan) is cheap.
  struct TuState {
    std::string fileName;
    std::shared_ptr<const std::string> source;
    std::shared_ptr<const summary::ModuleSummary> module;
    std::string moduleFingerprint;
    std::shared_ptr<const summary::SealedImports> imports;
    std::shared_ptr<const ProjectItem> item;
  };

  [[nodiscard]] cache::PlanCache *activeCache();

  PipelineConfig config_;
  Options options_;
  std::unique_ptr<cache::PlanCache> ownedCache_;
  mutable std::mutex mutex_;
  std::map<std::string, TuState> state_;
  /// The held TUs' names in the previous request's order, the link over
  /// their summaries in that order, and its reverse topological schedule.
  std::vector<std::string> order_;
  std::shared_ptr<const summary::LinkResult> link_;
  std::vector<std::size_t> schedule_;
};

} // namespace ompdart
