// Differential plan-correctness oracle (the paper's §V safety claim,
// mechanized).
//
// A program run under the tool's mapping plan must behave exactly like the
// same program run under the conservative implicit-mapping baseline while
// moving no more data. The oracle runs both variants through the
// interpreter + simulated runtime — the baseline with no plan (implicit
// to/from-everything rules), the planned variant with the Session's Mapping
// IR applied as an execution overlay via ApplyToInterpBackend — and checks
// three invariants:
//
//   (1) observable final state is bit-identical: captured stdout and exit
//       code match between baseline and planned runs,
//   (2) the planned run moves no more bytes than the baseline,
//   (3) for programs whose loop trips are all statically provable, the
//       planner's predicted transfer bytes equal the simulated bytes
//       exactly (the BENCH_plan_cost reconciliation, enforced per program).
//
// Every generated program from src/gen/ flows through here; a failed
// verdict is a real bug in parser, planner, interp overlay or the
// generator itself, and becomes a minimized regression under
// tests/verify/regressions/.
#pragma once

#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "mapping/ir.hpp"
#include "support/json.hpp"

#include <cstdint>
#include <string>

namespace ompdart::gen {
struct GeneratedProgram;
} // namespace ompdart::gen

namespace ompdart::verify {

struct OracleOptions {
  /// Pipeline configuration for the planning Session (ablation switches,
  /// shared plan cache). `stopAfter`/`includeOutputInReport` are
  /// managed by the oracle.
  PipelineConfig pipeline;
  interp::InterpOptions interp;
  /// Check invariant (3); only applied to programs with provable trips.
  bool checkPredicted = true;
  /// Also run the program under the SourceRewriteBackend's transformed
  /// text (rewrite -> reparse -> interpret) and require its output to
  /// match the baseline too. Catches rewriter-only bugs the overlay path
  /// cannot see (e.g. directive placement relative to braceless loop
  /// bodies). Off by default: it pays a second parse + run.
  bool checkRewrite = false;
};

/// Outcome of one differential run. `ok` is the conjunction of the three
/// invariants (an invariant that was not applicable counts as held).
struct OracleVerdict {
  bool ok = false;
  /// Pipeline or interpreter failure before any comparison could happen
  /// (parse error, planner diagnostic, interp abort); `error` explains.
  bool pipelineOk = false;
  std::string error;

  bool outputsMatch = false;    ///< invariant (1)
  bool transferBounded = false; ///< invariant (2)
  bool predictedChecked = false;
  bool predictedMatches = true; ///< invariant (3), true when unchecked
  bool rewriteChecked = false;
  /// Rewritten-source leg of invariant (1), true when unchecked.
  bool rewriteMatches = true;

  std::uint64_t baselineBytes = 0;
  std::uint64_t planBytes = 0;
  std::uint64_t predictedBytes = 0;
  unsigned baselineCalls = 0;
  unsigned planCalls = 0;

  std::string baselineOutput;
  std::string planOutput;
  /// Content fingerprint of the plan IR (corpus pinning / drift detection).
  std::string irFingerprint;
  /// Plan-cache probe outcome of the planning session.
  Session::PlanCacheStatus cacheStatus = Session::PlanCacheStatus::Disabled;

  /// Human-readable description of the first violated invariant; empty
  /// when `ok`.
  [[nodiscard]] std::string divergence() const;
  [[nodiscard]] json::Value toJson() const;
};

/// Full differential run: plan `source` through a Session, then execute
/// baseline and overlay variants. `provableTrips` gates invariant (3).
[[nodiscard]] OracleVerdict runOracle(const std::string &name,
                                      const std::string &source,
                                      bool provableTrips,
                                      const OracleOptions &options = {});

/// Convenience overload over a generated program (runs its combined
/// source; multi-TU programs are concatenated in link order).
[[nodiscard]] OracleVerdict runOracle(const gen::GeneratedProgram &program,
                                      const OracleOptions &options = {});

/// Oracle core with an injected plan: executes baseline and overlay runs
/// of `source` under `ir` without invoking the planner. This is how tests
/// prove the oracle *detects* divergences — hand it a broken IR (dropped
/// from-map, wrong entry count) and the verdict must fail.
[[nodiscard]] OracleVerdict verifyIr(const std::string &name,
                                     const std::string &source,
                                     const ir::MappingIr &ir,
                                     bool provableTrips,
                                     const OracleOptions &options = {});

} // namespace ompdart::verify
