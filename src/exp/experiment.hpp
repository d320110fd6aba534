// Experiment harness: regenerates the paper's evaluation (Figures 3-6,
// Tables III-V). For each benchmark it runs the three variants of §V —
// unoptimized (implicit rules), OMPDart (the tool's plan) and expert (hand
// mappings) — through the interpreter + simulated runtime, checks output
// equality (the paper's correctness criterion), and derives
// transfer/runtime comparisons from the ledgers and cost model.
//
// The OMPDart variant executes through the ApplyToInterpBackend: the
// Mapping IR is applied to the already-parsed unit as an execution
// overlay, so no rewritten source is re-parsed. The rewritten text is
// still returned in `transformedSource` for inspection.
#pragma once

#include "driver/report.hpp"
#include "mapping/ir.hpp"
#include "sim/runtime.hpp"
#include "suite/benchmarks.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ompdart::exp {

/// Measurements for one benchmark variant.
struct VariantResult {
  std::string name; ///< "unoptimized" | "ompdart" | "expert"
  bool ok = false;
  std::string error;
  std::string output;
  std::uint64_t bytesHtoD = 0;
  std::uint64_t bytesDtoH = 0;
  unsigned callsHtoD = 0;
  unsigned callsDtoH = 0;
  unsigned kernelLaunches = 0;
  double transferSeconds = 0.0;
  double totalSeconds = 0.0;

  [[nodiscard]] std::uint64_t totalBytes() const {
    return bytesHtoD + bytesDtoH;
  }
  [[nodiscard]] unsigned totalCalls() const { return callsHtoD + callsDtoH; }
};

/// Full comparison for one benchmark (one row of each figure).
struct BenchmarkComparison {
  std::string name;
  suite::PaperReference paper;
  VariantResult unoptimized;
  VariantResult ompdart;
  VariantResult expert;
  /// The paper's correctness criterion: outputs identical across variants.
  bool outputsMatch = false;
  /// Tool execution time on this benchmark (Table V).
  double toolSeconds = 0.0;
  /// Full pipeline report for the OMPDart variant (per-stage timings,
  /// diagnostics, plan summary); `toolSeconds` mirrors its total.
  Report toolReport;
  /// Complexity metrics of this benchmark measured on our re-authoring.
  unsigned kernels = 0;
  unsigned offloadedLines = 0;
  unsigned mappedVariables = 0;
  std::uint64_t possibleMappings = 0;
  /// The tool's transformed source (for inspection/examples).
  std::string transformedSource;
  /// Static prediction of the plan's transfer bytes (one region
  /// execution), for predicted-vs-simulated comparisons.
  std::uint64_t predictedPlanBytes = 0;

  [[nodiscard]] double speedup(const VariantResult &variant) const {
    return variant.totalSeconds > 0.0
               ? unoptimized.totalSeconds / variant.totalSeconds
               : 0.0;
  }
  [[nodiscard]] double transferReduction(const VariantResult &variant) const {
    return variant.totalBytes() > 0
               ? static_cast<double>(unoptimized.totalBytes()) /
                     static_cast<double>(variant.totalBytes())
               : 0.0;
  }
  [[nodiscard]] double
  transferTimeImprovement(const VariantResult &variant) const {
    return variant.transferSeconds > 0.0
               ? unoptimized.transferSeconds / variant.transferSeconds
               : 0.0;
  }
};

/// Interprets `source` and measures its run as the variant `name`.
[[nodiscard]] VariantResult measureVariant(const std::string &name,
                                           const std::string &source,
                                           const sim::CostModel &model = {});

/// Runs all three variants of one benchmark.
[[nodiscard]] BenchmarkComparison
runBenchmark(const suite::BenchmarkDef &def, const sim::CostModel &model = {});

/// Runs the full nine-benchmark suite.
[[nodiscard]] std::vector<BenchmarkComparison>
runAllBenchmarks(const sim::CostModel &model = {});

/// Static prediction of the transfer bytes one execution of the planned
/// regions moves: map items count once per direction (tofrom twice), alloc
/// moves nothing, updates count once each.
[[nodiscard]] std::uint64_t predictedTransferBytes(const ir::MappingIr &ir);

/// Geometric mean over positive values (the paper's summary statistic).
[[nodiscard]] double geometricMean(const std::vector<double> &values);

// --- Paper-style table renderers (one per table/figure) ---
[[nodiscard]] std::string renderTable3();
[[nodiscard]] std::string
renderTable4(const std::vector<BenchmarkComparison> &results);
[[nodiscard]] std::string
renderTable5(const std::vector<BenchmarkComparison> &results);
[[nodiscard]] std::string
renderFigure3(const std::vector<BenchmarkComparison> &results);
[[nodiscard]] std::string
renderFigure4(const std::vector<BenchmarkComparison> &results);
[[nodiscard]] std::string
renderFigure5(const std::vector<BenchmarkComparison> &results);
[[nodiscard]] std::string
renderFigure6(const std::vector<BenchmarkComparison> &results);

/// Human-readable byte count ("1.2 MB").
[[nodiscard]] std::string formatBytes(std::uint64_t bytes);

} // namespace ompdart::exp
