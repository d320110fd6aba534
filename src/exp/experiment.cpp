#include "exp/experiment.hpp"

#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "mapping/backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ompdart::exp {

namespace {

VariantResult fromRun(const std::string &name, const interp::RunResult &run,
                      const sim::CostModel &model) {
  VariantResult result;
  result.name = name;
  result.ok = run.ok;
  result.error = run.error;
  result.output = run.output;
  result.bytesHtoD = run.ledger.bytes(sim::TransferDir::HtoD);
  result.bytesDtoH = run.ledger.bytes(sim::TransferDir::DtoH);
  result.callsHtoD = run.ledger.calls(sim::TransferDir::HtoD);
  result.callsDtoH = run.ledger.calls(sim::TransferDir::DtoH);
  result.kernelLaunches = run.ledger.kernelLaunches();
  result.transferSeconds = model.transferSeconds(run.ledger);
  result.totalSeconds = model.totalSeconds(run.ledger);
  return result;
}

/// The OMPDart variant: the session's Mapping IR is applied to its
/// already-parsed unit as an execution overlay.
VariantResult measureViaInterpBackend(Session &session,
                                      const sim::CostModel &model) {
  ApplyToInterpBackend backend;
  PlanConsumerInput input;
  input.ir = &session.ir();
  input.source = &session.sourceManager();
  input.unit = &session.parse().unit();
  if (!backend.consume(input)) {
    VariantResult result;
    result.name = "ompdart";
    result.error = backend.error();
    return result;
  }
  return fromRun("ompdart", backend.result(), model);
}

std::string formatRow(const char *label, const VariantResult &variant) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "  %-12s HtoD %10s /%5u calls   DtoH %10s /%5u calls",
                label, formatBytes(variant.bytesHtoD).c_str(),
                variant.callsHtoD, formatBytes(variant.bytesDtoH).c_str(),
                variant.callsDtoH);
  return buffer;
}

} // namespace

VariantResult measureVariant(const std::string &name,
                             const std::string &source,
                             const sim::CostModel &model) {
  return fromRun(name, interp::runProgram(source), model);
}

std::string formatBytes(std::uint64_t bytes) {
  char buffer[64];
  if (bytes >= 1024ull * 1024 * 1024)
    std::snprintf(buffer, sizeof buffer, "%.2f GB",
                  static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  else if (bytes >= 1024ull * 1024)
    std::snprintf(buffer, sizeof buffer, "%.2f MB",
                  static_cast<double>(bytes) / (1024.0 * 1024));
  else if (bytes >= 1024)
    std::snprintf(buffer, sizeof buffer, "%.2f KB",
                  static_cast<double>(bytes) / 1024.0);
  else
    std::snprintf(buffer, sizeof buffer, "%llu B",
                  static_cast<unsigned long long>(bytes));
  return buffer;
}

double geometricMean(const std::vector<double> &values) {
  if (values.empty())
    return 0.0;
  double logSum = 0.0;
  unsigned count = 0;
  for (const double value : values) {
    if (value <= 0.0)
      continue;
    logSum += std::log(value);
    ++count;
  }
  return count > 0 ? std::exp(logSum / count) : 0.0;
}

std::uint64_t predictedTransferBytes(const ir::MappingIr &ir) {
  // Present-table accounting (OpenMP 5.2 reference counts): every region
  // entry is a fresh 0->1 transition (HtoD for to/tofrom) and every exit a
  // 1->0 transition (DtoH for from/tofrom), so map traffic multiplies by
  // the region's provable entry count; updates copy unconditionally each
  // time their insertion point executes.
  std::uint64_t total = 0;
  for (const ir::Region &region : ir.regions) {
    for (const ir::MapItem &map : region.maps) {
      // Per item: transition copies are paid only on COLD entries (the
      // planner's warm-callee accounting zeroes or lowers coldEntries for
      // entries arriving inside an enclosing caller region that already
      // maps the object; fully warm items also carry `present`).
      std::uint64_t perEntry = 0;
      switch (map.type) {
      case ir::MapType::To:
      case ir::MapType::From:
        perEntry = map.approxBytes;
        break;
      case ir::MapType::ToFrom:
        perEntry = 2 * map.approxBytes; // both the HtoD and DtoH legs
        break;
      case ir::MapType::Alloc:
      case ir::MapType::Release:
      case ir::MapType::Delete:
        break; // no movement
      }
      total += perEntry * map.coldEntries;
    }
    for (const ir::UpdateItem &update : region.updates)
      total +=
          update.approxBytes * std::max<std::uint64_t>(1, update.executions);
  }
  return total;
}

BenchmarkComparison runBenchmark(const suite::BenchmarkDef &def,
                                 const sim::CostModel &model) {
  BenchmarkComparison cmp;
  cmp.name = def.name;
  cmp.paper = def.paper;

  // OMPDart variant: run the staged pipeline on the unoptimized source.
  // The transformed text lives in cmp.transformedSource; don't duplicate it
  // inside the report.
  PipelineConfig config;
  config.includeOutputInReport = false;
  Session session(def.name + ".c", def.unoptimized, config);
  const bool toolOk = session.run();
  const ComplexityMetrics &metrics = session.metrics();
  cmp.toolReport = session.report();
  cmp.toolSeconds = cmp.toolReport.totalSeconds;
  cmp.transformedSource = session.rewrite();
  cmp.predictedPlanBytes = predictedTransferBytes(session.ir());
  cmp.kernels = metrics.kernels;
  cmp.offloadedLines = metrics.offloadedLines;
  cmp.mappedVariables = metrics.mappedVariables;
  cmp.possibleMappings = metrics.possibleMappings;

  cmp.unoptimized = measureVariant("unoptimized", def.unoptimized, model);
  cmp.ompdart = toolOk ? measureViaInterpBackend(session, model)
                       : measureVariant("ompdart", def.unoptimized, model);
  cmp.expert = measureVariant("expert", def.expert, model);

  cmp.outputsMatch = cmp.unoptimized.ok && cmp.ompdart.ok && cmp.expert.ok &&
                     cmp.unoptimized.output == cmp.ompdart.output &&
                     cmp.unoptimized.output == cmp.expert.output;
  return cmp;
}

std::vector<BenchmarkComparison>
runAllBenchmarks(const sim::CostModel &model) {
  std::vector<BenchmarkComparison> results;
  for (const suite::BenchmarkDef &def : suite::allBenchmarks())
    results.push_back(runBenchmark(def, model));
  return results;
}

std::string renderTable3() {
  std::ostringstream out;
  out << "TABLE III: Programs used for evaluating OMPDart\n";
  out << "-------------------------------------------------------------\n";
  for (const suite::BenchmarkDef &def : suite::allBenchmarks()) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, "  %-10s %-9s %-20s %s\n",
                  def.name.c_str(), def.suiteName.c_str(),
                  def.domain.c_str(), def.description.c_str());
    out << buffer;
  }
  return out.str();
}

std::string renderTable4(const std::vector<BenchmarkComparison> &results) {
  std::ostringstream out;
  out << "TABLE IV: Benchmark data mapping complexity "
         "(measured | paper)\n";
  out << "  benchmark   kernels        off.lines      mapped-vars    "
         "possible-mappings\n";
  out << "--------------------------------------------------------------"
         "----------------\n";
  for (const BenchmarkComparison &cmp : results) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "  %-10s %4u | %4u    %5u | %4u    %4u | %4u    %8llu | "
                  "%8llu\n",
                  cmp.name.c_str(), cmp.kernels, cmp.paper.kernels,
                  cmp.offloadedLines, cmp.paper.offloadedLines,
                  cmp.mappedVariables, cmp.paper.mappedVariables,
                  static_cast<unsigned long long>(cmp.possibleMappings),
                  static_cast<unsigned long long>(
                      cmp.paper.possibleMappings));
    out << buffer;
  }
  return out.str();
}

std::string renderTable5(const std::vector<BenchmarkComparison> &results) {
  std::ostringstream out;
  out << "TABLE V: OMPDart overhead (tool execution time)\n";
  out << "  benchmark    measured (s)    paper (s)\n";
  out << "-------------------------------------------\n";
  double sum = 0.0;
  for (const BenchmarkComparison &cmp : results) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer, "  %-10s %10.4f %12.2f\n",
                  cmp.name.c_str(), cmp.toolSeconds, cmp.paper.toolSeconds);
    out << buffer;
    sum += cmp.toolSeconds;
  }
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "  %-10s %10.4f\n", "average",
                results.empty() ? 0.0 : sum / results.size());
  out << buffer;
  return out.str();
}

std::string renderFigure3(const std::vector<BenchmarkComparison> &results) {
  std::ostringstream out;
  out << "FIGURE 3: GPU data transfer activity (bytes, lower is better)\n";
  for (const BenchmarkComparison &cmp : results) {
    out << cmp.name << "\n";
    out << formatRow("unoptimized", cmp.unoptimized) << "\n";
    out << formatRow("OMPDart", cmp.ompdart) << "\n";
    out << formatRow("expert", cmp.expert) << "\n";
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "  reduction (OMPDart vs unopt): %8.1fx   (paper: %.0fx)\n",
                  cmp.transferReduction(cmp.ompdart),
                  cmp.paper.transferReduction);
    out << buffer;
  }
  return out.str();
}

std::string renderFigure4(const std::vector<BenchmarkComparison> &results) {
  std::ostringstream out;
  out << "FIGURE 4: GPU data transfer activity (# memcpy calls, lower is "
         "better)\n";
  char buffer[200];
  std::snprintf(buffer, sizeof buffer, "  %-10s %22s %22s %22s\n",
                "benchmark", "unoptimized (H2D/D2H)", "OMPDart (H2D/D2H)",
                "expert (H2D/D2H)");
  out << buffer;
  for (const BenchmarkComparison &cmp : results) {
    std::snprintf(buffer, sizeof buffer,
                  "  %-10s %12u /%8u %12u /%8u %12u /%8u\n",
                  cmp.name.c_str(), cmp.unoptimized.callsHtoD,
                  cmp.unoptimized.callsDtoH, cmp.ompdart.callsHtoD,
                  cmp.ompdart.callsDtoH, cmp.expert.callsHtoD,
                  cmp.expert.callsDtoH);
    out << buffer;
  }
  return out.str();
}

std::string renderFigure5(const std::vector<BenchmarkComparison> &results) {
  std::ostringstream out;
  out << "FIGURE 5: Speedups over unoptimized OpenMP offload code "
         "(higher is better)\n";
  char buffer[200];
  std::snprintf(buffer, sizeof buffer, "  %-10s %12s %12s %14s\n",
                "benchmark", "OMPDart", "expert", "paper-OMPDart");
  out << buffer;
  std::vector<double> ompdartSpeedups;
  std::vector<double> expertSpeedups;
  std::vector<double> vsExpert;
  for (const BenchmarkComparison &cmp : results) {
    const double toolSpeedup = cmp.speedup(cmp.ompdart);
    const double expertSpeedup = cmp.speedup(cmp.expert);
    ompdartSpeedups.push_back(toolSpeedup);
    expertSpeedups.push_back(expertSpeedup);
    if (expertSpeedup > 0.0)
      vsExpert.push_back(toolSpeedup / expertSpeedup);
    std::snprintf(buffer, sizeof buffer, "  %-10s %11.2fx %11.2fx %13.2fx\n",
                  cmp.name.c_str(), toolSpeedup, expertSpeedup,
                  cmp.paper.speedup);
    out << buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "  geomean speedup: OMPDart %.2fx, expert %.2fx, "
                "OMPDart-vs-expert %.2fx (paper: 2.8x / - / 1.05x)\n",
                geometricMean(ompdartSpeedups),
                geometricMean(expertSpeedups), geometricMean(vsExpert));
  out << buffer;
  return out.str();
}

std::string renderFigure6(const std::vector<BenchmarkComparison> &results) {
  std::ostringstream out;
  out << "FIGURE 6: Improvements in data transfer wall time over "
         "unoptimized (higher is better)\n";
  char buffer[200];
  std::snprintf(buffer, sizeof buffer, "  %-10s %12s %12s\n", "benchmark",
                "OMPDart", "expert");
  out << buffer;
  std::vector<double> ompdartGains;
  std::vector<double> expertGains;
  for (const BenchmarkComparison &cmp : results) {
    const double toolGain = cmp.transferTimeImprovement(cmp.ompdart);
    const double expertGain = cmp.transferTimeImprovement(cmp.expert);
    ompdartGains.push_back(toolGain);
    expertGains.push_back(expertGain);
    std::snprintf(buffer, sizeof buffer, "  %-10s %11.2fx %11.2fx\n",
                  cmp.name.c_str(), toolGain, expertGain);
    out << buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "  geomean transfer-time improvement: OMPDart %.2fx, expert "
                "%.2fx (paper: 5.1x / 4.2x)\n",
                geometricMean(ompdartGains), geometricMean(expertGains));
  out << buffer;
  return out.str();
}

} // namespace ompdart::exp
