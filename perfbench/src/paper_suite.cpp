// The paper's evaluation (§V) as a check and a per-layer replay of the
// cold_batch workload: the nine benchmarks' unoptimized, OMPDart and expert
// variants through the pipeline, the interpreter and the simulated runtime.
// Every variant's ledgers must equal the Figure 3/4 counts pinned below and
// the three outputs must match, so a planner change that moves more data,
// or any change that alters program output, fails the run.
//
// This was a timed workload of its own, with one benchmark (or one variant
// run) per op. On a four-core machine shared with other tenants its p50 and
// tail spread by 19-29 % between runs of the same code, whatever the
// threads and op size, so it is not timed: cold_batch plans these nine
// benchmarks among its TUs, and the interpreter is measured in the traced
// run, where no bound applies.
#include "bench.hpp"

#include "exp/experiment.hpp"
#include "interp/interp.hpp"
#include "mapping/backend.hpp"
#include "suite/benchmarks.hpp"
#include "support/hash.hpp"

#include <cstdio>

namespace perfbench {

namespace {

namespace exp = ompdart::exp;
namespace sim = ompdart::sim;

struct LedgerRef {
  std::uint64_t bytesHtoD = 0;
  std::uint64_t bytesDtoH = 0;
  unsigned callsHtoD = 0;
  unsigned callsDtoH = 0;

  [[nodiscard]] std::uint64_t bytes() const { return bytesHtoD + bytesDtoH; }
  [[nodiscard]] unsigned calls() const { return callsHtoD + callsDtoH; }
  [[nodiscard]] bool operator==(const LedgerRef &other) const {
    return bytesHtoD == other.bytesHtoD && bytesDtoH == other.bytesDtoH &&
           callsHtoD == other.callsHtoD && callsDtoH == other.callsDtoH;
  }
};

/// Figure 3 (bytes) and Figure 4 (memcpy calls) per benchmark and variant
/// (unoptimized, OMPDart, expert), as the simulated runtime counts them.
struct BenchRef {
  const char *name;
  LedgerRef variants[3];
};

const BenchRef kReferences[] = {
    {"accuracy",
     {{4128864, 4128864, 72, 72}, {172128, 96, 26, 24}, {172128, 96, 26, 24}}},
    {"ace",
     {{3133440, 3133440, 680, 680}, {9216, 9216, 2, 2}, {9216, 9216, 2, 2}}},
    {"backprop",
     {{621312, 621312, 42, 42}, {68352, 38912, 9, 7}, {68480, 71680, 10, 8}}},
    {"bfs",
     {{221256, 221256, 90, 90}, {18472, 2084, 15, 10}, {18472, 2084, 15, 10}}},
    {"clenergy",
     {{615168, 615168, 96, 96}, {26656, 24576, 6, 1}, {27392, 25344, 29, 25}}},
    {"hotspot",
     {{414720, 414720, 90, 90}, {276480, 138240, 60, 30}, {10656, 4608, 182, 1}}},
    {"lulesh",
     {{655360, 655360, 640, 640}, {9216, 35840, 9, 35}, {28544, 121856, 393, 119}}},
    {"nw",
     {{1714176, 1714176, 186, 186}, {18432, 9216, 2, 1}, {18804, 9216, 95, 1}}},
    {"xsbench",
     {{819200, 819200, 64, 64}, {94208, 65536, 7, 8}, {94272, 65536, 15, 8}}},
};

constexpr unsigned kVariants = 3;
const char *const kVariantNames[kVariants] = {"unoptimized", "ompdart",
                                              "expert"};
const char *const kInterpSpans[kVariants] = {
    "interp.unoptimized", "interp.ompdart", "interp.expert"};

LedgerRef ledgerOf(const sim::TransferLedger &ledger) {
  return {ledger.bytes(sim::TransferDir::HtoD),
          ledger.bytes(sim::TransferDir::DtoH),
          ledger.calls(sim::TransferDir::HtoD),
          ledger.calls(sim::TransferDir::DtoH)};
}

LedgerRef ledgerOf(const exp::VariantResult &variant) {
  return {variant.bytesHtoD, variant.bytesDtoH, variant.callsHtoD,
          variant.callsDtoH};
}

/// What one variant run produced.
struct VariantRun {
  bool ok = false;
  LedgerRef ledger;
  std::uint64_t interpOps = 0;
  std::string outputFingerprint;
};

/// One variant of one benchmark, as exp::runBenchmark runs it: the
/// unoptimized and expert sources are parsed and interpreted; OMPDart plans
/// the unoptimized source and interprets it under the plan overlay.
VariantRun runVariant(std::size_t bench, unsigned variant,
                      std::uint64_t request) {
  const auto &def = ompdart::suite::allBenchmarks()[bench];
  const std::string fileName = def.name + ".c";
  ompdart::interp::RunResult run;
  if (variant == 1) {
    ScopedSpan sessionSpan("driver.session", request);
    ompdart::Session session(fileName, def.unoptimized, coldConfig());
    if (runSession(session, request)) {
      ScopedSpan span(kInterpSpans[variant], request);
      ompdart::ApplyToInterpBackend backend;
      ompdart::PlanConsumerInput input;
      input.ir = &session.ir();
      input.source = &session.sourceManager();
      input.unit = &session.parse().unit();
      if (backend.consume(input))
        run = backend.result();
    }
  } else {
    ompdart::PipelineConfig config = coldConfig();
    config.rejectExistingDataDirectives = false; // expert has mappings
    ompdart::Session session(fileName,
                             variant == 0 ? def.unoptimized : def.expert,
                             config);
    const ompdart::ASTContext *ast = nullptr;
    {
      ScopedSpan span("frontend.parse", request);
      ast = &session.parse();
    }
    ScopedSpan span(kInterpSpans[variant], request);
    ompdart::interp::Interpreter interpreter(ast->unit());
    run = interpreter.run();
  }
  VariantRun result;
  result.ledger = ledgerOf(run.ledger);
  result.ok = run.ok && result.ledger == kReferences[bench].variants[variant];
  result.interpOps = run.ledger.hostOps() + run.ledger.deviceOps();
  result.outputFingerprint = ompdart::hash::fingerprint(run.output);
  if (!result.ok)
    std::fprintf(stderr,
                 "perfbench: %s %s: ok=%d ledger {%llu, %llu, %u, %u} "
                 "(reference: Figures 3/4)\n",
                 def.name.c_str(), kVariantNames[variant], run.ok ? 1 : 0,
                 static_cast<unsigned long long>(result.ledger.bytesHtoD),
                 static_cast<unsigned long long>(result.ledger.bytesDtoH),
                 result.ledger.callsHtoD, result.ledger.callsDtoH);
  return result;
}

/// "exp.<benchmark>" span names (static storage, as the tracer requires).
const std::vector<std::string> &expSpanNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto &def : ompdart::suite::allBenchmarks())
      out.push_back("exp." + def.name);
    return out;
  }();
  return names;
}

} // namespace

void checkPaperSuite(unsigned threads, WorkloadResult *result) {
  const auto &defs = ompdart::suite::allBenchmarks();
  std::vector<exp::BenchmarkComparison> runs(defs.size());
  const auto start = Clock::now();
  parallelFor(defs.size(), threads,
              [&](std::size_t b) { runs[b] = exp::runBenchmark(defs[b]); });
  const double suiteSeconds = secondsSince(start);

  std::vector<double> bytesRatios, callsRatios;
  json::Value rows = json::Value::object();
  for (std::size_t b = 0; b < defs.size(); ++b) {
    const LedgerRef ledgers[kVariants] = {ledgerOf(runs[b].unoptimized),
                                          ledgerOf(runs[b].ompdart),
                                          ledgerOf(runs[b].expert)};
    bool ok = runs[b].outputsMatch && defs[b].name == kReferences[b].name;
    json::Value row = json::Value::object();
    for (unsigned v = 0; v < kVariants; ++v) {
      ok = ok && ledgers[v] == kReferences[b].variants[v];
      json::Value cells = json::Value::array();
      cells.push(ledgers[v].bytesHtoD);
      cells.push(ledgers[v].bytesDtoH);
      cells.push(ledgers[v].callsHtoD);
      cells.push(ledgers[v].callsDtoH);
      row.set(kVariantNames[v], std::move(cells));
    }
    ++result->attempted;
    if (!ok)
      result->fail("paper suite " + defs[b].name +
                   ": outputs differ across variants or a ledger differs "
                   "from Figures 3/4");
    bytesRatios.push_back(static_cast<double>(ledgers[0].bytes()) /
                          static_cast<double>(std::max<std::uint64_t>(
                              1, ledgers[1].bytes())));
    callsRatios.push_back(
        static_cast<double>(ledgers[0].calls()) /
        static_cast<double>(std::max(1u, ledgers[1].calls())));
    row.set("bytes_reduction", bytesRatios.back());
    row.set("calls_reduction", callsRatios.back());
    rows.set(defs[b].name, std::move(row));
  }
  json::Value &detail = result->detail;
  detail.set("suite_s", suiteSeconds);
  detail.set("suite_threads", threads);
  detail.set("bytes_reduction_geomean", exp::geometricMean(bytesRatios));
  detail.set("calls_reduction_geomean", exp::geometricMean(callsRatios));
  detail.set("benchmarks", std::move(rows));
}

void replayPaperSuite(WorkloadResult *result) {
  const auto &defs = ompdart::suite::allBenchmarks();
  LedgerRef sums[kVariants];
  std::uint64_t interpOps = 0;
  for (std::size_t b = 0; b < defs.size(); ++b) {
    std::string outputs[kVariants];
    bool ok = true;
    {
      ScopedSpan span(expSpanNames()[b].c_str(), b);
      for (unsigned v = 0; v < kVariants; ++v) {
        const VariantRun run = runVariant(b, v, b);
        ok = ok && run.ok;
        outputs[v] = run.outputFingerprint;
        sums[v].bytesHtoD += run.ledger.bytesHtoD;
        sums[v].bytesDtoH += run.ledger.bytesDtoH;
        sums[v].callsHtoD += run.ledger.callsHtoD;
        sums[v].callsDtoH += run.ledger.callsDtoH;
        interpOps += run.interpOps;
      }
    }
    ++result->attempted;
    if (!ok || outputs[1] != outputs[0] || outputs[2] != outputs[0])
      result->fail("paper suite replay of " + defs[b].name);
  }
  const auto totals = Tracer::totals();
  auto &layers = result->layers;
  double interpSeconds = 0.0;
  for (unsigned v = 0; v < kVariants; ++v) {
    const std::string name = kVariantNames[v];
    const double seconds = selfSeconds(totals, kInterpSpans[v]);
    interpSeconds += seconds;
    layers["interp." + name + ".run_s"] = seconds;
    layers["sim." + name + ".bytes_htod"] =
        static_cast<double>(sums[v].bytesHtoD);
    layers["sim." + name + ".bytes_dtoh"] =
        static_cast<double>(sums[v].bytesDtoH);
    layers["sim." + name + ".calls"] = static_cast<double>(sums[v].calls());
  }
  if (interpSeconds > 0.0)
    layers["interp.ops_per_s"] = static_cast<double>(interpOps) / interpSeconds;
  for (const auto &[name, row] : totals)
    if (name.rfind("exp.", 0) == 0 && row.count > 0)
      layers[name + "_s"] = row.totalSeconds / static_cast<double>(row.count);
}

} // namespace perfbench
