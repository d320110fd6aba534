// cold_batch: the nine paper benchmarks plus a seeded generated corpus, each
// TU through its own Session with the plan cache off, on up to four worker
// threads. The front end, cfg, analysis, mapping, check and rewrite layers
// do nearly all the work; cache and server do none. The paper's evaluation
// of the nine benchmarks (paper_suite.cpp) is checked after the timed
// phase and replayed in the traced run.
#include "bench.hpp"

#include "driver/pipeline.hpp"
#include "gen/generator.hpp"
#include "suite/benchmarks.hpp"
#include "verify/oracle.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

constexpr unsigned kCorpusPrograms = 400;
constexpr unsigned kOracleSample = 24;

struct Corpus {
  std::vector<ompdart::gen::GeneratedProgram> programs;
  std::vector<SourceTu> tus; ///< the nine benchmarks, then one per program
  /// Per TU, from the warm-up pass: rewritten output, regions, IR items.
  std::vector<std::string> outputs;
  std::vector<std::size_t> regions;
  std::vector<std::size_t> items;
};

Corpus buildCorpus(std::uint64_t seed, unsigned threads) {
  Corpus corpus;
  for (const auto &def : ompdart::suite::allBenchmarks())
    corpus.tus.push_back({def.name + ".c", def.unoptimized});
  for (const std::uint64_t programSeed : drawCorpusSeeds(seed, kCorpusPrograms)) {
    corpus.programs.push_back(ompdart::gen::generateProgram(programSeed));
    const auto &program = corpus.programs.back();
    corpus.tus.push_back({program.name + ".c", program.combined()});
  }
  // Warm-up pass: untimed, fills the symbol interner and records each TU's
  // output for the determinism check of the timed passes.
  const std::size_t n = corpus.tus.size();
  corpus.outputs.assign(n, "");
  corpus.regions.assign(n, 0);
  corpus.items.assign(n, 0);
  parallelFor(n, threads, [&](std::size_t i) {
    TuRun run = planTu(corpus.tus[i], coldConfig(), i);
    corpus.outputs[i] = std::move(run.output);
    corpus.regions[i] = run.regions;
    corpus.items[i] = run.items;
  });
  return corpus;
}

/// Timed passes over the corpus; every op is one TU.
Phase coldPhase(const Corpus &corpus, const RunOptions &options,
                WorkloadResult *result, std::atomic<std::uint64_t> *findings) {
  const std::size_t n = corpus.tus.size();
  const ompdart::PipelineConfig config = coldConfig();
  return timedLoop(
      options.threads, options.seconds,
      [&](unsigned, std::uint64_t index, double &) {
        const std::size_t i = index % n;
        const TuRun run = planTu(corpus.tus[i], config, index);
        findings->fetch_add(run.findings);
        const bool ok = run.success && run.findings == 0 &&
                        run.output == corpus.outputs[i];
        if (!ok)
          std::fprintf(stderr, "perfbench: cold_batch %s failed\n",
                       corpus.tus[i].fileName.c_str());
        return ok;
      },
      result);
}

} // namespace

WorkloadResult runColdBatch(const RunOptions &options) {
  WorkloadResult result;
  // p99 lands among the nine paper TUs (2 % of the ops) and moves with
  // scheduling noise from run to run; p90 sits inside the generated corpus.
  result.tailPercentile = 90.0;

  std::vector<double> setups;
  Corpus corpus;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    corpus = buildCorpus(options.seed, options.threads);
    setups.push_back(secondsSince(start));
  }
  result.setupSeconds = median(setups);
  const std::size_t n = corpus.tus.size();

  std::atomic<std::uint64_t> findings{0};
  const Phase plain = coldPhase(corpus, options, &result, &findings);
  setEndToEnd(plain, &result);

  // Oracle sample: baseline interpreter run vs planned run on seeded picks.
  ompdart::gen::SplitMix64 rng(options.seed ^ 0x0c01dba7c4ull);
  std::vector<std::size_t> sample;
  for (unsigned i = 0; i < kOracleSample; ++i)
    sample.push_back(static_cast<std::size_t>(
        rng.pick(0, static_cast<int>(corpus.programs.size()) - 1)));
  std::vector<char> verdicts(sample.size(), 0);
  parallelFor(sample.size(), options.threads, [&](std::size_t i) {
    const auto verdict = ompdart::verify::runOracle(corpus.programs[sample[i]]);
    verdicts[i] = verdict.ok ? 1 : 0;
    if (!verdict.ok)
      std::fprintf(stderr, "perfbench: oracle %s: %s\n",
                   corpus.programs[sample[i]].name.c_str(),
                   verdict.divergence().c_str());
  });
  std::uint64_t oracleFailures = 0;
  for (const char ok : verdicts)
    oracleFailures += ok ? 0 : 1;
  result.attempted += sample.size();
  result.failed += oracleFailures;

  // The paper's evaluation on the nine benchmarks of the corpus: Figures
  // 3/4 ledgers and matching outputs. Two threads bound the interpreter's
  // memory (about 150 MB per run).
  checkPaperSuite(2, &result);

  if (options.trace) {
    Tracer::reset();
    Tracer::setEnabled(true);
    const auto traceStart = Clock::now();
    const Phase traced = coldPhase(corpus, options, &result, &findings);
    // Replay: Lexer::lexAll over every corpus source.
    result.layers["frontend.tokens_per_s"] = lexTokensPerSecond(corpus.tus);
    Tracer::setEnabled(false);
    const auto totals = Tracer::totals();
    addStageLayers(totals, traced.ops, &result);
    std::size_t passRegions = 0, passItems = 0;
    for (std::size_t i = 0; i < n; ++i) {
      passRegions += corpus.regions[i];
      passItems += corpus.items[i];
    }
    auto &layers = result.layers;
    layers["mapping.regions"] = static_cast<double>(passRegions);
    layers["mapping.ir_items"] = static_cast<double>(passItems);
    const double regionsPlanned = static_cast<double>(passRegions) *
                                  static_cast<double>(traced.ops) /
                                  static_cast<double>(n);
    if (regionsPlanned > 0.0) {
      layers["mapping.plan_us_per_region"] =
          selfSeconds(totals, "mapping.plan") / regionsPlanned * 1e6;
      layers["check.us_per_region"] =
          selfSeconds(totals, "check.check") / regionsPlanned * 1e6;
    }
    layers["check.findings"] = static_cast<double>(findings.load());
    // After the stage metrics: the replay plans the benchmarks again.
    Tracer::setEnabled(true);
    replayPaperSuite(&result);
    Tracer::setEnabled(false);
    addLayerShares(Tracer::totals(), secondsSince(traceStart), &result);
    addTraceOverhead(plain, traced, &result);
  }

  json::Value &detail = result.detail;
  detail.set("tus_per_pass", static_cast<std::uint64_t>(n));
  detail.set("tu_per_s", result.opsPerSecond);
  detail.set("tu_p50_ms", result.p50Ms);
  detail.set("tu_tail_ms", result.tailMs);
  detail.set("passes",
             static_cast<double>(plain.ops) / static_cast<double>(n));
  detail.set("oracle_sampled", static_cast<std::uint64_t>(sample.size()));
  detail.set("oracle_failed", oracleFailures);
  detail.set("check_findings", findings.load());
  return result;
}

} // namespace perfbench
