// Cold-path per-stage benchmark + byte-identity gate.
//
// Runs the nine-benchmark suite plus a 500-seed generated corpus through
// the batch driver with the plan cache OFF — every session pays the full
// parse -> cfg -> interproc -> plan -> check -> rewrite pipeline — and
// records per-stage wall time (best of OMPDART_COLD_REPS passes, default 3)
// plus a deterministic identity digest over every plan fingerprint,
// diagnostic and rewritten source. The digest is the refactor safety net:
// two builds that produce the same digest produced byte-identical plans,
// reports and rewrites for all 509 inputs. The corpus and the digest live
// in the library (driver/batch.hpp); the tier-1 test
// IdentityDigestTest.ColdCorpusDigestIsPinned pins the digest too.
//
// Usage: bench_cold [baseline BENCH_cold.json]
//
// With a baseline the run gates on (a) digest equality (the byte-identity
// gate) and (b) cold wall time <= baseline * OMPDART_COLD_GATE_FACTOR
// (default 1.15; CI's regression gate). Per-stage speedups vs the baseline
// are reported either way. Writes BENCH_cold.json.
#include "driver/batch.hpp"
#include "support/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

double stageOf(const ompdart::BatchStats &stats, ompdart::Stage stage) {
  return stats.stageSeconds[static_cast<unsigned>(stage)];
}

double envFactor(const char *name, double fallback) {
  const char *raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0')
    return fallback;
  return std::atof(raw);
}

} // namespace

int main(int argc, char **argv) {
  using ompdart::BatchDriver;
  using ompdart::Stage;
  namespace json = ompdart::json;

  const unsigned reps = static_cast<unsigned>(
      std::max(1.0, envFactor("OMPDART_COLD_REPS", 3.0)));
  const double gateFactor = envFactor("OMPDART_COLD_GATE_FACTOR", 1.15);

  const auto jobs = ompdart::coldJobs();

  BatchDriver::Options options;
  options.config.cacheMode = ompdart::cache::CacheMode::Off;
  options.config.includeOutputInReport = false;
  BatchDriver driver(options);

  bool ok = true;
  bool deterministic = true;
  std::string digest;
  ompdart::BatchResult best;
  for (unsigned rep = 0; rep < reps; ++rep) {
    ompdart::BatchResult result = driver.run(jobs);
    const std::string repDigest = ompdart::identityDigest(result);
    if (rep == 0)
      digest = repDigest;
    else if (repDigest != digest) {
      std::fprintf(stderr, "identity digest differs between passes\n");
      deterministic = false;
      ok = false;
    }
    if (result.stats.succeeded != result.stats.jobs) {
      std::fprintf(stderr, "cold pass had failures (%u/%u succeeded)\n",
                   result.stats.succeeded, result.stats.jobs);
      ok = false;
    }
    if (rep == 0 || result.stats.wallSeconds < best.stats.wallSeconds)
      best = std::move(result);
  }

  const double parseS = stageOf(best.stats, Stage::Parse);
  const double cfgS = stageOf(best.stats, Stage::Cfg);
  const double interprocS = stageOf(best.stats, Stage::Interproc);
  const double planS = stageOf(best.stats, Stage::Plan);
  const double checkS = stageOf(best.stats, Stage::Check);
  const double rewriteS = stageOf(best.stats, Stage::Rewrite);

  std::printf("cold pipeline over %u inputs (9 benchmarks + %u-seed corpus),"
              " best of %u passes\n",
              best.stats.jobs, ompdart::kColdCorpusSeeds, reps);
  std::printf("  wall %.4f s | cpu %.4f s | threads %u\n",
              best.stats.wallSeconds, best.stats.cpuSeconds,
              best.stats.threads);
  std::printf("  parse %.4f s | cfg %.4f s | interproc %.4f s | plan %.4f s"
              " | check %.4f s | rewrite %.4f s\n",
              parseS, cfgS, interprocS, planS, checkS, rewriteS);
  std::printf("  identity digest %s\n", digest.c_str());

  json::Value doc = json::Value::object();
  doc.set("suiteInputs", 9);
  doc.set("corpusSeeds", ompdart::kColdCorpusSeeds);
  doc.set("reps", reps);
  doc.set("wallSeconds", best.stats.wallSeconds);
  doc.set("cpuSeconds", best.stats.cpuSeconds);
  doc.set("threads", best.stats.threads);
  json::Value stages = json::Value::object();
  stages.set("parse", parseS);
  stages.set("cfg", cfgS);
  stages.set("interproc", interprocS);
  stages.set("plan", planS);
  stages.set("check", checkS);
  stages.set("rewrite", rewriteS);
  doc.set("stages", stages);
  doc.set("identityDigest", digest);
  doc.set("deterministic", deterministic);

  // Baseline comparison: byte identity + wall-regression gate + speedups.
  if (argc > 1) {
    std::ifstream in(argv[1]);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto parsed = json::Value::parse(buffer.str(), &error);
    if (!in || !parsed.has_value()) {
      std::fprintf(stderr, "cannot read baseline %s: %s\n", argv[1],
                   error.c_str());
      ok = false;
    } else {
      const json::Value &base = *parsed;
      const std::string baseDigest = base.stringOr("identityDigest");
      const double baseWall = base.doubleOr("wallSeconds");
      const json::Value *baseStages = base.find("stages");
      const double baseParse =
          baseStages != nullptr ? baseStages->doubleOr("parse") : 0.0;
      const double basePlan =
          baseStages != nullptr ? baseStages->doubleOr("plan") : 0.0;

      const bool identical = !baseDigest.empty() && baseDigest == digest;
      if (!identical) {
        std::fprintf(stderr,
                     "byte-identity gate FAILED: digest %s != baseline %s\n",
                     digest.c_str(), baseDigest.c_str());
        ok = false;
      }
      const bool withinBudget =
          baseWall <= 0.0 || best.stats.wallSeconds <= baseWall * gateFactor;
      if (!withinBudget) {
        std::fprintf(stderr,
                     "regression gate FAILED: wall %.4f s > baseline %.4f s"
                     " * %.2f\n",
                     best.stats.wallSeconds, baseWall, gateFactor);
        ok = false;
      }

      const double parseSpeedup = parseS > 0.0 ? baseParse / parseS : 0.0;
      const double planSpeedup = planS > 0.0 ? basePlan / planS : 0.0;
      const double parsePlusPlanSpeedup =
          parseS + planS > 0.0 ? (baseParse + basePlan) / (parseS + planS)
                               : 0.0;
      const double wallSpeedup = best.stats.wallSeconds > 0.0
                                     ? baseWall / best.stats.wallSeconds
                                     : 0.0;
      std::printf("  vs baseline: parse %.2fx | plan %.2fx |"
                  " parse+plan %.2fx | wall %.2fx | byte-identical %s\n",
                  parseSpeedup, planSpeedup, parsePlusPlanSpeedup,
                  wallSpeedup, identical ? "yes" : "NO");

      json::Value baseline = json::Value::object();
      baseline.set("file", std::string(argv[1]));
      baseline.set("wallSeconds", baseWall);
      baseline.set("parseSeconds", baseParse);
      baseline.set("planSeconds", basePlan);
      baseline.set("identityDigest", baseDigest);
      doc.set("baseline", baseline);
      json::Value speedup = json::Value::object();
      speedup.set("parse", parseSpeedup);
      speedup.set("plan", planSpeedup);
      speedup.set("parsePlusPlan", parsePlusPlanSpeedup);
      speedup.set("wall", wallSpeedup);
      doc.set("speedupVsBaseline", speedup);
      doc.set("byteIdentical", identical);
      doc.set("withinRegressionBudget", withinBudget);
    }
  }

  doc.set("allGatesPassed", ok);
  std::ofstream out("BENCH_cold.json");
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("wrote BENCH_cold.json\n");
  return ok ? 0 : 1;
}
