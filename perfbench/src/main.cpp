// Repository benchmark driver.
//
//   perfbench --workload <cold_batch|serve_mixed|project_edit|all>
//             --seed <n> --seconds <n> --trace <0|1>
//             [--work-dir <dir>] [--trace-dir <dir>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// Prints a human-readable summary, then one `{"detail": ...}` line with run
// metadata and the workload's own named figures, then, as the last line,
// the result object {"correct", "attempted", "failed", "metrics"}. With
// `--trace 0` the metrics are the end-to-end metrics of the untraced timed
// phase; with `--trace 1` they are the per-layer metrics of the traced run.
// perfbench/run.py builds this binary and forwards its arguments.
#include "bench.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

namespace {

using namespace perfbench;

struct MetricSpec {
  const char *name;
  const char *unit;
};

/// Every per-layer metric, in output order. Busy times ("cpu_s") are span
/// self-times summed across worker threads; a metric of a layer that the
/// workload does not exercise reads 0.
const MetricSpec kPerLayer[] = {
    {"frontend.parse_s", "cpu_s"},
    {"frontend.tokens_per_s", "1/s"},
    {"cfg.build_s", "cpu_s"},
    {"analysis.interproc_s", "cpu_s"},
    {"mapping.plan_s", "cpu_s"},
    {"check.check_s", "cpu_s"},
    {"rewrite.rewrite_s", "cpu_s"},
    {"driver.session_s", "cpu_s"},
    {"mapping.regions", "count"},
    {"mapping.ir_items", "count"},
    {"mapping.plan_us_per_region", "us"},
    {"check.us_per_region", "us"},
    {"check.findings", "count"},
    {"analysis.summary_extract_s", "cpu_s"},
    {"analysis.link_s", "cpu_s"},
    {"analysis.link_passes", "count"},
    {"driver.replan_s", "cpu_s"},
    {"driver.tus_replanned", "count"},
    {"driver.summaries_extracted", "count"},
    {"cache.hit_ratio", "frac"},
    {"cache.memo_hit_ratio", "frac"},
    {"cache.lookup_hit_us", "us"},
    {"cache.lookup_miss_us", "us"},
    {"cache.store_us", "us"},
    {"server.handle_us", "us"},
    {"server.transport_us", "us"},
    {"server.frame_mb_per_s", "MB/s"},
    {"interp.unoptimized.run_s", "cpu_s"},
    {"interp.ompdart.run_s", "cpu_s"},
    {"interp.expert.run_s", "cpu_s"},
    {"interp.ops_per_s", "1/s"},
    {"sim.unoptimized.bytes_htod", "bytes"},
    {"sim.unoptimized.bytes_dtoh", "bytes"},
    {"sim.unoptimized.calls", "count"},
    {"sim.ompdart.bytes_htod", "bytes"},
    {"sim.ompdart.bytes_dtoh", "bytes"},
    {"sim.ompdart.calls", "count"},
    {"sim.expert.bytes_htod", "bytes"},
    {"sim.expert.bytes_dtoh", "bytes"},
    {"sim.expert.calls", "count"},
    {"exp.accuracy_s", "s"},
    {"exp.ace_s", "s"},
    {"exp.backprop_s", "s"},
    {"exp.bfs_s", "s"},
    {"exp.clenergy_s", "s"},
    {"exp.hotspot_s", "s"},
    {"exp.lulesh_s", "s"},
    {"exp.nw_s", "s"},
    {"exp.xsbench_s", "s"},
    {"frontend.cpu_share", "cpu_s/s"},
    {"cfg.cpu_share", "cpu_s/s"},
    {"analysis.cpu_share", "cpu_s/s"},
    {"mapping.cpu_share", "cpu_s/s"},
    {"check.cpu_share", "cpu_s/s"},
    {"rewrite.cpu_share", "cpu_s/s"},
    {"cache.cpu_share", "cpu_s/s"},
    {"server.cpu_share", "cpu_s/s"},
    {"driver.cpu_share", "cpu_s/s"},
    {"interp.cpu_share", "cpu_s/s"},
    {"sim.cpu_share", "cpu_s/s"},
    {"trace.overhead", "frac"},
    {"trace.spans", "count"},
};

struct Workload {
  const char *name;
  WorkloadResult (*run)(const RunOptions &);
};

const Workload kWorkloads[] = {
    {"cold_batch", runColdBatch},
    {"serve_mixed", runServeMixed},
    {"project_edit", runProjectEdit},
};

[[noreturn]] void usage(const char *message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> --seed "
               "<n> --seconds <n> --trace <0|1> [--work-dir <dir>] "
               "[--trace-dir <dir>] [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               message);
  std::exit(2);
}

std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

json::Value metric(double value, const char *unit) {
  json::Value entry = json::Value::object();
  entry.set("value", value);
  entry.set("unit", unit);
  return entry;
}

/// Adds one workload's metrics to `metrics`, names prefixed by `prefix`.
void addMetrics(const WorkloadResult &result, bool trace,
                const std::string &prefix, json::Value *metrics) {
  if (!trace) {
    metrics->set(prefix + "setup_s", metric(result.setupSeconds, "s"));
    metrics->set(prefix + "peak_rss_mb", metric(result.peakRssMb, "MB"));
    metrics->set(prefix + "ops_per_s", metric(result.opsPerSecond, "1/s"));
    metrics->set(prefix + "p50_ms", metric(result.p50Ms, "ms"));
    metrics->set(prefix + "tail_ms", metric(result.tailMs, "ms"));
    return;
  }
  for (const MetricSpec &spec : kPerLayer) {
    const auto it = result.layers.find(spec.name);
    metrics->set(prefix + spec.name,
                 metric(it == result.layers.end() ? 0.0 : it->second,
                        spec.unit));
  }
}

void printSummary(const char *name, const WorkloadResult &result,
                  bool trace) {
  const double n = static_cast<double>(result.samples);
  std::printf("%s: %llu attempted, %llu failed (failed_frac %.6f)\n", name,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0);
  std::printf("  setup %.4f s (median of %u) | %.2f ops/s | p50 %.4f ms | "
              "p%g %.4f ms (medians of %u windows) over %.0f samples (%.0f "
              "beyond the tail)\n",
              result.setupSeconds, kSetupReps, result.opsPerSecond,
              result.p50Ms, result.tailPercentile, result.tailMs,
              result.windows, n, n * (1.0 - result.tailPercentile / 100.0));
  if (trace)
    for (const MetricSpec &spec : kPerLayer) {
      const auto it = result.layers.find(spec.name);
      if (it != result.layers.end() && it->second != 0.0)
        std::printf("  %-28s %14.6g %s\n", spec.name, it->second, spec.unit);
    }
}

} // namespace

int main(int argc, char **argv) {
  RunOptions options;
  std::string workload, traceDir, gitSha = "unknown", sourceDigest = "unknown";
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc)
      usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      haveSeed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
      haveSeconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        usage("--trace takes 0 or 1");
      options.trace = value == "1";
      haveTrace = true;
    } else if (arg == "--work-dir") {
      options.workDir = value;
    } else if (arg == "--trace-dir") {
      traceDir = value;
    } else if (arg == "--git-sha") {
      gitSha = value;
    } else if (arg == "--source-digest") {
      sourceDigest = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  if (options.workDir.empty())
    options.workDir = ".bench_build/run-" + std::to_string(::getpid());
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  options.threads = std::min(4u, hardware);

  std::vector<const Workload *> selected;
  for (const Workload &candidate : kWorkloads)
    if (workload == "all" || workload == candidate.name)
      selected.push_back(&candidate);
  if (selected.empty())
    usage(("unknown workload " + workload).c_str());

  json::Value meta = json::Value::object();
  meta.set("git_sha", gitSha);
  meta.set("source_digest", sourceDigest);
  meta.set("cpu_model", cpuModel());
  meta.set("nproc", hardware);
  meta.set("threads_used", options.threads);
  meta.set("build_type", PERFBENCH_BUILD_TYPE);
  meta.set("seed", options.seed);
  meta.set("seconds", options.seconds);
  meta.set("trace", options.trace);

  bool ok = true;
  std::uint64_t attempted = 0, failed = 0;
  json::Value metrics = json::Value::object();
  json::Value details = json::Value::object();
  {
    ScratchDir work(options.workDir);
    for (const Workload *entry : selected) {
      RunOptions runOptions = options;
      runOptions.workDir = work.file(entry->name);
      resetPeakRss();
      WorkloadResult result = entry->run(runOptions);
      printSummary(entry->name, result, options.trace);
      attempted += result.attempted;
      failed += result.failed;
      ok = ok && result.failed == 0 && result.attempted > 0;
      const std::string prefix =
          selected.size() > 1 ? std::string(entry->name) + "/" : "";
      addMetrics(result, options.trace, prefix, &metrics);
      result.detail.set("tail_percentile", result.tailPercentile);
      result.detail.set("samples", static_cast<std::uint64_t>(result.samples));
      result.detail.set("windows", result.windows);
      details.set(entry->name, std::move(result.detail));
      if (options.trace && !traceDir.empty()) {
        const std::string path = traceDir + "/" + entry->name + "-seed" +
                                 std::to_string(options.seed) + ".json";
        if (!Tracer::write(path, 20000))
          std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
      Tracer::reset();
    }
  }

  json::Value detailLine = json::Value::object();
  meta.set("workloads", std::move(details));
  detailLine.set("detail", std::move(meta));
  std::printf("%s\n", detailLine.dump().c_str());

  json::Value resultLine = json::Value::object();
  resultLine.set("correct", ok);
  resultLine.set("attempted", attempted);
  resultLine.set("failed", failed);
  resultLine.set("metrics", std::move(metrics));
  std::printf("%s\n", resultLine.dump().c_str());
  std::fflush(stdout);
  return 0;
}
