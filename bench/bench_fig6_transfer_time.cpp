// Regenerates paper Figure 6: improvements in data-transfer wall time over
// the unoptimized variant (modeled: bytes/bandwidth + per-call latency).
// Also writes BENCH_plan_cost.json comparing the cost model's static
// prediction of the plan's transfer bytes against the bytes the simulated
// runtime actually moved per benchmark.
#include "exp/experiment.hpp"
#include "support/json.hpp"

#include <cstdio>
#include <fstream>

int main() {
  const auto results = ompdart::exp::runAllBenchmarks();
  std::printf("%s", ompdart::exp::renderFigure6(results).c_str());

  ompdart::json::Value doc = ompdart::json::Value::object();
  ompdart::json::Value rows = ompdart::json::Value::array();
  for (const auto &cmp : results) {
    ompdart::json::Value row = ompdart::json::Value::object();
    row.set("benchmark", cmp.name);
    // Static prediction: one execution of the planned regions.
    row.set("predictedBytes", cmp.predictedPlanBytes);
    // Simulated ledger of the OMPDart variant (all region executions).
    row.set("simulatedBytes", cmp.ompdart.totalBytes());
    row.set("simulatedBytesHtoD", cmp.ompdart.bytesHtoD);
    row.set("simulatedBytesDtoH", cmp.ompdart.bytesDtoH);
    row.set("ratio", cmp.predictedPlanBytes > 0
                         ? static_cast<double>(cmp.ompdart.totalBytes()) /
                               static_cast<double>(cmp.predictedPlanBytes)
                         : 0.0);
    rows.push(std::move(row));
  }
  doc.set("planCost", std::move(rows));
  std::ofstream out("BENCH_plan_cost.json");
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nwrote BENCH_plan_cost.json (cost-model predicted vs "
              "simulated transfer bytes)\n");
  return 0;
}
