// PlanConsumer backend tests: required-input validation, JSON/source
// backends against the Session artifacts, the ApplyToInterpBackend
// equivalence with the rewrite→reparse path (including a serialized-IR
// round-trip in the middle).
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "mapping/backend.hpp"

#include <gtest/gtest.h>

namespace ompdart {
namespace {

const char *const kProgram = R"(double data[64];
int stop[1];
int main() {
  stop[0] = 0;
  for (int i = 0; i < 64; ++i) data[i] = i * 0.5;
  while (stop[0] == 0) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 64; ++i) {
      data[i] = data[i] + 1.0;
      if (data[i] > 40.0) stop[0] = 1;
    }
  }
  printf("%.3f\n", data[0]);
  return 0;
}
)";

TEST(PlanConsumerTest, BackendsReportMissingInputs) {
  SourceRewriteBackend rewrite;
  EXPECT_FALSE(rewrite.consume(PlanConsumerInput{}));
  EXPECT_FALSE(rewrite.error().empty());

  ir::MappingIr ir;
  PlanConsumerInput onlyIr;
  onlyIr.ir = &ir;
  SourceRewriteBackend rewriteNoSource;
  EXPECT_FALSE(rewriteNoSource.consume(onlyIr));

  ApplyToInterpBackend interpBackend;
  EXPECT_FALSE(interpBackend.consume(onlyIr)); // needs the parsed unit
  EXPECT_FALSE(interpBackend.error().empty());

  JsonBackend jsonBackend;
  EXPECT_TRUE(jsonBackend.consume(onlyIr)); // IR alone suffices
}

TEST(PlanConsumerTest, JsonBackendEmitsTheCanonicalIrSchema) {
  Session session("prog.c", kProgram);
  ASSERT_TRUE(session.run());
  JsonBackend backend;
  PlanConsumerInput input;
  input.ir = &session.ir();
  ASSERT_TRUE(backend.consume(input));
  // Identical document to the IR's own serialization (single schema).
  EXPECT_EQ(backend.value().dump(), session.ir().toJson().dump());
  // ... which is also what the Report embeds under "plan".
  const json::Value reportJson = session.report().toJson();
  const json::Value *planJson = reportJson.find("plan");
  ASSERT_NE(planJson, nullptr);
  EXPECT_EQ(planJson->dump(), backend.value().dump());
}

TEST(PlanConsumerTest, SourceRewriteBackendMatchesSessionRewrite) {
  Session session("prog.c", kProgram);
  ASSERT_TRUE(session.run());
  SourceRewriteBackend backend;
  PlanConsumerInput input;
  input.ir = &session.ir();
  input.source = &session.sourceManager();
  ASSERT_TRUE(backend.consume(input)) << backend.error();
  EXPECT_EQ(backend.transformedSource(), session.rewrite());
}

TEST(PlanConsumerTest, ApplyToInterpMatchesRewriteReparsePath) {
  Session session("prog.c", kProgram);
  ASSERT_TRUE(session.run());

  // Path A: rewrite, reparse, interpret.
  const interp::RunResult viaRewrite = interp::runProgram(session.rewrite());
  ASSERT_TRUE(viaRewrite.ok) << viaRewrite.error;

  // Path B: serialize the IR, restore it, apply to the parsed unit. The
  // serialization round-trip proves the overlay works from a cached plan.
  const auto parsed = json::Value::parse(session.ir().toJson().dump());
  ASSERT_TRUE(parsed.has_value());
  const auto restored = ir::MappingIr::fromJson(*parsed);
  ASSERT_TRUE(restored.has_value());

  ApplyToInterpBackend backend;
  PlanConsumerInput input;
  input.ir = &*restored;
  input.source = &session.sourceManager();
  input.unit = &session.parse().unit();
  ASSERT_TRUE(backend.consume(input)) << backend.error();
  const interp::RunResult &viaOverlay = backend.result();
  ASSERT_TRUE(viaOverlay.ok) << viaOverlay.error;

  EXPECT_EQ(viaOverlay.output, viaRewrite.output);
  EXPECT_EQ(viaOverlay.ledger.bytes(sim::TransferDir::HtoD),
            viaRewrite.ledger.bytes(sim::TransferDir::HtoD));
  EXPECT_EQ(viaOverlay.ledger.bytes(sim::TransferDir::DtoH),
            viaRewrite.ledger.bytes(sim::TransferDir::DtoH));
  EXPECT_EQ(viaOverlay.ledger.calls(sim::TransferDir::HtoD),
            viaRewrite.ledger.calls(sim::TransferDir::HtoD));
  EXPECT_EQ(viaOverlay.ledger.calls(sim::TransferDir::DtoH),
            viaRewrite.ledger.calls(sim::TransferDir::DtoH));
  EXPECT_EQ(viaOverlay.ledger.kernelLaunches(),
            viaRewrite.ledger.kernelLaunches());
}

} // namespace
} // namespace ompdart
