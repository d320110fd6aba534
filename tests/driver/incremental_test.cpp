// IncrementalProject coverage: the long-lived replanner must produce
// byte-identical outputs to a one-shot ProjectSession, reuse everything on
// an unchanged request (zero pipeline stage runs), replan exactly the
// edited TU on a comment edit, replan exactly {edited TU, importers} on a
// summary-visible fact edit, and fall back to a full plan after
// invalidate(). Uses the generator's scale projects as the fixture: a flat
// call graph where main imports every stage's summary.
#include "driver/incremental.hpp"

#include "driver/project.hpp"
#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace ompdart {
namespace {

constexpr std::uint64_t kSeed = 11;
constexpr unsigned kTuCount = 6;

std::vector<ProjectTu> scaleTus(std::uint64_t seed, unsigned tuCount) {
  const gen::GeneratedProgram program =
      gen::generateScaleProject(seed, tuCount);
  std::vector<ProjectTu> tus;
  tus.reserve(program.tus.size());
  for (const gen::GeneratedTu &tu : program.tus)
    tus.push_back(ProjectTu{tu.name, tu.name, tu.source});
  return tus;
}

PipelineConfig interprocConfig() {
  PipelineConfig config;
  config.planner.interprocedural = true;
  return config;
}

/// Outputs of a fresh one-shot ProjectSession over the same TUs — the
/// ground truth every replan must reproduce byte-for-byte.
std::map<std::string, std::string>
oneShotOutputs(const std::vector<ProjectTu> &tus) {
  ProjectManifest manifest;
  manifest.name = "scale";
  manifest.tus = tus;
  ProjectSession session(std::move(manifest), interprocConfig());
  EXPECT_TRUE(session.run());
  std::map<std::string, std::string> outputs;
  for (const ProjectItem &item : session.items())
    outputs[item.name] = item.output;
  return outputs;
}

unsigned totalStageRuns(const IncrementalResult &result) {
  unsigned total = 0;
  for (unsigned runs : result.stageRuns)
    total += runs;
  return total;
}

std::vector<std::string>
importsRebuiltNames(const IncrementalResult &result) {
  std::vector<std::string> names;
  for (const IncrementalTuResult &tu : result.tus)
    if (tu.importsRebuilt)
      names.push_back(tu.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> replannedNames(const IncrementalResult &result) {
  std::vector<std::string> names;
  for (const IncrementalTuResult &tu : result.tus)
    if (tu.replanned())
      names.push_back(tu.name);
  std::sort(names.begin(), names.end());
  return names;
}

TEST(IncrementalProjectTest, InitialReplanMatchesOneShotProjectSession) {
  const std::vector<ProjectTu> tus = scaleTus(kSeed, kTuCount);
  const std::map<std::string, std::string> expected = oneShotOutputs(tus);

  IncrementalProject project(interprocConfig());
  const IncrementalResult result = project.replan(tus);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.tus.size(), tus.size());
  EXPECT_EQ(result.tusReplanned, kTuCount);
  EXPECT_EQ(result.tusReused, 0u);
  EXPECT_FALSE(result.linkReused);
  EXPECT_EQ(result.importsRebuilt, kTuCount);
  EXPECT_EQ(project.heldTus(), tus.size());
  for (const IncrementalTuResult &tu : result.tus) {
    EXPECT_EQ(tu.reason, ReplanReason::Initial) << tu.name;
    ASSERT_TRUE(expected.count(tu.name)) << tu.name;
    EXPECT_EQ(tu.item->output, expected.at(tu.name)) << tu.name;
  }
}

TEST(IncrementalProjectTest, UnchangedRequestReusesEverything) {
  const std::vector<ProjectTu> tus = scaleTus(kSeed, kTuCount);
  IncrementalProject project(interprocConfig());
  const IncrementalResult cold = project.replan(tus);
  ASSERT_TRUE(cold.success);

  const IncrementalResult warm = project.replan(tus);
  ASSERT_TRUE(warm.success);
  EXPECT_EQ(warm.tusReplanned, 0u);
  EXPECT_EQ(warm.tusReused, kTuCount);
  EXPECT_EQ(warm.summariesExtracted, 0u);
  EXPECT_EQ(warm.summariesReused, kTuCount);
  // The observable proof the replan was incremental: zero pipeline stage
  // executions anywhere.
  EXPECT_EQ(totalStageRuns(warm), 0u);
  EXPECT_TRUE(warm.linkReused);
  EXPECT_EQ(warm.importsRebuilt, 0u);
  for (const IncrementalTuResult &tu : warm.tus) {
    EXPECT_EQ(tu.reason, ReplanReason::Reused) << tu.name;
    EXPECT_TRUE(tu.summaryReused) << tu.name;
    const IncrementalTuResult *coldTu = cold.find(tu.name);
    ASSERT_NE(coldTu, nullptr);
    EXPECT_EQ(tu.item->output, coldTu->item->output) << tu.name;
  }
}

TEST(IncrementalProjectTest, CommentEditReplansOnlyTheEditedTu) {
  std::vector<ProjectTu> tus = scaleTus(kSeed, kTuCount);
  IncrementalProject project(interprocConfig());
  ASSERT_TRUE(project.replan(tus).success);

  // A comment changes the source hash but not the summary, so the import
  // edge into main stays quiet.
  const unsigned editIndex = 2;
  tus[editIndex].source += "/* touched */\n";
  const IncrementalResult result = project.replan(tus);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.tusReplanned, 1u);
  EXPECT_EQ(result.tusReused, kTuCount - 1);
  EXPECT_EQ(replannedNames(result),
            std::vector<std::string>{tus[editIndex].name});
  const IncrementalTuResult *edited = result.find(tus[editIndex].name);
  ASSERT_NE(edited, nullptr);
  EXPECT_EQ(edited->reason, ReplanReason::SourceChanged);

  // Cost follows the edit: the summary came out equal, so no link ran and
  // no import slice was rebuilt.
  EXPECT_TRUE(result.linkReused);
  EXPECT_EQ(result.linkPasses, 0u);
  EXPECT_EQ(result.importsRebuilt, 0u);
  const json::Value reply = result.toJson();
  EXPECT_TRUE(reply.boolOr("linkReused"));
  EXPECT_EQ(reply.uintOr("importsRebuilt"), 0u);
  ASSERT_NE(reply.find("phaseSeconds"), nullptr);
  for (const char *phase : {"summaries", "link", "imports", "plan", "fold"})
    EXPECT_NE(reply.find("phaseSeconds")->find(phase), nullptr) << phase;

  // The replanned output still matches a fresh one-shot over the edited
  // set.
  const std::map<std::string, std::string> expected = oneShotOutputs(tus);
  for (const IncrementalTuResult &tu : result.tus)
    EXPECT_EQ(tu.item->output, expected.at(tu.name)) << tu.name;

  // The flip-back is the same kind of edit: the link and every slice are
  // reused again.
  tus[editIndex] = scaleTus(kSeed, kTuCount)[editIndex];
  const IncrementalResult flipBack = project.replan(tus);
  ASSERT_TRUE(flipBack.success);
  EXPECT_EQ(replannedNames(flipBack),
            std::vector<std::string>{tus[editIndex].name});
  EXPECT_TRUE(flipBack.linkReused);
  EXPECT_EQ(flipBack.importsRebuilt, 0u);
}

TEST(IncrementalProjectTest, FactEditReplansEditedTuAndItsImporters) {
  std::vector<ProjectTu> tus = scaleTus(kSeed, kTuCount);
  IncrementalProject project(interprocConfig());
  ASSERT_TRUE(project.replan(tus).success);

  // Odd variant flips the edited stage's kernel access effects — a
  // summary-visible fact — so main (which imports every stage summary)
  // must replan too, and nothing else.
  const unsigned editIndex = 3;
  const gen::GeneratedTu edited =
      gen::generateScaleTu(kSeed, editIndex, kTuCount, /*variant=*/1);
  ASSERT_NE(edited.source, tus[editIndex].source);
  tus[editIndex].source = edited.source;

  const IncrementalResult result = project.replan(tus);
  ASSERT_TRUE(result.success);
  std::vector<std::string> expectNames{tus[0].name, tus[editIndex].name};
  std::sort(expectNames.begin(), expectNames.end());
  EXPECT_EQ(replannedNames(result), expectNames);
  EXPECT_EQ(result.tusReplanned, 2u);
  EXPECT_EQ(result.tusReused, kTuCount - 2);
  // Only the edited TU's summary was re-extracted; main's source did not
  // change.
  EXPECT_EQ(result.summariesExtracted, 1u);
  EXPECT_EQ(result.find(tus[editIndex].name)->reason,
            ReplanReason::SourceChanged);
  EXPECT_EQ(result.find(tus[0].name)->reason, ReplanReason::ImportsChanged);
  // The link reran, and only main's import slice (it imports the edited
  // stage's closed summary) changed and was sealed anew. The edited TU
  // imports only facts of main's call sites, which are unchanged: it
  // replans for its own source and keeps its held slice.
  EXPECT_FALSE(result.linkReused);
  EXPECT_GT(result.linkPasses, 0u);
  const std::vector<std::string> mainOnly{tus[0].name};
  EXPECT_EQ(importsRebuiltNames(result), mainOnly);
  EXPECT_EQ(result.importsRebuilt, 1u);
  EXPECT_EQ(result.toJson().uintOr("importsRebuilt"), 1u);

  const std::map<std::string, std::string> expected = oneShotOutputs(tus);
  for (const IncrementalTuResult &tu : result.tus)
    EXPECT_EQ(tu.item->output, expected.at(tu.name)) << tu.name;

  // The flip-back changes main's slice back, and only main's.
  tus[editIndex] = scaleTus(kSeed, kTuCount)[editIndex];
  const IncrementalResult flipBack = project.replan(tus);
  ASSERT_TRUE(flipBack.success);
  EXPECT_EQ(replannedNames(flipBack), expectNames);
  EXPECT_FALSE(flipBack.linkReused);
  EXPECT_EQ(importsRebuiltNames(flipBack), mainOnly);
}

TEST(IncrementalProjectTest, InvalidateForcesAFullReplan) {
  const std::vector<ProjectTu> tus = scaleTus(kSeed, kTuCount);
  IncrementalProject project(interprocConfig());
  ASSERT_TRUE(project.replan(tus).success);
  ASSERT_EQ(project.heldTus(), tus.size());

  project.invalidate();
  EXPECT_EQ(project.heldTus(), 0u);
  const IncrementalResult result = project.replan(tus);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.tusReplanned, kTuCount);
  for (const IncrementalTuResult &tu : result.tus)
    EXPECT_EQ(tu.reason, ReplanReason::Initial) << tu.name;
}

TEST(IncrementalProjectTest, DroppedAndAddedTusAreHandledByName) {
  std::vector<ProjectTu> tus = scaleTus(kSeed, kTuCount);
  IncrementalProject project(interprocConfig());
  ASSERT_TRUE(project.replan(tus).success);

  // Shrink the project by one stage: the dropped TU leaves held state,
  // main replans because its imports lost that stage's summary.
  std::vector<ProjectTu> smaller = scaleTus(kSeed, kTuCount - 1);
  const IncrementalResult result = project.replan(smaller);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(project.heldTus(), smaller.size());
  const IncrementalTuResult *mainTu = result.find(smaller[0].name);
  ASSERT_NE(mainTu, nullptr);
  // Main's own source names one fewer stage, so it is a source edit.
  EXPECT_EQ(mainTu->reason, ReplanReason::SourceChanged);

  const std::map<std::string, std::string> expected =
      oneShotOutputs(smaller);
  for (const IncrementalTuResult &tu : result.tus)
    EXPECT_EQ(tu.item->output, expected.at(tu.name)) << tu.name;
}

TEST(IncrementalProjectTest, WorkerPoolMatchesSequentialOutputs) {
  const std::vector<ProjectTu> tus = scaleTus(kSeed + 1, kTuCount + 2);

  IncrementalProject sequential(interprocConfig());
  const IncrementalResult seqResult = sequential.replan(tus);
  ASSERT_TRUE(seqResult.success);

  IncrementalProject::Options options;
  options.threads = 4;
  IncrementalProject threaded(interprocConfig(), options);
  const IncrementalResult thrResult = threaded.replan(tus);
  ASSERT_TRUE(thrResult.success);

  ASSERT_EQ(thrResult.tus.size(), seqResult.tus.size());
  for (const IncrementalTuResult &tu : thrResult.tus) {
    const IncrementalTuResult *seqTu = seqResult.find(tu.name);
    ASSERT_NE(seqTu, nullptr);
    EXPECT_EQ(tu.item->output, seqTu->item->output) << tu.name;
  }
}

} // namespace
} // namespace ompdart
