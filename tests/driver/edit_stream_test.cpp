// Edit-stream safety net for the incremental replanner: a seeded stream of
// edits runs through ONE long-lived IncrementalProject, and after every op
// each TU's output and success must match a cold one-shot ProjectSession
// over the same sources, byte for byte. The replanned set must follow the
// reuse rule the plan-cache key encodes: a TU replans exactly when its name
// is new, its source changed, or its imports fingerprint changed.
//
// Ops: comment edits (appended, which moves no line, and prepended, which
// shifts every line of the TU), fact edits, flip-backs to the original
// source, a dropped TU, an added TU (a dropped one coming back, or an extra
// TU with a static function and a cross-TU call) and a renamed file (same
// name, new path, so held summaries are rebound).
#include "driver/incremental.hpp"

#include "driver/project.hpp"
#include "gen/generator.hpp"
#include "suite/benchmarks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ompdart {
namespace {

constexpr std::uint64_t kSeed = 29;
constexpr unsigned kScaleTus = 8;
constexpr unsigned kOps = 40;

enum class Op {
  CommentAppend,
  CommentPrepend,
  FactEdit,
  FlipBack,
  Drop,
  Add,
  Rename,
};

const char *opName(Op op) {
  switch (op) {
  case Op::CommentAppend:
    return "comment-append";
  case Op::CommentPrepend:
    return "comment-prepend";
  case Op::FactEdit:
    return "fact-edit";
  case Op::FlipBack:
    return "flip-back";
  case Op::Drop:
    return "drop";
  case Op::Add:
    return "add";
  case Op::Rename:
    return "rename";
  }
  return "?";
}

/// Every kind appears four times in a 40-op stream; targets are seeded.
constexpr Op kSchedule[] = {Op::CommentAppend, Op::FactEdit,
                            Op::FlipBack,      Op::CommentPrepend,
                            Op::Rename,        Op::FlipBack,
                            Op::Drop,          Op::FactEdit,
                            Op::Add,           Op::FlipBack};

struct Fixture {
  std::vector<ProjectTu> tus;
  /// Source of TU `index` after a fact edit (a summary-visible change).
  std::map<std::size_t, std::string> factEdits;
  /// A TU the original project does not have.
  ProjectTu extra;
};

std::string extraSource(const std::string &prototype,
                        const std::string &call) {
  return "double extra_buf[64];\n" + prototype +
         "\n"
         "static void extra_fill(double *p, int n) {\n"
         "  for (int i = 0; i < n; ++i) {\n"
         "    p[i] = i * 0.5;\n"
         "  }\n"
         "}\n"
         "void extra_entry() {\n"
         "  extra_fill(extra_buf, 64);\n"
         "  #pragma omp target teams distribute parallel for\n"
         "  for (int i = 0; i < 64; ++i) {\n"
         "    extra_buf[i] = extra_buf[i] + 1.0;\n"
         "  }\n"
         "  " +
         call + ";\n}\n";
}

Fixture scaleFixture() {
  Fixture fixture;
  for (const gen::GeneratedTu &tu :
       gen::generateScaleProject(kSeed, kScaleTus).tus)
    fixture.tus.push_back(ProjectTu{tu.name, tu.name, tu.source});
  for (unsigned k = 1; k < kScaleTus; ++k)
    fixture.factEdits[k] =
        gen::generateScaleTu(kSeed, k, kScaleTus, /*variant=*/1).source;
  fixture.extra = ProjectTu{"extra.c", "extra.c",
                            extraSource("void stage_2_init();",
                                        "stage_2_init()")};
  return fixture;
}

std::string replaceOnce(std::string text, const std::string &from,
                        const std::string &to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos)
    text.replace(at, from.size(), to);
  return text;
}

Fixture xsbenchFixture() {
  Fixture fixture;
  for (const suite::ProjectBenchmarkDef::Tu &tu :
       suite::xsbenchProject().tus)
    fixture.tus.push_back(ProjectTu{tu.name, tu.name, tu.source});
  // support: the stats helper starts writing its pointer parameter, so the
  // kernel TU's imported summary of it gains a host write.
  fixture.factEdits[1] =
      replaceOnce(fixture.tus[1].source, "checksum += res[l];",
                  "checksum += res[l];\n    res[l] = 0.0;");
  // kernel: the lookup kernel also writes energy_grid, which main's
  // imported summary of run_batches must show.
  fixture.factEdits[2] = replaceOnce(
      fixture.tus[2].source, "results[l] = results[l] * 0.5",
      "energy_grid[idx] = macro;\n      results[l] = results[l] * 0.5");
  fixture.extra = ProjectTu{
      "extra.c", "extra.c",
      extraSource("void accumulate_stats(double *res, int n);",
                  "accumulate_stats(extra_buf, 64)")};
  return fixture;
}

PipelineConfig interprocConfig() {
  PipelineConfig config;
  config.planner.interprocedural = true;
  return config;
}

/// What the reference needs to predict the next op's replanned set.
struct Previous {
  std::map<std::string, std::string> sources;
  std::map<std::string, std::string> importsFingerprints;
};

void runStream(const Fixture &fixture) {
  std::map<std::string, std::string> original;
  for (const ProjectTu &tu : fixture.tus)
    original[tu.name] = tu.source;
  original[fixture.extra.name] = fixture.extra.source;

  std::vector<ProjectTu> current = fixture.tus;
  std::vector<ProjectTu> dropped;
  gen::SplitMix64 rng(kSeed);
  IncrementalProject project(interprocConfig());
  Previous previous;

  auto pickTu = [&](std::size_t lowest) {
    return static_cast<std::size_t>(rng.pick(
        static_cast<int>(lowest), static_cast<int>(current.size()) - 1));
  };
  auto indexOf = [&](const std::string &name) {
    for (std::size_t i = 0; i < fixture.tus.size(); ++i)
      if (fixture.tus[i].name == name)
        return i;
    return fixture.tus.size();
  };

  for (unsigned opIndex = 0; opIndex <= kOps; ++opIndex) {
    // Op 0 is the initial full plan; the stream follows.
    std::string label = "initial";
    bool appendedComment = false;
    if (opIndex > 0) {
      Op op = kSchedule[(opIndex - 1) % std::size(kSchedule)];
      if (op == Op::Drop && current.size() <= 2)
        op = Op::CommentAppend;
      const auto extraAt =
          std::find_if(current.begin(), current.end(),
                       [&](const ProjectTu &tu) {
                         return tu.name == fixture.extra.name;
                       });
      const bool hasExtra = extraAt != current.end();
      if (op == Op::Add && dropped.empty() && hasExtra)
        op = Op::CommentPrepend;
      std::size_t target = pickTu(0);
      switch (op) {
      case Op::CommentAppend:
        current[target].source +=
            "/* edit " + std::to_string(opIndex) + " */\n";
        break;
      case Op::CommentPrepend:
        current[target].source = "// edit " + std::to_string(opIndex) +
                                 "\n\n" + current[target].source;
        break;
      case Op::FactEdit: {
        // Fact-edit a TU that has one (rotating through them).
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < current.size(); ++i)
          if (fixture.factEdits.count(indexOf(current[i].name)) > 0)
            candidates.push_back(i);
        if (candidates.empty())
          break;
        target = candidates[static_cast<std::size_t>(
            rng.pick(0, static_cast<int>(candidates.size()) - 1))];
        current[target].source =
            fixture.factEdits.at(indexOf(current[target].name));
        break;
      }
      case Op::FlipBack: {
        std::vector<std::size_t> edited;
        for (std::size_t i = 0; i < current.size(); ++i)
          if (current[i].source != original.at(current[i].name))
            edited.push_back(i);
        if (!edited.empty())
          target = edited[static_cast<std::size_t>(
              rng.pick(0, static_cast<int>(edited.size()) - 1))];
        current[target].source = original.at(current[target].name);
        break;
      }
      case Op::Drop:
        target = pickTu(1);
        dropped.push_back(current[target]);
        current.erase(current.begin() +
                      static_cast<std::ptrdiff_t>(target));
        break;
      case Op::Add:
        if (!hasExtra) {
          current.push_back(fixture.extra);
        } else {
          current.push_back(dropped.back());
          dropped.pop_back();
        }
        target = current.size() - 1;
        break;
      case Op::Rename:
        // The extra TU's static function has a file-qualified linked
        // name, so renaming it changes its imports.
        if (hasExtra)
          target = static_cast<std::size_t>(extraAt - current.begin());
        current[target].fileName =
            "moved" + std::to_string(opIndex) + "/" + current[target].name;
        break;
      }
      label = std::string(opName(op)) + " of " + current[target].name;
      appendedComment = op == Op::CommentAppend;
    }
    SCOPED_TRACE("op " + std::to_string(opIndex) + ": " + label);

    const IncrementalResult result = project.replan(current);
    if (appendedComment) {
      // Nothing any summary records moved: the held link and every held
      // import slice serve the replan.
      EXPECT_TRUE(result.linkReused);
      EXPECT_EQ(result.importsRebuilt, 0u);
    }

    ProjectManifest manifest;
    manifest.name = "edit-stream";
    manifest.tus = current;
    ProjectSession cold(std::move(manifest), interprocConfig());
    const bool coldSuccess = cold.run();
    EXPECT_EQ(result.success, coldSuccess);
    ASSERT_EQ(result.tus.size(), current.size());
    ASSERT_EQ(cold.items().size(), current.size());

    Previous next;
    for (std::size_t i = 0; i < current.size(); ++i) {
      const ProjectTu &tu = current[i];
      const IncrementalTuResult &got = result.tus[i];
      const ProjectItem &want = cold.items()[i];
      ASSERT_EQ(got.name, tu.name);
      EXPECT_EQ(got.item->output, want.output) << tu.name;
      EXPECT_EQ(got.item->success, want.success) << tu.name;

      const std::string importsFingerprint =
          cold.tuImports()[i].fingerprint();
      ReplanReason expected = ReplanReason::Reused;
      if (previous.sources.count(tu.name) == 0)
        expected = ReplanReason::Initial;
      else if (previous.sources.at(tu.name) != tu.source)
        expected = ReplanReason::SourceChanged;
      else if (previous.importsFingerprints.at(tu.name) != importsFingerprint)
        expected = ReplanReason::ImportsChanged;
      EXPECT_EQ(replanReasonName(got.reason), replanReasonName(expected))
          << tu.name;
      next.sources[tu.name] = tu.source;
      next.importsFingerprints[tu.name] = importsFingerprint;
    }
    previous = std::move(next);
    EXPECT_EQ(project.heldTus(), current.size());
  }
}

TEST(EditStreamTest, ScaleProjectMatchesColdProjectSessionAfterEveryOp) {
  runStream(scaleFixture());
}

TEST(EditStreamTest, XsbenchProjectMatchesColdProjectSessionAfterEveryOp) {
  runStream(xsbenchFixture());
}

} // namespace
} // namespace ompdart
