// Whole-program summary artifacts and the cross-TU link (paper §IV-C at
// project scope).
//
// A `ModuleSummary` is the serialized, JSON-round-trippable analysis
// artifact of one translation unit: per-function *direct* effects (no call
// propagation), every call edge with its provable trip weight and argument
// bindings, and the prototypes the unit merely declares. The artifact is a
// pure function of the TU's source text, so it caches by source hash.
//
// `linkProgram` runs the §IV-C fixed point over a set of ModuleSummaries
// with no ASTs in sight: direct effects are closed over the whole-program
// call graph (external callees fall back to the paper's pessimistic rule),
// execution counts come from the shared estimator in analysis/execution,
// and per-parameter call-site facts (folded constants, argument extents,
// site locations) are aggregated so a TU's planner can resolve symbolic
// extents through call sites that live in *other* files.
//
// `TuImports` is the per-TU slice of a link result a Session consumes:
// closed summaries for functions the TU does not define, whole-program
// execution counts, and external call-site facts for the functions it does
// define. Its fingerprint feeds the plan-cache key, so editing one TU
// re-plans only the TUs whose imports actually changed.
#pragma once

#include "analysis/interproc.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ompdart::summary {

/// How one call argument exposes a caller object to the callee.
struct ArgBinding {
  enum class Kind { None, Param, Global };
  Kind kind = Kind::None;
  int paramIndex = -1; ///< caller parameter index when kind == Param
  /// Interned caller global name when kind == Global (spelled out in JSON),
  /// so the link fixed point merges effects under integer keys.
  SymbolId global = 0;
  /// Static facts about the argument expression (for cross-TU extent and
  /// constant propagation into the callee's planner).
  bool isPointerArg = false;
  bool pointeeConst = false;
  std::optional<std::int64_t> constValue;
  bool extentKnown = false;
  std::optional<std::uint64_t> extentConstElems;
  std::string extentSpelling;

  [[nodiscard]] bool operator==(const ArgBinding &other) const;
  [[nodiscard]] json::Value toJson() const;
  [[nodiscard]] static ArgBinding fromJson(const json::Value &value);
};

/// One call site recorded in a module summary.
struct CallEdge {
  std::string callee;
  bool onDevice = false;
  /// Provable trips of unguarded loops enclosing the site (floor 1).
  std::uint64_t provableTrips = 1;
  /// A conditional ancestor makes repetition unprovable (floor of one).
  bool guarded = false;
  unsigned line = 0; ///< 1-based source line of the call statement
  std::vector<ArgBinding> args;

  [[nodiscard]] bool operator==(const CallEdge &other) const;
  [[nodiscard]] json::Value toJson() const;
  [[nodiscard]] static CallEdge fromJson(const json::Value &value);
};

/// Summary of one function a module defines: direct effects + call edges.
struct FunctionArtifact {
  PortableSummary direct; ///< intra-procedural effects only
  std::vector<CallEdge> calls;

  [[nodiscard]] bool operator==(const FunctionArtifact &other) const {
    return direct == other.direct && calls == other.calls;
  }
  [[nodiscard]] json::Value toJson() const;
  [[nodiscard]] static std::optional<FunctionArtifact>
  fromJson(const json::Value &value, std::string *error = nullptr);
};

/// A prototype the module declares without defining (linked against the
/// defining module's signature at link time).
struct ExternRef {
  std::string function;
  std::string signature;
  unsigned line = 0;

  [[nodiscard]] bool operator==(const ExternRef &other) const {
    return function == other.function && signature == other.signature &&
           line == other.line;
  }
};

/// The serialized analysis artifact of one translation unit.
struct ModuleSummary {
  static constexpr unsigned kVersion = 1;

  std::string file;
  std::vector<FunctionArtifact> functions; ///< defined functions
  std::vector<ExternRef> externs;          ///< declared-only prototypes

  [[nodiscard]] const FunctionArtifact *
  find(const std::string &name) const {
    for (const FunctionArtifact &fn : functions)
      if (fn.direct.function == name)
        return &fn;
    return nullptr;
  }

  [[nodiscard]] bool operator==(const ModuleSummary &other) const {
    return file == other.file && functions == other.functions &&
           externs == other.externs;
  }

  [[nodiscard]] json::Value toJson() const;
  [[nodiscard]] static std::optional<ModuleSummary>
  fromJson(const json::Value &value, std::string *error = nullptr);
  /// Stable content fingerprint over the canonical serialization *minus*
  /// the file label (and the file-qualified prefix of static-function
  /// linked names): two TUs with identical analysis facts fingerprint
  /// equal, so renaming (or whitespace-editing) a file does not invalidate
  /// its dependents' imports.
  [[nodiscard]] std::string fingerprint() const;
  /// Re-labels the artifact as belonging to `newFile`: updates `file` and
  /// rewrites the old file-qualified prefix of static-function linked
  /// names (and call edges to them). Cached summaries are content-keyed,
  /// so a hit may carry the path the artifact was first extracted under —
  /// the facts are path-independent, the labels must follow the consumer.
  void rebindFile(const std::string &newFile);
};

/// Extracts the module summary of a parsed translation unit.
[[nodiscard]] ModuleSummary
extractModuleSummary(const TranslationUnit &unit, const std::string &file);

/// One external call-site record for a (function, parameter) pair.
struct ParamCallFact {
  std::string callerFile;
  unsigned line = 0;
  bool tracked = false; ///< argument named a trackable object / constant
  std::optional<std::int64_t> constValue;
  bool extentKnown = false;
  std::optional<std::uint64_t> extentConstElems;
  std::string extentSpelling;

  [[nodiscard]] bool operator==(const ParamCallFact &other) const {
    return callerFile == other.callerFile && line == other.line &&
           tracked == other.tracked && constValue == other.constValue &&
           extentKnown == other.extentKnown &&
           extentConstElems == other.extentConstElems &&
           extentSpelling == other.extentSpelling;
  }
};

struct LinkOptions {
  /// Cap on link-level fixed-point passes (whole-program call depth).
  unsigned maxPasses = 32;
};

/// Result of linking a set of module summaries into one program.
struct LinkResult {
  /// Closed (call-propagated) summaries per function name.
  std::map<std::string, PortableSummary> closed;
  /// Whole-program execution estimates per function name.
  std::map<std::string, std::uint64_t> executions;
  /// External call-site facts: function name -> per-parameter records from
  /// *all* modules' call sites.
  std::map<std::string, std::vector<std::vector<ParamCallFact>>> paramFacts;
  /// File defining each function (diagnostics, TU scheduling).
  std::map<std::string, std::string> definedIn;
  /// Functions whose declared signature mismatched their definition, per
  /// declaring file: these stay pessimistic in that file's imports.
  std::map<std::string, std::set<std::string>> signatureMismatches;
  /// Link-level diagnostics (signature mismatches, duplicate definitions).
  std::vector<Diagnostic> diagnostics;
  /// Number of link fixed-point passes performed.
  unsigned passes = 0;
};

/// Links module summaries: whole-program §IV-C fixed point + execution
/// estimation + call-site fact aggregation.
[[nodiscard]] LinkResult
linkProgram(const std::vector<ModuleSummary> &modules, LinkOptions options = {});
/// The same link over summaries held elsewhere (no copies). Only the
/// replanner, which holds its summaries behind shared pointers, needs it.
[[nodiscard]] LinkResult
linkProgram(const std::vector<const ModuleSummary *> &modules,
            LinkOptions options = {});

/// The per-TU slice of a link result a pipeline Session consumes.
struct TuImports {
  /// Closed summaries for signature-matching functions NOT defined in this
  /// TU (consumed by the interprocedural pass for bodiless callees).
  std::map<std::string, PortableSummary> externals;
  /// Whole-program execution estimates for every linked function (consumed
  /// by the planner's entry-count/update-execution estimator).
  std::map<std::string, std::uint64_t> executions;
  /// External call-site facts for functions this TU defines, indexed
  /// [function][paramIndex] (consumed by symbolic extent resolution).
  std::map<std::string, std::vector<std::vector<ParamCallFact>>> paramFacts;

  [[nodiscard]] bool empty() const {
    return externals.empty() && executions.empty() && paramFacts.empty();
  }
  [[nodiscard]] bool operator==(const TuImports &other) const {
    return externals == other.externals && executions == other.executions &&
           paramFacts == other.paramFacts;
  }
  [[nodiscard]] json::Value toJson() const;
  /// Content fingerprint over the canonical serialization — the
  /// plan-cache key component that makes a TU's cached plan sensitive to
  /// its imports and nothing else.
  [[nodiscard]] std::string fingerprint() const;
};

/// Builds the import slice for one module from a link result.
[[nodiscard]] TuImports
buildTuImports(const ModuleSummary &module, const LinkResult &link);

/// An import slice sealed with its fingerprint, computed once when the
/// slice is sealed. Immutable, so the two always agree: this is what a
/// Session consumes (`PipelineConfig::imports`), and its plan-cache probe
/// reads the fingerprint instead of hashing the slice again.
class SealedImports {
public:
  explicit SealedImports(TuImports imports)
      : imports_(std::move(imports)), fingerprint_(imports_.fingerprint()) {}

  [[nodiscard]] const TuImports &imports() const { return imports_; }
  [[nodiscard]] const std::string &fingerprint() const { return fingerprint_; }

private:
  TuImports imports_;
  std::string fingerprint_;
};

/// Schedules modules in reverse topological call-graph order (callees
/// before callers; ties and cycles broken by input order). Returns indices
/// into `modules`.
[[nodiscard]] std::vector<std::size_t>
reverseTopologicalOrder(const std::vector<const ModuleSummary *> &modules);

} // namespace ompdart::summary
