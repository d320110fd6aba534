#include "analysis/summary.hpp"

#include "analysis/bounds.hpp"
#include "analysis/execution.hpp"
#include "frontend/const_fold.hpp"
#include "support/hash.hpp"

#include <algorithm>
#include <functional>

namespace ompdart::summary {

// ---------------------------------------------------------------------------
// JSON round trips
// ---------------------------------------------------------------------------

bool ArgBinding::operator==(const ArgBinding &other) const {
  return kind == other.kind && paramIndex == other.paramIndex &&
         global == other.global &&
         isPointerArg == other.isPointerArg &&
         pointeeConst == other.pointeeConst &&
         constValue == other.constValue && extentKnown == other.extentKnown &&
         extentConstElems == other.extentConstElems &&
         extentSpelling == other.extentSpelling;
}

json::Value ArgBinding::toJson() const {
  json::Value doc = json::Value::object();
  switch (kind) {
  case Kind::None:
    doc.set("binds", "none");
    break;
  case Kind::Param:
    doc.set("binds", "param");
    doc.set("paramIndex", paramIndex);
    break;
  case Kind::Global:
    doc.set("binds", "global");
    doc.set("global", symbolName(global));
    break;
  }
  doc.set("isPointerArg", isPointerArg);
  doc.set("pointeeConst", pointeeConst);
  if (constValue)
    doc.set("constValue", *constValue);
  doc.set("extentKnown", extentKnown);
  if (extentConstElems)
    doc.set("extentConstElems", *extentConstElems);
  if (!extentSpelling.empty())
    doc.set("extentSpelling", extentSpelling);
  return doc;
}

ArgBinding ArgBinding::fromJson(const json::Value &value) {
  ArgBinding binding;
  const std::string kindName = value.stringOr("binds", "none");
  if (kindName == "param") {
    binding.kind = Kind::Param;
    binding.paramIndex = static_cast<int>(value.intOr("paramIndex", -1));
  } else if (kindName == "global") {
    binding.kind = Kind::Global;
    binding.global = internSymbol(value.stringOr("global"));
  }
  binding.isPointerArg = value.boolOr("isPointerArg");
  binding.pointeeConst = value.boolOr("pointeeConst");
  if (value.find("constValue") != nullptr)
    binding.constValue = value.intOr("constValue");
  binding.extentKnown = value.boolOr("extentKnown");
  if (value.find("extentConstElems") != nullptr)
    binding.extentConstElems = value.uintOr("extentConstElems");
  binding.extentSpelling = value.stringOr("extentSpelling");
  return binding;
}

bool CallEdge::operator==(const CallEdge &other) const {
  return callee == other.callee && onDevice == other.onDevice &&
         provableTrips == other.provableTrips && guarded == other.guarded &&
         line == other.line && args == other.args;
}

json::Value CallEdge::toJson() const {
  json::Value doc = json::Value::object();
  doc.set("callee", callee);
  doc.set("onDevice", onDevice);
  doc.set("provableTrips", provableTrips);
  doc.set("guarded", guarded);
  doc.set("line", line);
  json::Value argsJson = json::Value::array();
  for (const ArgBinding &arg : args)
    argsJson.push(arg.toJson());
  doc.set("args", std::move(argsJson));
  return doc;
}

CallEdge CallEdge::fromJson(const json::Value &value) {
  CallEdge edge;
  edge.callee = value.stringOr("callee");
  edge.onDevice = value.boolOr("onDevice");
  edge.provableTrips = value.uintOr("provableTrips", 1);
  edge.guarded = value.boolOr("guarded");
  edge.line = static_cast<unsigned>(value.uintOr("line"));
  if (const json::Value *argsJson = value.find("args"))
    for (const json::Value &item : argsJson->items())
      edge.args.push_back(ArgBinding::fromJson(item));
  return edge;
}

json::Value FunctionArtifact::toJson() const {
  json::Value doc = direct.toJson();
  json::Value callsJson = json::Value::array();
  for (const CallEdge &edge : calls)
    callsJson.push(edge.toJson());
  doc.set("calls", std::move(callsJson));
  return doc;
}

std::optional<FunctionArtifact>
FunctionArtifact::fromJson(const json::Value &value, std::string *error) {
  auto direct = PortableSummary::fromJson(value, error);
  if (!direct)
    return std::nullopt;
  FunctionArtifact artifact;
  artifact.direct = std::move(*direct);
  if (const json::Value *callsJson = value.find("calls"))
    for (const json::Value &item : callsJson->items())
      artifact.calls.push_back(CallEdge::fromJson(item));
  return artifact;
}

json::Value ModuleSummary::toJson() const {
  json::Value doc = json::Value::object();
  doc.set("version", kVersion);
  doc.set("file", file);
  json::Value functionsJson = json::Value::array();
  for (const FunctionArtifact &fn : functions)
    functionsJson.push(fn.toJson());
  doc.set("functions", std::move(functionsJson));
  json::Value externsJson = json::Value::array();
  for (const ExternRef &ref : externs) {
    json::Value refJson = json::Value::object();
    refJson.set("function", ref.function);
    refJson.set("signature", ref.signature);
    refJson.set("line", ref.line);
    externsJson.push(std::move(refJson));
  }
  doc.set("externs", std::move(externsJson));
  return doc;
}

std::optional<ModuleSummary> ModuleSummary::fromJson(const json::Value &value,
                                                     std::string *error) {
  if (!value.isObject()) {
    json::setFirstError(error, "module summary is not an object");
    return std::nullopt;
  }
  if (value.uintOr("version") != kVersion) {
    json::setFirstError(error, "unsupported module summary version");
    return std::nullopt;
  }
  ModuleSummary module;
  module.file = value.stringOr("file");
  if (const json::Value *functionsJson = value.find("functions")) {
    for (const json::Value &item : functionsJson->items()) {
      auto artifact = FunctionArtifact::fromJson(item, error);
      if (!artifact)
        return std::nullopt;
      module.functions.push_back(std::move(*artifact));
    }
  }
  if (const json::Value *externsJson = value.find("externs")) {
    for (const json::Value &item : externsJson->items()) {
      ExternRef ref;
      ref.function = item.stringOr("function");
      ref.signature = item.stringOr("signature");
      ref.line = static_cast<unsigned>(item.uintOr("line"));
      module.externs.push_back(std::move(ref));
    }
  }
  return module;
}

namespace {

/// Source-location members. Fingerprints must cover facts, not positions:
/// a comment added above a call site shifts its line but changes no
/// analysis fact, and must not invalidate dependents' cached plans.
bool isLocationKey(const std::string &key) {
  return key == "line" || key == "callerFile";
}

/// Appends `"key":` to an object body, with a comma after the first.
void appendKey(std::string &out, const std::string &key, bool &first) {
  if (!first)
    out += ',';
  first = false;
  out += '"';
  out += json::escape(key);
  out += "\":";
}

/// Appends the compact serialization of `value` minus its location members
/// (at any depth): byte-identical to dumping a scrubbed copy, without
/// building one.
void dumpWithoutLocations(const json::Value &value, std::string &out) {
  if (value.isObject()) {
    out += '{';
    bool first = true;
    for (const auto &[key, member] : value.members()) {
      if (isLocationKey(key))
        continue;
      appendKey(out, key, first);
      dumpWithoutLocations(member, out);
    }
    out += '}';
    return;
  }
  if (value.isArray()) {
    out += '[';
    bool first = true;
    for (const json::Value &item : value.items()) {
      if (!first)
        out += ',';
      first = false;
      dumpWithoutLocations(item, out);
    }
    out += ']';
    return;
  }
  // Scalars as Value::dump writes them, minus a temporary string for the
  // common kinds.
  switch (value.kind()) {
  case json::Value::Kind::Bool:
    out += value.asBool() ? "true" : "false";
    return;
  case json::Value::Kind::Int:
    out += std::to_string(value.asInt());
    return;
  case json::Value::Kind::String:
    out += '"';
    out += json::escape(value.asString());
    out += '"';
    return;
  default:
    out += value.dump(/*pretty=*/false);
  }
}

std::string locationFreeFingerprint(const json::Value &value) {
  std::string text;
  dumpWithoutLocations(value, text);
  return hash::fingerprint(text);
}

} // namespace

std::string ModuleSummary::fingerprint() const {
  // Facts only: renaming a TU must not ripple, so the file label — and
  // its embedding in static-function linked names — is normalized away.
  ModuleSummary normalized = *this;
  normalized.rebindFile("");
  return locationFreeFingerprint(normalized.toJson());
}

void ModuleSummary::rebindFile(const std::string &newFile) {
  const std::string oldPrefix = file + "::";
  const std::string newPrefix = newFile + "::";
  auto rebind = [&](std::string &name) {
    if (name.rfind(oldPrefix, 0) == 0)
      name = newPrefix + name.substr(oldPrefix.size());
  };
  for (FunctionArtifact &artifact : functions) {
    rebind(artifact.direct.function);
    for (CallEdge &edge : artifact.calls)
      rebind(edge.callee);
  }
  file = newFile;
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

namespace {

/// Link-level identity of a function. `static` functions have internal
/// linkage — two TUs may define same-named statics that are distinct
/// objects — so their linked name is qualified by the defining file,
/// keeping them out of the global namespace while still participating in
/// the closure and execution graph for their own module.
std::string linkedName(const FunctionDecl *fn, const std::string &file) {
  return fn->isStatic() ? file + "::" + fn->name() : fn->name();
}

} // namespace

ModuleSummary extractModuleSummary(const TranslationUnit &unit,
                                   const std::string &file) {
  ModuleSummary module;
  module.file = file;
  MallocExtents mallocExtents(unit);

  for (const FunctionDecl *fn : unit.functions) {
    if (!fn->isDefined()) {
      // A `static` prototype can only be defined in this TU; exporting it
      // as an extern ref could wrongly import another TU's same-named
      // definition.
      if (fn->isStatic())
        continue;
      ExternRef ref;
      ref.function = fn->name();
      ref.signature = functionSignature(fn);
      ref.line = fn->range().begin.line;
      module.externs.push_back(std::move(ref));
      continue;
    }
    const FunctionAccessInfo info = collectAccesses(fn);
    FunctionArtifact artifact;
    artifact.direct = portableSummaryOf(directFunctionSummary(fn, info));
    artifact.direct.function = linkedName(fn, file);

    std::unordered_map<const Stmt *, const Stmt *> parents;
    {
      ParentMap map(fn);
      parents = map.takeLinks();
    }
    for (const CallSite &site : info.callSites) {
      const FunctionDecl *callee = site.call->callee();
      if (callee == nullptr)
        continue; // builtins (printf, malloc, ...) are not linkable
      CallEdge edge;
      edge.callee = linkedName(callee, file);
      edge.onDevice = site.onDevice;
      const ProvableMultiplier multiplier =
          provableMultiplierOf(parents, site.stmt);
      edge.provableTrips = multiplier.trips;
      edge.guarded = multiplier.guarded;
      if (site.stmt != nullptr)
        edge.line = site.stmt->range().begin.line;
      const auto &args = site.call->args();
      for (std::size_t i = 0; i < args.size(); ++i) {
        ArgBinding binding;
        // Effect binding object (pointer passing, array decay, &scalar).
        if (VarDecl *object = argumentObject(args[i])) {
          if (object->isGlobal()) {
            binding.kind = ArgBinding::Kind::Global;
            binding.global = internSymbol(object->name());
          } else {
            for (std::size_t p = 0; p < fn->params().size(); ++p) {
              if (fn->params()[p] == object) {
                binding.kind = ArgBinding::Kind::Param;
                binding.paramIndex = static_cast<int>(p);
                break;
              }
            }
          }
        }
        // Callee parameter type facts (pessimistic rule for callees with no
        // body anywhere in the project).
        if (i < callee->params().size()) {
          if (const auto *pointer = dynamic_cast<const PointerType *>(
                  callee->params()[i]->type())) {
            binding.isPointerArg = true;
            binding.pointeeConst = pointer->isPointeeConst();
          }
        }
        // Argument value/extent facts for cross-TU symbolic resolution
        // (mirrors the planner's local call-site scans: constants fold per
        // argument expression; extents follow the directly referenced
        // variable).
        binding.constValue = foldIntegerConstant(args[i]);
        if (VarDecl *argVar = referencedVar(ignoreParensAndCasts(args[i]))) {
          const ExtentInfo extent = dataExtent(argVar, mallocExtents);
          binding.extentKnown = extent.known();
          binding.extentConstElems = extent.constElems;
          binding.extentSpelling = extent.spelling;
        }
        edge.args.push_back(std::move(binding));
      }
      artifact.calls.push_back(std::move(edge));
    }
    module.functions.push_back(std::move(artifact));
  }
  return module;
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

namespace {

/// Merges `effect` onto the caller object the binding names (param or
/// global); unbound arguments drop the effect — effects on caller locals
/// stay local, exactly as in the TU-level fixed point.
void mergeOntoBinding(PortableSummary &caller, const ArgBinding &binding,
                      const ObjectEffect &effect) {
  if (!effect.any())
    return;
  switch (binding.kind) {
  case ArgBinding::Kind::Param:
    if (binding.paramIndex >= 0 &&
        static_cast<std::size_t>(binding.paramIndex) < caller.params.size())
      caller.params[static_cast<std::size_t>(binding.paramIndex)].mergeFrom(
          effect);
    return;
  case ArgBinding::Kind::Global:
    caller.globals[binding.global].mergeFrom(effect);
    return;
  case ArgBinding::Kind::None:
    return;
  }
}

/// The paper's pessimistic rule for a callee with no body anywhere in the
/// project, applied through one call edge's argument bindings.
void mergePessimisticEdge(PortableSummary &caller, const CallEdge &edge) {
  for (const ArgBinding &binding : edge.args) {
    if (!binding.isPointerArg)
      continue;
    ObjectEffect effect;
    effect.readHost = true;
    if (!binding.pointeeConst) {
      effect.writeHost = true;
      effect.unknown = true;
    }
    mergeOntoBinding(caller, binding, effect);
  }
}

} // namespace

LinkResult linkProgram(const std::vector<ModuleSummary> &modules,
                       LinkOptions options) {
  std::vector<const ModuleSummary *> pointers;
  pointers.reserve(modules.size());
  for (const ModuleSummary &module : modules)
    pointers.push_back(&module);
  return linkProgram(pointers, options);
}

LinkResult linkProgram(const std::vector<const ModuleSummary *> &modules,
                       LinkOptions options) {
  LinkResult result;

  // Definition index + duplicate detection (first definition wins,
  // matching the single-TU parser's prototype-reuse rule). Ownership is
  // tracked by module *index*, not file string: a manifest accidentally
  // listing one path twice must not double-count anything.
  std::map<std::string, std::size_t> ownerIndex;
  for (std::size_t moduleIndex = 0; moduleIndex < modules.size();
       ++moduleIndex) {
    const ModuleSummary &module = *modules[moduleIndex];
    for (const FunctionArtifact &artifact : module.functions) {
      const std::string &name = artifact.direct.function;
      auto [it, inserted] = ownerIndex.emplace(name, moduleIndex);
      if (!inserted) {
        Diagnostic diag;
        diag.severity = Severity::Warning;
        diag.message = "duplicate definition of '" + name + "' in " +
                       module.file + " (already defined in " +
                       modules[it->second]->file +
                       "); the first definition wins";
        result.diagnostics.push_back(std::move(diag));
        continue;
      }
      result.definedIn[name] = module.file;
      result.closed[name] = artifact.direct;
    }
  }
  const auto owns = [&](const std::string &name, std::size_t moduleIndex) {
    auto it = ownerIndex.find(name);
    return it != ownerIndex.end() && it->second == moduleIndex;
  };

  // Signature checks: a TU's prototype must match the defining TU's
  // signature, or that TU keeps the pessimistic treatment for the callee.
  for (const ModuleSummary *entry : modules) {
    const ModuleSummary &module = *entry;
    for (const ExternRef &ref : module.externs) {
      auto closedIt = result.closed.find(ref.function);
      if (closedIt == result.closed.end())
        continue; // genuinely external to the project
      if (closedIt->second.signature == ref.signature)
        continue;
      result.signatureMismatches[module.file].insert(ref.function);
      Diagnostic diag;
      diag.severity = Severity::Warning;
      diag.message = "declaration of '" + ref.function + "' at " +
                     module.file + ":" + std::to_string(ref.line) + " (" +
                     ref.signature + ") does not match its definition in " +
                     result.definedIn[ref.function] + " (" +
                     closedIt->second.signature +
                     "); treating the call as external";
      result.diagnostics.push_back(std::move(diag));
    }
  }

  // Whole-program §IV-C fixed point over the serialized artifacts. The set
  // of linked functions is fixed before the passes start, so every name
  // lookup the inner loop used to do — which callee summary an edge merges
  // from, whether the declaring file's signature mismatched — is resolved
  // ONCE here to a plain pointer (null = pessimistic rule). The passes
  // then touch no string-keyed containers at all: merges land in
  // SymbolId-keyed globals maps and convergence compares integer keys.
  struct EdgeWork {
    const CallEdge *edge = nullptr;
    /// Closed summary of the callee; null applies the pessimistic rule.
    const PortableSummary *callee = nullptr;
  };
  struct FunctionWork {
    const FunctionArtifact *artifact = nullptr;
    PortableSummary *current = nullptr; ///< slot in result.closed
    std::vector<EdgeWork> edges;
  };
  std::vector<FunctionWork> work;
  for (std::size_t moduleIndex = 0; moduleIndex < modules.size();
       ++moduleIndex) {
    const ModuleSummary &module = *modules[moduleIndex];
    const std::set<std::string> *mismatches = nullptr;
    auto mismatchIt = result.signatureMismatches.find(module.file);
    if (mismatchIt != result.signatureMismatches.end())
      mismatches = &mismatchIt->second;
    for (const FunctionArtifact &artifact : module.functions) {
      const std::string &name = artifact.direct.function;
      if (!owns(name, moduleIndex))
        continue; // duplicate loser
      FunctionWork fn;
      fn.artifact = &artifact;
      fn.current = &result.closed.at(name);
      fn.edges.reserve(artifact.calls.size());
      for (const CallEdge &edge : artifact.calls) {
        EdgeWork ew;
        ew.edge = &edge;
        if (mismatches == nullptr || mismatches->count(edge.callee) == 0) {
          auto calleeIt = result.closed.find(edge.callee);
          if (calleeIt != result.closed.end())
            ew.callee = &calleeIt->second;
        }
        fn.edges.push_back(ew);
      }
      work.push_back(std::move(fn));
    }
  }
  for (unsigned pass = 0; pass < options.maxPasses; ++pass) {
    ++result.passes;
    bool changed = false;
    for (const FunctionWork &fn : work) {
      PortableSummary next = fn.artifact->direct;
      for (const EdgeWork &ew : fn.edges) {
        if (ew.callee == nullptr) {
          mergePessimisticEdge(next, *ew.edge);
          continue;
        }
        const PortableSummary &callee = *ew.callee;
        next.launchesKernels |= callee.launchesKernels;
        for (std::size_t i = 0;
             i < callee.params.size() && i < ew.edge->args.size(); ++i)
          mergeOntoBinding(next, ew.edge->args[i], callee.params[i]);
        for (const auto &[globalSym, effect] : callee.globals) {
          if (effect.any())
            next.globals[globalSym].mergeFrom(effect);
        }
      }
      if (!(*fn.current == next)) {
        *fn.current = std::move(next);
        changed = true;
      }
    }
    if (!changed)
      break;
  }

  // Whole-program execution estimation over the same weighted-graph
  // estimator the per-TU planner uses.
  WeightedCallGraph graph;
  for (const ModuleSummary *entry : modules) {
    const ModuleSummary &module = *entry;
    for (const FunctionArtifact &artifact : module.functions)
      graph.addFunction(artifact.direct.function);
    for (const ExternRef &ref : module.externs)
      graph.addFunction(ref.function);
  }
  for (std::size_t moduleIndex = 0; moduleIndex < modules.size();
       ++moduleIndex) {
    for (const FunctionArtifact &artifact :
         modules[moduleIndex]->functions) {
      if (!owns(artifact.direct.function, moduleIndex))
        continue;
      for (const CallEdge &edge : artifact.calls)
        graph.addCall(artifact.direct.function, edge.callee,
                      edge.provableTrips, edge.guarded, edge.onDevice);
    }
  }
  result.executions = estimateExecutions(graph);

  // Per-parameter call-site facts across every module. Duplicate-loser
  // definitions are dead code in the linked program; their call sites
  // must not pollute the facts (or force spurious disagreements).
  for (std::size_t moduleIndex = 0; moduleIndex < modules.size();
       ++moduleIndex) {
    const ModuleSummary &module = *modules[moduleIndex];
    for (const FunctionArtifact &artifact : module.functions) {
      if (!owns(artifact.direct.function, moduleIndex))
        continue;
      for (const CallEdge &edge : artifact.calls) {
        auto &perParam = result.paramFacts[edge.callee];
        if (perParam.size() < edge.args.size())
          perParam.resize(edge.args.size());
        for (std::size_t i = 0; i < edge.args.size(); ++i) {
          const ArgBinding &binding = edge.args[i];
          ParamCallFact fact;
          fact.callerFile = module.file;
          fact.line = edge.line;
          fact.tracked = binding.extentKnown || binding.constValue ||
                         binding.kind != ArgBinding::Kind::None;
          fact.constValue = binding.constValue;
          fact.extentKnown = binding.extentKnown;
          fact.extentConstElems = binding.extentConstElems;
          fact.extentSpelling = binding.extentSpelling;
          perParam[i].push_back(std::move(fact));
        }
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Per-TU imports
// ---------------------------------------------------------------------------

namespace {

/// One function's per-parameter call-site facts, as TuImports serializes
/// them.
json::Value
paramFactsJson(const std::vector<std::vector<ParamCallFact>> &perParam) {
  json::Value paramsJson = json::Value::array();
  for (const auto &facts : perParam) {
    json::Value siteJson = json::Value::array();
    for (const ParamCallFact &fact : facts) {
      json::Value factJson = json::Value::object();
      factJson.set("callerFile", fact.callerFile);
      factJson.set("line", fact.line);
      factJson.set("tracked", fact.tracked);
      if (fact.constValue)
        factJson.set("constValue", *fact.constValue);
      factJson.set("extentKnown", fact.extentKnown);
      if (fact.extentConstElems)
        factJson.set("extentConstElems", *fact.extentConstElems);
      if (!fact.extentSpelling.empty())
        factJson.set("extentSpelling", fact.extentSpelling);
      siteJson.push(std::move(factJson));
    }
    paramsJson.push(std::move(siteJson));
  }
  return paramsJson;
}

/// Appends the body of a name-keyed map as a location-free JSON object,
/// rendering each value with `valueJson`.
template <typename Map, typename ToJson>
void appendLocationFreeObject(std::string &out, const Map &map,
                              ToJson valueJson) {
  out += '{';
  bool first = true;
  for (const auto &[name, value] : map) {
    if (isLocationKey(name))
      continue;
    appendKey(out, name, first);
    dumpWithoutLocations(valueJson(value), out);
  }
  out += '}';
}

} // namespace

json::Value TuImports::toJson() const {
  json::Value doc = json::Value::object();
  json::Value externalsJson = json::Value::object();
  for (const auto &[name, portable] : externals)
    externalsJson.set(name, portable.toJson());
  doc.set("externals", std::move(externalsJson));
  json::Value executionsJson = json::Value::object();
  for (const auto &[name, count] : executions)
    executionsJson.set(name, count);
  doc.set("executions", std::move(executionsJson));
  json::Value factsJson = json::Value::object();
  for (const auto &[name, perParam] : paramFacts)
    factsJson.set(name, paramFactsJson(perParam));
  doc.set("paramFacts", std::move(factsJson));
  return doc;
}

std::string TuImports::fingerprint() const {
  // Location members (call-site lines, caller file paths) serve
  // diagnostics only; scrubbing them keeps the plan-cache key insensitive
  // to edits that move code without changing facts. The text is the
  // location-free dump of toJson(), written entry by entry: in a large
  // project the importing TU's slice has a row per linked function, and
  // building that whole tree first would cost more than the link.
  std::string out = "{\"externals\":";
  appendLocationFreeObject(out, externals, [](const PortableSummary &portable) {
    return portable.toJson();
  });
  out += ",\"executions\":";
  appendLocationFreeObject(out, executions, [](std::uint64_t count) {
    return json::Value(count);
  });
  out += ",\"paramFacts\":";
  appendLocationFreeObject(out, paramFacts, paramFactsJson);
  out += '}';
  return hash::fingerprint(out);
}

TuImports buildTuImports(const ModuleSummary &module, const LinkResult &link) {
  TuImports imports;
  const std::set<std::string> *mismatches = nullptr;
  auto mismatchIt = link.signatureMismatches.find(module.file);
  if (mismatchIt != link.signatureMismatches.end())
    mismatches = &mismatchIt->second;

  auto recordExecution = [&](const std::string &name) {
    auto it = link.executions.find(name);
    if (it != link.executions.end())
      imports.executions[name] = it->second;
  };

  for (const ExternRef &ref : module.externs) {
    recordExecution(ref.function);
    if (mismatches != nullptr && mismatches->count(ref.function) > 0)
      continue; // stays pessimistic
    auto closedIt = link.closed.find(ref.function);
    if (closedIt == link.closed.end())
      continue; // external to the whole project
    imports.externals[ref.function] = closedIt->second;
  }
  const std::string staticPrefix = module.file + "::";
  for (const FunctionArtifact &artifact : module.functions) {
    const std::string &name = artifact.direct.function;
    recordExecution(name);
    // Static functions link under their file-qualified name; the planner
    // looks execution counts up by the bare declaration name, which is
    // unambiguous within the TU.
    if (name.rfind(staticPrefix, 0) == 0) {
      auto it = link.executions.find(name);
      if (it != link.executions.end())
        imports.executions[name.substr(staticPrefix.size())] = it->second;
    }
    auto factsIt = link.paramFacts.find(name);
    if (factsIt == link.paramFacts.end())
      continue;
    // Only *external* call sites: the TU's planner re-scans its own.
    std::vector<std::vector<ParamCallFact>> externalFacts(
        factsIt->second.size());
    bool anyExternal = false;
    for (std::size_t i = 0; i < factsIt->second.size(); ++i) {
      for (const ParamCallFact &fact : factsIt->second[i]) {
        if (fact.callerFile == module.file)
          continue;
        externalFacts[i].push_back(fact);
        anyExternal = true;
      }
    }
    if (anyExternal)
      imports.paramFacts[name] = std::move(externalFacts);
  }
  return imports;
}

std::vector<std::size_t>
reverseTopologicalOrder(const std::vector<const ModuleSummary *> &modules) {
  // Module-level dependency edges: caller-module -> callee-module. A DFS
  // post-order then yields callees before callers; ties and cycles resolve
  // by input order, so the schedule is deterministic.
  std::map<std::string, std::size_t> moduleOf;
  for (std::size_t i = 0; i < modules.size(); ++i)
    for (const FunctionArtifact &artifact : modules[i]->functions)
      moduleOf.emplace(artifact.direct.function, i);

  std::vector<std::vector<std::size_t>> callees(modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    std::set<std::size_t> targets;
    for (const FunctionArtifact &artifact : modules[i]->functions)
      for (const CallEdge &edge : artifact.calls) {
        auto it = moduleOf.find(edge.callee);
        if (it != moduleOf.end() && it->second != i)
          targets.insert(it->second);
      }
    callees[i].assign(targets.begin(), targets.end());
  }

  std::vector<std::size_t> order;
  std::vector<bool> visited(modules.size(), false);
  std::function<void(std::size_t)> visit = [&](std::size_t index) {
    if (visited[index])
      return;
    visited[index] = true;
    for (std::size_t callee : callees[index])
      visit(callee);
    order.push_back(index);
  };
  for (std::size_t i = 0; i < modules.size(); ++i)
    visit(i);
  return order;
}

} // namespace ompdart::summary
