#include "cache/plan_cache.hpp"

#include "support/hash.hpp"

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace ompdart::cache {

namespace fs = std::filesystem;

namespace {

constexpr unsigned kEntryFormatVersion = 1;
/// Memo caps: bound a long-lived server's footprint. Plan entries carry a
/// whole Mapping IR, summaries a small JSON document, hence the asymmetry.
constexpr std::size_t kEntryMemoCap = 16384;
constexpr std::size_t kSummaryMemoCap = 65536;

std::optional<std::string> readFile(const fs::path &path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Atomic publish: write next to the target, then rename over it. Readers
/// either see the old content or the new, never a torn file. The temp name
/// is unique per process AND per write, so concurrent writers (threads or
/// CLI processes sharing one cache directory) never interleave into one
/// temp file.
bool writeFileAtomic(const fs::path &path, const std::string &content) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  static std::atomic<unsigned long long> writeCounter{0};
  const fs::path temp =
      path.parent_path() /
      (path.filename().string() + ".tmp." +
       std::to_string(static_cast<long long>(::getpid())) + "." +
       std::to_string(writeCounter.fetch_add(1)));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out)
      return false;
    out << content;
    // Force the buffered tail out and observe close-time failures (full
    // disk) BEFORE the rename publishes the file — never replace a good
    // entry/index with a truncated one.
    out.flush();
    out.close();
    if (out.fail()) {
      fs::remove(temp, ec);
      return false;
    }
  }
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return false;
  }
  return true;
}

/// Index rows are keyed by everything BUT the source content, so a row
/// changes exactly when the same file+config+tool combination re-plans
/// edited content — the stale transition worth invalidating. Config flips
/// get their own rows and never unlink each other's (still valid) entries.
std::string indexKeyFor(const CacheKey &key, const std::string &fileName) {
  return fileName + "\n" + key.configHash + "\n" + key.toolVersion;
}

/// Reads one index shard file into `rows` for the rows `acceptShard`
/// admits, skipping rows in `skip`; existing rows are kept.
void readIndexDocument(const fs::path &path,
                       std::map<std::string, std::string> &rows,
                       const std::set<std::string> &skip,
                       unsigned acceptShard) {
  const auto text = readFile(path);
  if (!text)
    return;
  const auto doc = json::Value::parse(*text);
  if (!doc || !doc->isObject())
    return;
  for (const auto &[rowKey, id] : doc->members()) {
    if (id.kind() != json::Value::Kind::String)
      continue;
    if (skip.count(rowKey) != 0)
      continue;
    if (PlanCache::shardOf(rowKey) != acceptShard)
      continue;
    if (rows.count(rowKey) == 0)
      rows[rowKey] = id.asString();
  }
}

} // namespace

const char *cacheModeName(CacheMode mode) {
  switch (mode) {
  case CacheMode::Off:
    return "off";
  case CacheMode::Read:
    return "read";
  case CacheMode::ReadWrite:
    return "read-write";
  }
  return "unknown";
}

std::optional<CacheMode> cacheModeFromName(const std::string &name) {
  if (name == "off")
    return CacheMode::Off;
  if (name == "read")
    return CacheMode::Read;
  if (name == "read-write")
    return CacheMode::ReadWrite;
  return std::nullopt;
}

std::string CacheKey::id() const {
  // Length-prefix each component so ("ab","c") and ("a","bc") cannot
  // collide by concatenation.
  hash::Hasher hasher;
  hasher.update(static_cast<std::uint64_t>(sourceHash.size()));
  hasher.update(sourceHash);
  hasher.update(static_cast<std::uint64_t>(configHash.size()));
  hasher.update(configHash);
  hasher.update(static_cast<std::uint64_t>(toolVersion.size()));
  hasher.update(toolVersion);
  hasher.update(static_cast<std::uint64_t>(importsHash.size()));
  hasher.update(importsHash);
  return hasher.hex();
}

json::Value CacheEntry::toJson(const CacheKey &key) const {
  json::Value out = json::Value::object();
  out.set("formatVersion", kEntryFormatVersion);
  json::Value keyJson = json::Value::object();
  keyJson.set("sourceHash", key.sourceHash);
  keyJson.set("configHash", key.configHash);
  keyJson.set("toolVersion", key.toolVersion);
  keyJson.set("importsHash", key.importsHash);
  out.set("key", std::move(keyJson));
  out.set("file", fileName);
  out.set("irFingerprint", irFingerprint);

  json::Value metricsJson = json::Value::object();
  metricsJson.set("kernels", metrics.kernels);
  metricsJson.set("offloadedLines", metrics.offloadedLines);
  metricsJson.set("mappedVariables", metrics.mappedVariables);
  metricsJson.set("possibleMappings", metrics.possibleMappings);
  out.set("metrics", std::move(metricsJson));

  json::Value diagnosticsJson = json::Value::array();
  for (const Diagnostic &diag : diagnostics)
    diagnosticsJson.push(diagnosticToJson(diag));
  out.set("diagnostics", std::move(diagnosticsJson));

  out.set("ir", ir.toJson());
  return out;
}

std::optional<CacheEntry> CacheEntry::fromJson(const json::Value &value,
                                               const CacheKey &expect,
                                               std::string *error) {
  if (!value.isObject()) {
    json::setFirstError(error, "cache entry must be a JSON object");
    return std::nullopt;
  }
  if (value.uintOr("formatVersion") != kEntryFormatVersion) {
    json::setFirstError(error, "cache entry has an unsupported format version");
    return std::nullopt;
  }
  const json::Value *keyJson = value.find("key");
  if (keyJson == nullptr) {
    json::setFirstError(error, "cache entry is missing its key");
    return std::nullopt;
  }
  CacheKey key;
  key.sourceHash = keyJson->stringOr("sourceHash");
  key.configHash = keyJson->stringOr("configHash");
  key.toolVersion = keyJson->stringOr("toolVersion");
  key.importsHash = keyJson->stringOr("importsHash");
  if (!(key == expect)) {
    json::setFirstError(error, "cache entry key does not match the lookup key");
    return std::nullopt;
  }

  CacheEntry entry;
  entry.fileName = value.stringOr("file");
  entry.irFingerprint = value.stringOr("irFingerprint");

  if (const json::Value *metricsJson = value.find("metrics")) {
    entry.metrics.kernels =
        static_cast<unsigned>(metricsJson->uintOr("kernels"));
    entry.metrics.offloadedLines =
        static_cast<unsigned>(metricsJson->uintOr("offloadedLines"));
    entry.metrics.mappedVariables =
        static_cast<unsigned>(metricsJson->uintOr("mappedVariables"));
    entry.metrics.possibleMappings = metricsJson->uintOr("possibleMappings");
  }

  if (const json::Value *diagnosticsJson = value.find("diagnostics")) {
    for (const json::Value &diagJson : diagnosticsJson->items()) {
      std::optional<Diagnostic> diag = diagnosticFromJson(diagJson);
      if (!diag) {
        json::setFirstError(error, "cache entry holds a malformed diagnostic");
        return std::nullopt;
      }
      entry.diagnostics.push_back(std::move(*diag));
    }
  }

  const json::Value *irJson = value.find("ir");
  if (irJson == nullptr) {
    json::setFirstError(error, "cache entry is missing the mapping IR");
    return std::nullopt;
  }
  std::optional<ir::MappingIr> mappingIr = ir::MappingIr::fromJson(*irJson,
                                                                   error);
  if (!mappingIr)
    return std::nullopt;
  entry.ir = std::move(*mappingIr);
  if (entry.ir.fingerprint() != entry.irFingerprint) {
    json::setFirstError(error, "cache entry IR fails its integrity fingerprint");
    return std::nullopt;
  }
  return entry;
}

json::Value CacheStats::toJson() const {
  json::Value out = json::Value::object();
  out.set("lookups", lookups);
  out.set("hits", hits);
  out.set("misses", misses);
  out.set("stores", stores);
  out.set("invalidations", invalidations);
  out.set("memoHits", memoHits);
  out.set("summaryLookups", summaryLookups);
  out.set("summaryHits", summaryHits);
  out.set("summaryMisses", summaryMisses);
  out.set("summaryStores", summaryStores);
  out.set("summaryMemoHits", summaryMemoHits);
  return out;
}

PlanCache::PlanCache(std::string directory, CacheMode mode)
    : directory_(std::move(directory)), mode_(mode) {}

std::string PlanCache::entryPathFor(const CacheKey &key) const {
  return (fs::path(directory_) / "plans" / (key.id() + ".json")).string();
}

std::string PlanCache::indexShardPath(unsigned shard) const {
  std::string name = "index-";
  name += static_cast<char>('0' + shard / 10);
  name += static_cast<char>('0' + shard % 10);
  name += ".json";
  return (fs::path(directory_) / name).string();
}

unsigned PlanCache::shardOf(const std::string &row) {
  // Stable across processes and platforms (hash::Hasher is pinned), so
  // every writer sharing the directory files a row under the same shard.
  hash::Hasher hasher;
  hasher.update(row);
  return static_cast<unsigned>(hasher.low() % kIndexShards);
}

void PlanCache::loadShardLocked(unsigned shard) {
  IndexShard &stripe = shards_[shard];
  if (stripe.loaded)
    return;
  stripe.loaded = true;
  static const std::set<std::string> kSkipNone;
  readIndexDocument(indexShardPath(shard), stripe.rows, kSkipNone, shard);
}

void PlanCache::mergeDiskShardLocked(unsigned shard) {
  // Another process sharing this directory may have stored or updated rows
  // since our load. Rows this process touched (ownedRows) keep our value
  // — including deliberate erasures, which must not resurrect — and every
  // other row adopts the disk state, so concurrent processes never clobber
  // each other's updates.
  IndexShard &stripe = shards_[shard];
  std::map<std::string, std::string> disk;
  readIndexDocument(indexShardPath(shard), disk, stripe.ownedRows, shard);
  for (auto &[rowKey, id] : disk)
    stripe.rows[rowKey] = std::move(id);
}

void PlanCache::saveShardLocked(unsigned shard) {
  // The per-shard mutex serializes saves within this instance, but other
  // instances — worker threads holding their own PlanCache, or separate
  // CLI processes sharing the directory — can run this read-merge-write
  // cycle concurrently on the same shard file. Without a cross-instance
  // lock, two writers can both read, then both rename, and the second
  // rename silently drops every row only the first writer held. An
  // advisory flock on a sidecar (never-renamed) lock file makes the whole
  // cycle atomic across instances AND processes; writeFileAtomic's rename
  // alone only guards against torn reads, not lost merges.
  const std::string lockPath = indexShardPath(shard) + ".lock";
  const int lockFd =
      ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lockFd >= 0)
    while (::flock(lockFd, LOCK_EX) != 0 && errno == EINTR) {
    }
  mergeDiskShardLocked(shard);
  IndexShard &stripe = shards_[shard];
  json::Value doc = json::Value::object();
  for (const auto &[rowKey, id] : stripe.rows)
    doc.set(rowKey, id);
  if (writeFileAtomic(indexShardPath(shard), doc.dump(true)))
    stripe.dirty = false;
  if (lockFd >= 0) {
    ::flock(lockFd, LOCK_UN);
    ::close(lockFd);
  }
}

void PlanCache::flushIndex() {
  for (unsigned shard = 0; shard < kIndexShards; ++shard) {
    std::lock_guard<std::mutex> lock(shards_[shard].mutex);
    if (shards_[shard].dirty)
      saveShardLocked(shard);
  }
}

PlanCache::~PlanCache() { flushIndex(); }

void PlanCache::memoizeEntry(const std::string &id, const CacheEntry &entry) {
  std::lock_guard<std::mutex> lock(memoMutex_);
  if (entryMemo_.size() < kEntryMemoCap)
    entryMemo_.emplace(id, entry);
}

void PlanCache::memoizeSummary(const std::string &id,
                               const json::Value &payload) {
  std::lock_guard<std::mutex> lock(memoMutex_);
  if (summaryMemo_.size() < kSummaryMemoCap)
    summaryMemo_.emplace(id, payload);
}

void PlanCache::dropMemos() {
  std::lock_guard<std::mutex> lock(memoMutex_);
  entryMemo_.clear();
  summaryMemo_.clear();
}

std::optional<CacheEntry> PlanCache::lookup(const CacheKey &key,
                                            const std::string &fileName) {
  if (!enabled())
    return std::nullopt;
  const std::string id = key.id();

  // Memo first: entries are immutable by content address, so a memoized
  // value validated once never goes stale — warm server traffic skips the
  // disk read, JSON parse and fingerprint check entirely.
  std::optional<CacheEntry> entry;
  bool fromMemo = false;
  {
    std::lock_guard<std::mutex> lock(memoMutex_);
    auto it = entryMemo_.find(id);
    if (it != entryMemo_.end()) {
      entry = it->second;
      fromMemo = true;
    }
  }
  // File read, JSON parse, IR deserialization and fingerprint verification
  // touch no shared state — keep them outside every lock so a warm batch's
  // lookups run concurrently instead of serializing.
  if (!entry) {
    if (const auto text = readFile(entryPathFor(key))) {
      if (const auto doc = json::Value::parse(*text))
        entry = CacheEntry::fromJson(*doc, key);
    }
    if (entry)
      memoizeEntry(id, *entry);
  }

  const std::string row = indexKeyFor(key, fileName);
  IndexShard &stripe = shards_[shardOf(row)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  loadShardLocked(shardOf(row));
  counters_.lookups.fetch_add(1, std::memory_order_relaxed);
  if (entry) {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
    if (fromMemo)
      counters_.memoHits.fetch_add(1, std::memory_order_relaxed);
    // Register this file+config against the entry it resolves to
    // (identical sources share one content-addressed entry), so every
    // combination currently served by an entry is visible in the index.
    if (writable()) {
      auto indexIt = stripe.rows.find(row);
      if (indexIt == stripe.rows.end() || indexIt->second != id) {
        stripe.rows[row] = id;
        stripe.ownedRows.insert(row);
        stripe.dirty = true;
      }
    }
    return entry;
  }

  counters_.misses.fetch_add(1, std::memory_order_relaxed);
  // Stale detection: the index knows a different entry for this
  // file+config+tool row, so the file's content changed since the store.
  // Count the transition once and (read-write) drop the row — the re-plan
  // that follows this miss will store and re-index. The superseded entry
  // FILE stays on disk: content-addressed entries are immutable-valid, so
  // flipping the file back to earlier content (branch switches, A-B edits)
  // re-hits it, and identical-content twins or other configs sharing the
  // entry are never robbed of it.
  auto indexIt = stripe.rows.find(row);
  if (indexIt != stripe.rows.end() && indexIt->second != id) {
    if (stripe.countedStale.insert({row, indexIt->second}).second)
      counters_.invalidations.fetch_add(1, std::memory_order_relaxed);
    if (writable()) {
      stripe.rows.erase(indexIt);
      stripe.ownedRows.insert(row);
      stripe.dirty = true;
    }
  }
  return std::nullopt;
}

void PlanCache::store(const CacheKey &key, const CacheEntry &entry) {
  if (!writable())
    return;
  // The entry write touches no shared state (the path is content-addressed
  // and the rename atomic) — only stats and the index need a lock.
  if (!writeFileAtomic(entryPathFor(key), entry.toJson(key).dump(true)))
    return;
  const std::string id = key.id();
  memoizeEntry(id, entry);
  counters_.stores.fetch_add(1, std::memory_order_relaxed);
  if (!entry.fileName.empty()) {
    const std::string row = indexKeyFor(key, entry.fileName);
    IndexShard &stripe = shards_[shardOf(row)];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    loadShardLocked(shardOf(row));
    stripe.rows[row] = id;
    stripe.ownedRows.insert(row);
    stripe.dirty = true;
  }
}

std::string PlanCache::summaryPathFor(const CacheKey &key) const {
  return (fs::path(directory_) / "summaries" / (key.id() + ".json")).string();
}

std::optional<json::Value> PlanCache::lookupSummary(const CacheKey &key) {
  if (!enabled())
    return std::nullopt;
  const std::string id = key.id();
  counters_.summaryLookups.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(memoMutex_);
    auto it = summaryMemo_.find(id);
    if (it != summaryMemo_.end()) {
      counters_.summaryHits.fetch_add(1, std::memory_order_relaxed);
      counters_.summaryMemoHits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Like plan lookups, the file read and parse stay outside every lock.
  std::optional<json::Value> payload;
  if (const auto text = readFile(summaryPathFor(key))) {
    if (auto doc = json::Value::parse(*text); doc && doc->isObject()) {
      const json::Value *keyJson = doc->find("key");
      CacheKey stored;
      if (keyJson != nullptr) {
        stored.sourceHash = keyJson->stringOr("sourceHash");
        stored.configHash = keyJson->stringOr("configHash");
        stored.toolVersion = keyJson->stringOr("toolVersion");
        stored.importsHash = keyJson->stringOr("importsHash");
      }
      if (stored == key) {
        if (const json::Value *payloadJson = doc->find("summary"))
          payload = *payloadJson;
      }
    }
  }
  if (payload) {
    counters_.summaryHits.fetch_add(1, std::memory_order_relaxed);
    memoizeSummary(id, *payload);
  } else {
    counters_.summaryMisses.fetch_add(1, std::memory_order_relaxed);
  }
  return payload;
}

void PlanCache::storeSummary(const CacheKey &key, const json::Value &payload) {
  if (!enabled())
    return;
  // Memoize regardless of writability: a read-only server still keeps its
  // extracted summaries hot in memory (disk state is untouched).
  memoizeSummary(key.id(), payload);
  if (!writable())
    return;
  json::Value doc = json::Value::object();
  json::Value keyJson = json::Value::object();
  keyJson.set("sourceHash", key.sourceHash);
  keyJson.set("configHash", key.configHash);
  keyJson.set("toolVersion", key.toolVersion);
  keyJson.set("importsHash", key.importsHash);
  doc.set("key", std::move(keyJson));
  doc.set("summary", payload);
  if (!writeFileAtomic(summaryPathFor(key), doc.dump(true)))
    return;
  counters_.summaryStores.fetch_add(1, std::memory_order_relaxed);
}

CacheStats PlanCache::stats() const {
  CacheStats out;
  out.lookups = counters_.lookups.load(std::memory_order_relaxed);
  out.hits = counters_.hits.load(std::memory_order_relaxed);
  out.misses = counters_.misses.load(std::memory_order_relaxed);
  out.stores = counters_.stores.load(std::memory_order_relaxed);
  out.invalidations =
      counters_.invalidations.load(std::memory_order_relaxed);
  out.memoHits = counters_.memoHits.load(std::memory_order_relaxed);
  out.summaryLookups =
      counters_.summaryLookups.load(std::memory_order_relaxed);
  out.summaryHits = counters_.summaryHits.load(std::memory_order_relaxed);
  out.summaryMisses =
      counters_.summaryMisses.load(std::memory_order_relaxed);
  out.summaryStores =
      counters_.summaryStores.load(std::memory_order_relaxed);
  out.summaryMemoHits =
      counters_.summaryMemoHits.load(std::memory_order_relaxed);
  return out;
}

} // namespace ompdart::cache
