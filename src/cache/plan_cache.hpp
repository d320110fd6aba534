// Content-addressed plan cache: the persistence layer that lets the tool
// behave like a service under repeated traffic instead of a one-shot
// compiler pass.
//
// A cache key fingerprints everything that determines planning output:
//   - the source buffer's content hash (not its path or mtime),
//   - the planning-relevant PipelineConfig fingerprint (ablation switches,
//     interprocedural pass cap — see planFingerprint()),
//   - the tool version (kToolVersion).
// An entry stores the serialized Mapping IR plus everything the plan stage
// produced besides it: complexity metrics and the diagnostics present at
// the end of planning. A Session that hits re-hydrates the IR straight into
// the emission backends and skips parse->cfg->interproc->plan entirely; a
// miss plans normally and (in read-write mode) stores the result.
//
// On-disk layout under the cache directory:
//   plans/<key-id>.json   one entry per content address
//   index-<NN>.json       lock-striped index shards: a (fileName,
//                         configHash, toolVersion) row lives in the shard
//                         its stable hash selects and maps to the latest
//                         key id for that combination (stale detection)
// The index is sharded (kIndexShards files, one mutex each) so heavy
// concurrent traffic — a plan server's worker pool, parallel batch
// sessions, multiple CLI processes — stripes its row updates across
// independent locks and rewrites 1/N of the index per flush instead of one
// monolithic index.json. Row-to-shard assignment uses the stable content
// hash, so every process agrees on the layout.
// Because entries are content-addressed, editing a source never corrupts a
// cache: the edit changes the key, the lookup misses, and the superseded
// entry for that file+config row is counted as an invalidation (the row is
// dropped in read-write mode; the entry file itself stays — entries are
// immutable-valid, so flipping content back re-hits it, and twins/other
// configs sharing the entry keep it). Config flips get their own rows, so
// A-B config traffic over one file keeps both entries warm. Writes go
// through a uniquely-named temp-file rename, so concurrent sessions — and
// separate CLI processes — sharing one cache never observe torn entries,
// and each shard merges other processes' rows on save instead of
// clobbering them.
//
// Long-lived processes (the plan server) additionally keep validated plan
// entries and module-summary documents memoized in memory, so warm traffic
// skips the disk read + JSON parse + fingerprint check entirely; memo hits
// still count as cache hits (plus the memoHits/summaryMemoHits counters).
// All statistics counters are atomics, so `stats()` is safe to call while
// requests are in flight on other threads.
#pragma once

#include "driver/report.hpp"
#include "mapping/ir.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ompdart::cache {

/// Cache behavior: Off (never touch disk), Read (consume entries, never
/// write), ReadWrite (consume and populate).
enum class CacheMode { Off, Read, ReadWrite };

[[nodiscard]] const char *cacheModeName(CacheMode mode);
/// "off" | "read" | "read-write"; nullopt otherwise.
[[nodiscard]] std::optional<CacheMode>
cacheModeFromName(const std::string &name);

/// Everything that determines planning output, fingerprinted.
struct CacheKey {
  std::string sourceHash;  ///< content hash of the input buffer
  std::string configHash;  ///< planning-relevant config fingerprint
  std::string toolVersion; ///< kToolVersion of the producing binary
  /// Fingerprint of the cross-TU imports a Project run injected (empty for
  /// single-TU runs): editing one file re-plans only the TUs whose imported
  /// summaries or call facts actually changed.
  std::string importsHash;

  /// The content address: a stable hash over all components.
  [[nodiscard]] std::string id() const;

  [[nodiscard]] bool operator==(const CacheKey &other) const {
    return sourceHash == other.sourceHash &&
           configHash == other.configHash &&
           toolVersion == other.toolVersion &&
           importsHash == other.importsHash;
  }
};

/// One cached plan-stage result.
struct CacheEntry {
  std::string fileName; ///< diagnostics file name of the producing session
  ir::MappingIr ir;
  ComplexityMetrics metrics;
  /// All diagnostics present at the end of the plan stage (parse through
  /// plan), replayed on a hit so warm reports match cold ones. Entries with
  /// errors are never stored.
  std::vector<Diagnostic> diagnostics;
  /// Integrity check: ir.fingerprint() at store time; lookups recompute and
  /// reject mismatches (truncated or hand-edited entry files).
  std::string irFingerprint;

  [[nodiscard]] json::Value toJson(const CacheKey &key) const;
  /// Validates the document shape, that its key matches `expect`, and that
  /// the embedded IR re-hashes to `irFingerprint`.
  [[nodiscard]] static std::optional<CacheEntry>
  fromJson(const json::Value &value, const CacheKey &expect,
           std::string *error = nullptr);
};

/// Monotonic counters; `invalidations` counts lookups that found a
/// superseded entry for the same file (source/config/tool changed). The
/// `summary*` counters track the Project layer's per-TU module-summary
/// entries, which live beside the plans in the same cache directory. The
/// `memoHits`/`summaryMemoHits` counters are the subset of hits served from
/// the in-memory memo without touching disk. This is a plain snapshot
/// struct: `PlanCache::stats()` materializes it atomically-per-counter, so
/// it is safe to read while requests are in flight.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t memoHits = 0;
  std::uint64_t summaryLookups = 0;
  std::uint64_t summaryHits = 0;
  std::uint64_t summaryMisses = 0;
  std::uint64_t summaryStores = 0;
  std::uint64_t summaryMemoHits = 0;

  [[nodiscard]] json::Value toJson() const;
};

/// Thread-safe on-disk store. One instance may be shared across concurrent
/// Sessions (the BatchDriver and the plan server do); the index is lock-
/// striped across kIndexShards independent shards, statistics are atomic,
/// and entry writes are atomic renames.
class PlanCache {
public:
  /// Lock stripes / on-disk index shard files. Fixed (it names on-disk
  /// files shared across processes): every process sharing a cache
  /// directory must agree on the row-to-shard map.
  static constexpr unsigned kIndexShards = 16;

  PlanCache(std::string directory, CacheMode mode);
  /// Flushes the index (see flushIndex) before destruction.
  ~PlanCache();

  [[nodiscard]] bool enabled() const {
    return mode_ != CacheMode::Off && !directory_.empty();
  }
  [[nodiscard]] bool writable() const {
    return mode_ == CacheMode::ReadWrite && !directory_.empty();
  }
  [[nodiscard]] CacheMode mode() const { return mode_; }
  [[nodiscard]] const std::string &directory() const { return directory_; }

  /// Content-addressed lookup. `fileName` is only used for stale-entry
  /// detection: a miss whose file+config index row points at a superseded
  /// entry counts as an invalidation (and drops the stale row in
  /// read-write mode; the entry file itself is kept).
  [[nodiscard]] std::optional<CacheEntry>
  lookup(const CacheKey &key, const std::string &fileName);

  /// Persists an entry (no-op unless writable) and points the file index at
  /// it.
  void store(const CacheKey &key, const CacheEntry &entry);

  /// Content-addressed lookup of a per-TU module-summary document
  /// (`summaries/<key-id>.json`). The payload is an opaque JSON value the
  /// Project layer owns; a stored document whose embedded key mismatches
  /// the lookup is rejected like a corrupted plan entry.
  [[nodiscard]] std::optional<json::Value>
  lookupSummary(const CacheKey &key);

  /// Persists a module-summary document (no-op unless writable; the
  /// in-memory memo is populated in read mode too, keeping a long-lived
  /// process's summaries hot without touching disk).
  void storeSummary(const CacheKey &key, const json::Value &payload);

  /// `<directory>/summaries/<key-id>.json`.
  [[nodiscard]] std::string summaryPathFor(const CacheKey &key) const;

  /// Atomic snapshot of the counters; safe to call concurrently with
  /// lookups/stores on other threads.
  [[nodiscard]] CacheStats stats() const;

  /// Drops the in-memory plan/summary memos (disk entries are untouched).
  /// The server's `invalidate` request uses this to force re-validation
  /// against disk.
  void dropMemos();

  /// Persists pending index-row changes (entry files are always written
  /// immediately; the index is write-behind so a batch does not rewrite it
  /// once per job). Called by the destructor; safe to call any time.
  void flushIndex();

  /// `<directory>/plans/<key-id>.json`.
  [[nodiscard]] std::string entryPathFor(const CacheKey &key) const;

  /// `<directory>/index-<NN>.json` for shard `shard` (< kIndexShards).
  [[nodiscard]] std::string indexShardPath(unsigned shard) const;

  /// Stable row-to-shard assignment (same for every process sharing the
  /// directory). Exposed for tests that pin the on-disk layout.
  [[nodiscard]] static unsigned shardOf(const std::string &row);

private:
  /// One lock stripe of the index: its rows, the rows this process changed
  /// (which disk merges must not overwrite), and write-behind state.
  struct IndexShard {
    std::mutex mutex;
    std::map<std::string, std::string> rows;
    /// Rows this process changed (stored, re-registered, or erased): the
    /// disk merge must not overwrite these with other processes' values,
    /// while every untouched row adopts the disk state.
    std::set<std::string> ownedRows;
    /// (row, stale id) pairs already counted as invalidations, so a
    /// read-only cache (which cannot erase the stale row) reports one
    /// invalidation per transition instead of one per lookup.
    std::set<std::pair<std::string, std::string>> countedStale;
    bool loaded = false;
    bool dirty = false;
  };

  void loadShardLocked(unsigned shard);
  /// Merges rows other processes wrote to this shard since our load — any
  /// row this process did not touch itself adopts the disk value — then
  /// persists the shard file.
  void saveShardLocked(unsigned shard);
  void mergeDiskShardLocked(unsigned shard);

  void memoizeEntry(const std::string &id, const CacheEntry &entry);
  void memoizeSummary(const std::string &id, const json::Value &payload);

  std::string directory_;
  CacheMode mode_;
  std::array<IndexShard, kIndexShards> shards_;

  /// Every counter is independently atomic (relaxed: they are statistics,
  /// not synchronization), so readers never block writers.
  struct Counters {
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::atomic<std::uint64_t> memoHits{0};
    std::atomic<std::uint64_t> summaryLookups{0};
    std::atomic<std::uint64_t> summaryHits{0};
    std::atomic<std::uint64_t> summaryMisses{0};
    std::atomic<std::uint64_t> summaryStores{0};
    std::atomic<std::uint64_t> summaryMemoHits{0};
  };
  mutable Counters counters_;

  /// In-memory memos keyed by CacheKey::id(). Entries are immutable by
  /// content address, so a memoized value never goes stale; the caps bound
  /// a long-lived server's footprint (inserts are skipped once full, and
  /// dropMemos() frees every key). The ids are not interned: interned names
  /// live for the whole process, and most keys of an editing client are
  /// seen once.
  std::mutex memoMutex_;
  std::unordered_map<std::string, CacheEntry> entryMemo_;
  std::unordered_map<std::string, json::Value> summaryMemo_;
};

} // namespace ompdart::cache
