#ifndef NODB_RAW_TABLE_STATE_H_
#define NODB_RAW_TABLE_STATE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "io/file.h"
#include "io/file_signature.h"
#include "persist/image.h"
#include "raw/nodb_config.h"
#include "raw/positional_map.h"
#include "raw/stats_collector.h"
#include "store/segment_store.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace nodb {

/// Runtime component switches (the demo GUI's toggles), snapshotted by
/// each scan when it opens.
struct ComponentFlags {
  bool map = true;
  bool cache = true;
  bool stats = true;
  bool store = true;

  bool any() const { return map || cache || stats || store; }
};

/// All adaptive state a NoDB engine accumulates for one raw table:
/// the positional map, the binary cache, the on-the-fly statistics,
/// the open file handle and the change-detection signature. Everything
/// here is *disposable* — it is rebuilt from the raw file on demand —
/// which is what makes in-situ querying safe under external updates.
///
/// Shared by every concurrent query over the table. The component
/// structures are internally synchronized (see their headers); this
/// class's own mutex guards the file handle, signature, runtime flags
/// and access counters. File metadata (info(), config()) is immutable
/// while queries are in flight — CheckForUpdates/ReplaceFile must not
/// race with scans of the *new* generation, though scans of the old
/// generation keep their shared file handle and finish safely.
class RawTableState {
 public:
  RawTableState(RawTableInfo info, const NoDbConfig& config);

  /// Opens the raw file and captures the initial signature.
  Status Open() EXCLUDES(mu_);

  /// Re-checks the raw file (demo §4.2 "Updates"):
  ///  - unchanged: no-op;
  ///  - appended (and the old content ended with a newline): keep all
  ///    structures, reopen row discovery for the tail;
  ///  - rewritten: drop map, cache and statistics.
  Result<FileChange> CheckForUpdates() EXCLUDES(mu_);

  /// Points the state at a different file (the demo's "new data file"
  /// scenario); drops all structures.
  Status ReplaceFile(const RawTableInfo& info) EXCLUDES(mu_);

  const RawTableInfo& info() const { return info_; }
  const NoDbConfig& config() const { return config_; }

  /// Flips the component enable flags at runtime (demo GUI switches).
  /// Budgets and block granularity stay fixed; retained structures are
  /// simply ignored while their component is off. Scans snapshot the
  /// flags at Open, so a flip applies to subsequent queries.
  void SetComponentFlags(bool map, bool cache, bool stats, bool store)
      EXCLUDES(mu_);
  ComponentFlags component_flags() const EXCLUDES(mu_);

  /// The shared raw-file handle (positional reads are thread-safe);
  /// nullptr before Open. Callers keep the returned handle for the
  /// whole scan so a concurrent reopen cannot pull it out from under
  /// them.
  std::shared_ptr<RandomAccessFile> file() const EXCLUDES(mu_);

  PositionalMap& map() { return map_; }
  const PositionalMap& map() const { return map_; }
  SegmentStore& cache() { return cache_; }
  const SegmentStore& cache() const { return cache_; }
  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }
  SegmentStore& store() { return store_; }
  const SegmentStore& store() const { return store_; }
  ZoneMaps& zones() { return zones_; }
  const ZoneMaps& zones() const { return zones_; }

  /// Per-attribute access counts (monitoring panel usage statistics).
  void RecordAttributeAccess(const std::vector<uint32_t>& attrs)
      EXCLUDES(mu_);
  std::vector<uint64_t> attribute_access_counts() const EXCLUDES(mu_);

  /// Claims a background shadow-store promotion pass for the given
  /// (hot-attribute set, known-row count) target. Returns false while
  /// another pass is in flight, or when the last *completed* pass
  /// already covered the same target — a budget-bound store is not
  /// re-promoted in a loop; only new heat or new rows re-arm it.
  bool TryBeginPromotion(std::vector<uint32_t> hot_attrs,
                         uint64_t known_rows) EXCLUDES(mu_);

  /// Releases the promotion claim. `completed` records the staged
  /// target as done; a failed pass leaves it re-armed.
  void EndPromotion(bool completed) EXCLUDES(mu_);
  bool promotion_in_flight() const EXCLUDES(mu_);

  // -------------------------------------------- persistence (persist/)
  /// The signature the adaptive structures are valid for — captured at
  /// Open / last CheckForUpdates, i.e. exactly the file generation the
  /// structures describe. The snapshot writer records this (never a
  /// fresh capture): if the raw file changed after the structures were
  /// last validated, the stale signature makes the loader cold-start
  /// rather than trust mismatched state.
  FileSignature signature() const EXCLUDES(mu_);

  /// Freezes the four persistent structures into serializable images.
  /// Safe while queries are in flight: each structure exports a
  /// consistent cut under its own lock (the cache tier is deliberately
  /// not persisted — it is a recency cache, cheaply re-earned, and its
  /// hottest contents are promoted into the store anyway).
  persist::AdaptiveImage Freeze() const;

  /// Thaws images into the (cold) structures and records the recovery
  /// report. Each structure imports independently and refuses if it
  /// already has live state, composing with the generation-tagging
  /// rules: imports target the current generation, so a concurrent
  /// rewrite still invalidates recovered state like any other. With
  /// `change == kAppended` the prefix is recovered and the structures
  /// are re-opened exactly like CheckForUpdates' clean-append path —
  /// discovery resumes at the old frontier and only the tail is
  /// first-touched. `detail` annotates the stored report.
  persist::RecoveryReport Thaw(persist::AdaptiveImage image,
                               FileChange change, std::string detail = "");

  /// The last recovery attempt's report (default-constructed before
  /// any attempt): MonitorPanel's recovered-vs-rebuilt line and the
  /// scan-metrics provenance counters read this.
  persist::RecoveryReport recovery() const EXCLUDES(mu_);
  void RecordRecovery(persist::RecoveryReport report) EXCLUDES(mu_);

 private:
  Status OpenLocked() REQUIRES(mu_);
  void InvalidateAllLocked() REQUIRES(mu_);
  /// Drops the block an append extends from store, cache and zones —
  /// CheckForUpdates' clean-append path and Thaw's appended path.
  void DropFrontierBlock();

  /// Mutated only by ReplaceFile, which the API contract requires to
  /// run with no queries in flight; scans read it lock-free through
  /// info(). Deliberately not GUARDED_BY(mu_) for that reason.
  RawTableInfo info_;
  const NoDbConfig config_;

  // ------------------------------------------------- lock discipline
  /// Canonical acquisition order for everything reachable from one
  /// table (outermost first); every path through the engine acquires
  /// along this order, never against it:
  ///
  ///   1. RawTableState::mu_        (this lock: handle/flags/claims)
  ///   2. PositionalMap::discovery_mu_  then  PositionalMap::mu_
  ///   3. SegmentStore::mu_     (cache_ or store_, never both)
  ///   4. StatsCollector / AttributeStats / ZoneMaps mu_
  ///
  /// The component structures never call back up the stack (a map
  /// operation cannot touch a segment tier, one tier never touches the
  /// other, ...), so holding an outer lock while entering an inner
  /// structure is safe and the reverse never happens. ACQUIRED_BEFORE
  /// on PositionalMap::discovery_mu_ encodes the one intra-structure
  /// edge; NoDbEngine's locks (states_mu_, promo_mu_, pool_mu_,
  /// totals_mu_) sit above level 1 and are leaf-only among themselves.
  mutable Mutex mu_;
  ComponentFlags flags_ GUARDED_BY(mu_);
  std::shared_ptr<RandomAccessFile> file_ GUARDED_BY(mu_);
  FileSignature signature_ GUARDED_BY(mu_);
  std::vector<uint64_t> access_counts_ GUARDED_BY(mu_);

  bool promotion_in_flight_ GUARDED_BY(mu_) = false;
  std::vector<uint32_t> staged_hot_ GUARDED_BY(mu_);  // in-flight target
  uint64_t staged_rows_ GUARDED_BY(mu_) = 0;
  std::vector<uint32_t> promoted_hot_
      GUARDED_BY(mu_);  // last completed pass target
  uint64_t promoted_rows_ GUARDED_BY(mu_) = UINT64_MAX;

  persist::RecoveryReport recovery_
      GUARDED_BY(mu_);  // last snapshot-recovery attempt

  PositionalMap map_;
  SegmentStore cache_;  // recently parsed segments (paper §3.2)
  StatsCollector stats_;
  SegmentStore store_;  // promoted full-block segments of hot columns
  ZoneMaps zones_;
};

}  // namespace nodb

#endif  // NODB_RAW_TABLE_STATE_H_
