#ifndef NODB_STORE_SEGMENT_STORE_H_
#define NODB_STORE_SEGMENT_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "types/column_vector.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nodb {

namespace obs {
class Counter;
}  // namespace obs

/// Parsed column segments keyed by (attribute, row-block) under an LRU
/// byte budget. Each table keeps two instances, one per storage tier:
///
///  - the binary cache (paper §3.2): whatever segments recent scans
///    happened to parse, "in the format of the positional map" — the
///    same rows_per_block granularity, so a scan can serve one
///    attribute of a block from cache while tokenizing another from
///    the raw file. Only attributes a query requested are inserted
///    ("caching does not force additional data to be parsed").
///  - the shadow column store: *promoted* segments of hot attributes,
///    admitted only when a segment provably covers its whole block. A
///    block all of whose needed columns are resident is served without
///    touching the raw file, the tokenizer, the value parser or the
///    positional map — the paper's adaptive-loading end state reached
///    without a load phase.
///
/// Thread-safe: one internal mutex guards the index, the LRU list and
/// the counters. Segments are immutable and shared-owned, so a scan
/// that obtained a segment keeps it valid even if it is evicted
/// concurrently.
///
/// Invalidation: Clear() on rewrite advances the generation, so a scan
/// that opened against the old file cannot repopulate the cleared
/// instance; DropBlocksFrom() on append (the block containing the old
/// frontier gains rows, earlier full blocks stay valid).
class SegmentStore {
 public:
  /// `admitted` and `evicted` are the tier's process-wide counters
  /// (nullptr = not exported); the per-instance counters below stay
  /// the per-table view.
  explicit SegmentStore(size_t budget_bytes, obs::Counter* admitted = nullptr,
                        obs::Counter* evicted = nullptr)
      : budget_bytes_(budget_bytes), admitted_(admitted), evicted_(evicted) {}

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Returns the segment for (attr, block) or nullptr. Hits refresh
  /// LRU recency; hits and misses are counted.
  std::shared_ptr<const ColumnVector> Get(uint32_t attr, uint64_t block)
      EXCLUDES(mu_);

  /// Peeks without touching LRU or counters (planning-time check).
  bool Contains(uint32_t attr, uint64_t block) const EXCLUDES(mu_);

  /// All-or-nothing block probe: fills `out` with the segment of every
  /// attribute of `attrs` for `block` and refreshes their recency
  /// (one hit counted), or leaves the store untouched and returns
  /// false (one miss counted). This is the scan's fast-path check for
  /// "serve this block straight from the store".
  bool GetBlock(const std::vector<uint32_t>& attrs, uint64_t block,
                std::vector<std::shared_ptr<const ColumnVector>>* out)
      EXCLUDES(mu_);

  /// Inserts a segment, attributed to the calling thread's tenant
  /// (obs::ScopedTenantLabel::CurrentId(); 0 = untagged).
  ///  - A stale `generation` is rejected: a scan that opened against a
  ///    file that has since been rewritten must not repopulate the
  ///    cleared store with old-file data.
  ///  - A resident key with the same row count is left alone: within
  ///    one generation that segment parsed the same bytes. A different
  ///    row count (a tail block that grew after an append) replaces
  ///    it, and the old entry goes even when the new one is rejected.
  ///  - Segments larger than the whole budget are rejected silently;
  ///    otherwise entries over budget are evicted (see EvictOverBudget).
  void Put(uint32_t attr, uint64_t block,
           std::shared_ptr<const ColumnVector> segment, uint64_t generation)
      EXCLUDES(mu_);

  /// The current file generation; snapshot it before opening the file
  /// handle a scan will parse from, and pass it back to Put.
  uint64_t generation() const {
    MutexLock lock(mu_);
    return generation_;
  }

  /// Drops every segment of block >= `first_block` (append: the block
  /// containing the old frontier is about to gain rows).
  void DropBlocksFrom(uint64_t first_block) EXCLUDES(mu_);

  /// Drops every attribute's segment of exactly `block` (serve-time
  /// invalidation of one stale block).
  void DropBlock(uint64_t block) EXCLUDES(mu_);

  /// Drops everything and advances the generation (file rewritten /
  /// table replaced): in-flight inserts of the old file are rejected
  /// from here on. Counters are kept.
  void Clear() EXCLUDES(mu_);

  size_t bytes_used() const {
    MutexLock lock(mu_);
    return bytes_used_;
  }
  size_t budget_bytes() const { return budget_bytes_; }
  double utilization() const {
    MutexLock lock(mu_);
    return budget_bytes_ == 0
               ? 0.0
               : static_cast<double>(bytes_used_) / budget_bytes_;
  }
  size_t num_segments() const {
    MutexLock lock(mu_);
    return entries_.size();
  }
  uint64_t hits() const {
    MutexLock lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    MutexLock lock(mu_);
    return misses_;
  }
  uint64_t evictions() const {
    MutexLock lock(mu_);
    return evictions_;
  }
  /// Segments admitted by Put (store promotions, cache insertions).
  uint64_t promotions() const {
    MutexLock lock(mu_);
    return promotions_;
  }

  /// Bytes currently resident on behalf of `owner` (tenant id; 0 =
  /// untagged). Multi-tenant budget observability and tests.
  size_t bytes_used_by(uint32_t owner) const EXCLUDES(mu_);

  /// Rows of `attr` currently materialized (sum of resident segment
  /// sizes) — the promoter's coverage check.
  uint64_t rows_materialized(uint32_t attr) const EXCLUDES(mu_);

  /// Attributes with any resident segment, ascending (tier report).
  std::vector<uint32_t> MaterializedAttributes() const EXCLUDES(mu_);

  /// Serializable manifest (persist/): every resident (attr, block)
  /// with a shared reference to its immutable segment — exporting
  /// copies no column data. LRU order, most recent first.
  struct Image {
    struct SegmentImage {
      uint32_t attr = 0;
      uint64_t block = 0;
      std::shared_ptr<const ColumnVector> segment;
    };
    std::vector<SegmentImage> segments;
  };

  Image ExportImage() const EXCLUDES(mu_);

  /// Re-inserts an image's segments into an *empty* store (false and
  /// no-op otherwise), oldest first so recency is reproduced; the
  /// normal budget/admission rules apply, so a smaller budget keeps
  /// the hottest tail.
  bool ImportImage(const Image& image) EXCLUDES(mu_);

 private:
  struct Key {
    uint32_t attr;
    uint64_t block;
    bool operator==(const Key& o) const {
      return attr == o.attr && block == o.block;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(
          CombineHash64(MixHash64(k.attr), MixHash64(k.block)));
    }
  };
  struct Entry {
    std::shared_ptr<const ColumnVector> segment;
    size_t bytes = 0;
    uint32_t owner = 0;  ///< tenant id that inserted it (0 = untagged)
    std::list<Key>::iterator lru_pos;
  };
  using Map = std::unordered_map<Key, Entry, KeyHash>;

  /// Unlinks one entry, keeping byte, row and per-owner accounting
  /// exact.
  void RemoveLocked(Map::iterator it) REQUIRES(mu_);

  /// Drops every segment with first_block <= block < end_block.
  void DropRange(uint64_t first_block, uint64_t end_block) EXCLUDES(mu_);

  /// Fair-share eviction: while over budget, the victim is the
  /// least-recent segment of an owner holding more than budget /
  /// active-owners bytes, so a hot tenant's churn evicts its own
  /// segments before another tenant's. The entry inserted last (the
  /// LRU front) is never the victim; an over-budget store always has
  /// an over-share owner (pigeonhole), and the LRU tail is the
  /// fallback when that owner is only the newest entry's. With one
  /// owner this is plain LRU.
  void EvictOverBudget() REQUIRES(mu_);

  const size_t budget_bytes_;
  obs::Counter* const admitted_;
  obs::Counter* const evicted_;
  mutable Mutex mu_;
  Map entries_ GUARDED_BY(mu_);
  std::list<Key> lru_ GUARDED_BY(mu_);  // front = most recent
  std::vector<uint64_t> rows_ GUARDED_BY(mu_);  // per-attr rows
  /// Resident bytes per owner (erased at zero, so size() is the
  /// active-owner count the fair share divides by).
  std::unordered_map<uint32_t, size_t> owner_bytes_ GUARDED_BY(mu_);
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  size_t bytes_used_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t promotions_ GUARDED_BY(mu_) = 0;
};

}  // namespace nodb

#endif  // NODB_STORE_SEGMENT_STORE_H_
