#ifndef NODB_RAW_POSITIONAL_MAP_H_
#define NODB_RAW_POSITIONAL_MAP_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nodb {

/// The adaptive positional map (paper §3.1).
///
/// Low-level metadata about the structure of a raw CSV file, collected
/// exclusively as a side-effect of query-driven tokenizing and used by
/// later queries to jump (nearly) directly to the attributes they need.
///
/// Two layers of state:
///
///  1. **Tuple boundaries** (the row index): the absolute byte offset
///     where every known row starts, discovered sequentially the first
///     time the scan walks the file. Boundaries are the backbone that
///     makes all relative positions interpretable; they live outside
///     the eviction budget (8 bytes per row) and are dropped only when
///     the file is rewritten.
///
///  2. **Attribute chunks**: for a *block* of `rows_per_block`
///     consecutive rows and one attribute *combination* (the set a
///     query requested, stored together exactly as the paper
///     describes), the start/end byte span of each of those attributes
///     in each row, relative to the row start. Chunks are the LRU
///     eviction unit.
///
/// Lookup returns either the exact span of the requested attribute or
/// the best *anchor* — the known start of the greatest attribute not
/// exceeding the request — from which the tokenizer resumes scanning
/// mid-row instead of from byte 0.
///
/// **Concurrency.** The map is shared, incrementally-built state that
/// every query both reads and improves, so it is internally
/// synchronized:
///
///  - All published state (row index, chunks, LRU, counters) lives
///    under one reader/writer lock. Mutations (chunk commits, row
///    publication, eviction, LRU touches) are short exclusive critical
///    sections; no I/O or parsing ever happens under the lock.
///  - Chunks are immutable once committed and shared-owned: a
///    BlockPlan pins the chunks it draws from, so probing stays
///    lock-free for the whole block even if the chunks are evicted
///    concurrently. Scans snapshot a block's row bounds the same way
///    (SnapshotRows) and then locate rows without touching the lock.
///  - Frontier *discovery* — extending the row index, which requires
///    sequential newline I/O — is serialized by a separate baton
///    (Discovery): one thread walks the tail while every other query
///    keeps reading published rows; threads block only when they need
///    a row nobody has published yet.
class PositionalMap {
 private:
  struct Chunk;  // defined below; named early so BlockPlan can refer to it

 public:
  PositionalMap(size_t budget_bytes, uint32_t rows_per_block,
                uint32_t max_covering_chunks);

  // ------------------------------------------------------ tuple index
  /// Rows whose start offsets are known (contiguous from row 0).
  uint64_t known_rows() const EXCLUDES(mu_);

  /// Byte offset where row `row` starts. Requires row < known_rows().
  uint64_t row_start(uint64_t row) const EXCLUDES(mu_);

  /// Records the start of row known_rows() (sequential discovery).
  /// Prefer Discovery::PublishRows, which also publishes the rows' end;
  /// this remains for single-threaded index construction in tests.
  void AddRowStart(uint64_t offset) EXCLUDES(mu_);

  /// Marks that the discovery scan reached end of file: exactly
  /// known_rows() rows exist in `file_size` bytes.
  void MarkRowsComplete(uint64_t file_size) EXCLUDES(mu_);
  bool rows_complete() const EXCLUDES(mu_);
  uint64_t indexed_file_size() const EXCLUDES(mu_);

  /// Offset where the next undiscovered row starts (the resume point
  /// of an interrupted or append-extended discovery scan).
  uint64_t next_discovery_offset() const EXCLUDES(mu_);

  /// Moves the discovery cursor forward to `offset` on a still-empty
  /// index (skipping a header line). No-op once rows are published.
  void EnsureDiscoveryStartsAt(uint64_t offset) EXCLUDES(mu_);

  /// Replaces an *empty* row index in one publication: `starts` holds
  /// every row start in file order, `cursor` is one past the last
  /// row's end, and the index is marked complete for `file_size`
  /// bytes. The parallel first-touch scan merges through this so
  /// concurrent readers never observe a half-built index. No-op when
  /// rows were already published.
  void PublishRowIndex(std::vector<uint64_t> starts, uint64_t cursor,
                       uint64_t file_size) EXCLUDES(mu_);

  /// Reopens discovery after an append: the file grew but existing
  /// boundaries remain valid.
  void ReopenForAppend() EXCLUDES(mu_);

  /// Published-row snapshot of [first_row, first_row + count).
  struct RowSnapshot {
    uint32_t rows = 0;        ///< rows from first_row with known bounds
    uint64_t known_rows = 0;  ///< total published rows at snapshot time
    bool complete = false;    ///< discovery has reached end of file
  };

  /// Copies the bounds of up to `count` rows starting at `first_row`
  /// into `bounds`: entry i is the start of row first_row + i, and one
  /// sentinel entry past the last row is the offset one past that
  /// row's terminator — so row first_row + i spans
  /// [bounds[i], bounds[i+1] - 1). The caller then locates rows with
  /// plain array indexing, without further locking.
  RowSnapshot SnapshotRows(uint64_t first_row, uint32_t count,
                           std::vector<uint64_t>* bounds) const
      EXCLUDES(mu_);

  /// The discovery baton: serializes frontier extension. Constructing
  /// one blocks until the calling thread holds the baton; destruction
  /// releases it. Holders alternate NeedsRow (re-check under the data
  /// lock — another holder may have published the row meanwhile) with
  /// their own newline I/O and PublishRows, a window of rows at a time.
  class SCOPED_CAPABILITY Discovery {
   public:
    /// Blocks until this thread holds the baton.
    explicit Discovery(PositionalMap* map) ACQUIRE(map->discovery_mu_);
    ~Discovery() RELEASE();
    Discovery(const Discovery&) = delete;
    Discovery& operator=(const Discovery&) = delete;

    /// True when `row` still lacks published bounds and the file may
    /// hold it; `*resume` is the offset discovery must continue from
    /// and `*frontier_row` the index of the row starting there — when
    /// it equals `row`, the holder can serve the bounds it is about to
    /// publish directly, without re-reading the map.
    bool NeedsRow(uint64_t row, uint64_t* resume,
                  uint64_t* frontier_row) const EXCLUDES(map_->mu_);

    /// Publishes the next rows in one critical section: `starts` in
    /// file order (a start already published is skipped); `next`, one
    /// past the last row's terminator, becomes the discovery cursor.
    void PublishRows(const std::vector<uint64_t>& starts, uint64_t next)
        EXCLUDES(map_->mu_);

    /// The resume offset reached end of file: the index is complete.
    void MarkComplete(uint64_t file_size) EXCLUDES(map_->mu_);

   private:
    PositionalMap* map_;
  };

  // ------------------------------------------------------------ probe
  /// Result of probing the map for (row, attribute).
  struct Probe {
    bool exact = false;     ///< start/end of the attribute are known
    uint32_t start = 0;     ///< field start, relative to row start
    uint32_t end = 0;       ///< field end (delimiter offset), when exact
    uint32_t anchor_attr = 0;  ///< else: tokenize from this attribute...
    uint32_t anchor_rel = 0;   ///< ...which starts here (rel offset)
  };

  /// Prepared per-block lookup for a fixed attribute set: resolves
  /// which chunk serves each requested attribute once, then answers
  /// row-level probes with array indexing. The plan shares ownership
  /// of the chunks it draws from, so it stays valid — and lock-free —
  /// even when those chunks are evicted concurrently.
  class BlockPlan {
   public:
    /// attrs[i]'s source, resolved once per pass over the block: the
    /// chunk cells that serve it, probed per row by array indexing.
    struct Column {
      const uint32_t* cells = nullptr;  ///< row r's span: cells[r*stride]
      size_t stride = 0;
      uint64_t rows = 0;          ///< block rows the chunk covers
      bool exact = false;        ///< the cells are attrs[i]'s spans, or
      uint32_t anchor_attr = 0;  ///< the spans of this attribute - 1

      /// Probes block-relative row `rel`.
      Probe At(uint64_t rel) const {
        if (cells == nullptr || rel >= rows) return Probe();  // no help
        const uint32_t* cell = cells + rel * stride;
        return exact ? Probe{true, cell[0], cell[1], 0, 0}
                     : Probe{false, 0, 0, anchor_attr, cell[1] + 1};
      }
    };
    /// Valid while the plan lives.
    Column Resolve(size_t i) const;

    /// Probes (row, attrs[i]); `row` is absolute.
    Probe Lookup(uint64_t row, size_t i) const {
      return Resolve(i).At(row - block_first_row_);
    }

    uint64_t first_row() const { return block_first_row_; }

    /// Number of distinct chunks this plan draws from.
    uint32_t chunks_used() const { return chunks_used_; }

    /// True when every requested attribute has an exact source.
    bool fully_covered() const { return fully_covered_; }

   private:
    friend class PositionalMap;
    struct Source {
      std::shared_ptr<const Chunk> chunk;  // null = no information
      uint32_t column = 0;                 // index into chunk attrs
      bool exact = false;  // chunk column == requested attr
      uint32_t anchor_attr = 0;
    };
    uint64_t block_first_row_ = 0;
    std::vector<Source> sources_;  // parallel to requested attrs
    uint32_t chunks_used_ = 0;
    bool fully_covered_ = false;
  };

  /// Builds the lookup plan for `attrs` (sorted ascending) over the
  /// block containing `first_row` and touches used chunks' LRU state.
  BlockPlan PrepareBlock(uint64_t first_row,
                         const std::vector<uint32_t>& attrs) EXCLUDES(mu_);

  /// Distance policy: should the scan collect a new chunk for this
  /// combination in this block? True when the plan leaves attributes
  /// uncovered or scattered over more than `max_covering_chunks`.
  bool ShouldIndexCombination(const BlockPlan& plan) const;

  // ------------------------------------------------- chunk population
  /// Accumulates one block-chunk worth of spans during a scan. Thread
  /// confined: builders are filled privately and published atomically
  /// by CommitChunk.
  class ChunkBuilder {
   public:
    /// `spans` holds (start, end) per attribute, parallel to `attrs`.
    void AddRow(const uint32_t* starts, const uint32_t* ends);
    size_t rows() const { return rows_; }

   private:
    friend class PositionalMap;
    uint64_t first_row_ = 0;
    std::vector<uint32_t> attrs_;
    std::vector<uint32_t> data_;  // interleaved start,end per attr
    size_t rows_ = 0;
  };

  /// Starts collecting a chunk for `attrs` (sorted) at `first_row`
  /// (a block boundary).
  ChunkBuilder StartChunk(uint64_t first_row,
                          const std::vector<uint32_t>& attrs);

  /// Installs a finished chunk and evicts LRU chunks over budget. When
  /// a concurrent query already committed an equal-or-better chunk for
  /// the same (block, combination) — the two parsed identical bytes —
  /// the duplicate is dropped and the survivor's recency refreshed.
  void CommitChunk(ChunkBuilder builder) EXCLUDES(mu_);

  // ------------------------------------------------------------ stats
  size_t bytes_used() const EXCLUDES(mu_);
  size_t budget_bytes() const { return budget_bytes_; }
  double utilization() const EXCLUDES(mu_);
  size_t num_chunks() const EXCLUDES(mu_);
  uint64_t evictions() const EXCLUDES(mu_);
  uint32_t rows_per_block() const { return rows_per_block_; }

  /// Fraction of known rows whose positions for `attr` are indexed.
  double CoverageFraction(uint32_t attr) const EXCLUDES(mu_);

  /// Drops every chunk and the row index (file rewritten).
  void Clear() EXCLUDES(mu_);

  // ---------------------------------------------------- freeze / thaw
  /// A serializable copy of the map's published state (persist/):
  /// the row index plus every committed chunk. Chunk data is spans
  /// relative to row starts, so an image stays valid for exactly the
  /// file generation it was exported from — validity is the snapshot
  /// subsystem's job (signature check), not the image's.
  struct Image {
    struct ChunkImage {
      uint64_t first_row = 0;
      std::vector<uint32_t> attrs;  // sorted combination
      std::vector<uint32_t> data;   // rows × attrs × {start,end}
    };
    std::vector<uint64_t> row_starts;
    bool rows_complete = false;
    uint64_t indexed_file_size = 0;
    uint64_t next_discovery_offset = 0;
    std::vector<ChunkImage> chunks;
  };

  /// Copies the published state into an Image (one shared lock; no
  /// I/O). Safe to call while scans are in flight — the image is a
  /// consistent cut of the row index and chunk set.
  Image ExportImage() const EXCLUDES(mu_);

  /// Restores an exported image into a *cold* map: returns false (and
  /// imports nothing) when rows or chunks already exist, when the
  /// image's row index is not strictly ascending, or when a chunk is
  /// malformed for this map's rows_per_block. Chunks are admitted
  /// newest-first under the normal byte budget.
  bool ImportImage(Image image) EXCLUDES(mu_);

 private:
  /// One (block × attribute-combination) unit; the LRU element.
  /// Immutable once committed (only LRU position mutates, under mu_).
  struct Chunk {
    uint64_t first_row = 0;
    std::vector<uint32_t> attrs;  // sorted combination
    std::vector<uint32_t> data;   // rows × attrs × {start,end}
    size_t rows = 0;
    size_t bytes = 0;
    std::list<Chunk*>::iterator lru_pos;
  };

  uint64_t BlockIndex(uint64_t row) const { return row / rows_per_block_; }
  void Touch(Chunk* chunk) REQUIRES(mu_);
  void EvictOverBudget() REQUIRES(mu_);

  const size_t budget_bytes_;
  const uint32_t rows_per_block_;
  const uint32_t max_covering_chunks_;

  /// Guards all published state below. Exclusive for mutation, shared
  /// for reads; never held across I/O or parsing.
  mutable SharedMutex mu_;

  /// Serializes frontier discovery (see Discovery). Lock order: the
  /// baton is always acquired before mu_, never the other way around
  /// (encoded in ACQUIRED_BEFORE; see table_state.h for the full
  /// table-wide hierarchy).
  Mutex discovery_mu_ ACQUIRED_BEFORE(mu_);

  std::vector<uint64_t> row_starts_ GUARDED_BY(mu_);
  bool rows_complete_ GUARDED_BY(mu_) = false;
  uint64_t indexed_file_size_ GUARDED_BY(mu_) = 0;
  uint64_t next_discovery_offset_ GUARDED_BY(mu_) = 0;

  /// block index -> chunks covering that block.
  std::map<uint64_t, std::vector<std::shared_ptr<Chunk>>> blocks_
      GUARDED_BY(mu_);
  std::list<Chunk*> lru_ GUARDED_BY(mu_);  // front = most recent
  size_t bytes_used_ GUARDED_BY(mu_) = 0;
  size_t num_chunks_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace nodb

#endif  // NODB_RAW_POSITIONAL_MAP_H_
