#ifndef NODB_RAW_RAW_SCAN_H_
#define NODB_RAW_RAW_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "csv/tokenizer.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "io/buffered_reader.h"
#include "raw/scan_metrics.h"
#include "raw/table_state.h"

namespace nodb {

/// The in-situ scan operator — PostgresRaw's replacement for the leaf
/// of a conventional query plan (paper §3).
///
/// For every tuple it:
///   1. locates the tuple's byte range (from the positional map's row
///      index when known, otherwise by scanning for the newline and
///      teaching the map);
///   2. serves each requested attribute from the binary cache when the
///      block segment is resident;
///   3. otherwise finds the attribute's span: exactly from a positional
///      map chunk, or by tokenizing from the nearest map anchor — never
///      past the last requested attribute (*selective tokenizing*);
///   4. converts only those spans to binary (*selective parsing*) and
///      emits batches containing only the requested columns
///      (*selective tuple formation* together with the columnar
///      filter);
///   5. as side effects populates the map (per the distance policy),
///      the cache and the statistics for the touched blocks — and,
///      for attributes whose access heat crossed the promotion
///      threshold, hands the fully parsed (or cache-resident) block
///      segments to the shadow column store (piggybacked promotion:
///      the scan that parsed a hot column pays for it exactly once).
///
/// The scan builds a **hybrid block plan**: blocks all of whose needed
/// columns are already materialized in the shadow store are emitted
/// straight from the store — no row location, no positional-map
/// lookup, no tokenizing, no value parsing — while the remaining
/// blocks take the raw/cache path above, and the two interleave
/// freely. Results are byte-identical either way. Store serving
/// requires the positional-map component (the raw residue relies on
/// it to locate rows after a served block).
///
/// All NoDB structures honor the per-table NoDbConfig; with everything
/// disabled this operator *is* the paper's "Baseline" external-files
/// scan.
///
/// Many operators may scan the same RawTableState concurrently. Each
/// operator keeps all parsing state private and interacts with the
/// shared structures only through their synchronized interfaces:
/// per block it snapshots the published row bounds (SnapshotRows) and
/// pins a chunk plan (PrepareBlock), then locates, tokenizes and
/// parses rows without any locking; finished segments and chunks are
/// published in short exclusive sections at block commit. Only the
/// undiscovered tail serializes (the map's discovery baton) — queries
/// never wait on each other's parsing, only on publication of rows
/// nobody has walked yet.
class RawScanOperator final : public ExecOperator {
 public:
  /// `projection`: table attribute indices to emit, ascending. May be
  /// empty (COUNT(*) plans): rows are located but nothing is parsed.
  /// `metrics` (optional) receives the scan's cost breakdown.
  /// `internal`: an engine-internal pass (the store promoter) — it
  /// does not record attribute accesses, so usage counts and promotion
  /// heat keep meaning "scans the workload requested".
  RawScanOperator(RawTableState* state, std::vector<uint32_t> projection,
                  ScanMetrics* metrics, bool internal = false);

  /// Arms predicate pushdown: `predicates` are boolean conjuncts bound
  /// over this scan's *output* schema (every referenced column is in
  /// the projection). The scan then evaluates them two-phase per block
  /// — tokenize/parse only the predicate columns for every row,
  /// vectorize the conjuncts over that partial batch, and parse the
  /// remaining projection columns only for qualifying rows — and,
  /// when zone maps are enabled, skips blocks provably disjoint from a
  /// pushed range/equality predicate without locating a single row.
  /// Emitted rows are exactly the rows a FilterOperator cascade over
  /// the unfiltered scan would keep (NULL predicates drop the row,
  /// like SQL WHERE). Call before Open.
  void SetPushdownPredicates(std::vector<ExprPtr> predicates);

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override { return schema_; }

 private:
  /// Per-needed-attribute working state for the current block.
  struct AttrState {
    uint32_t attr = 0;
    DataType type = DataType::kInt64;
    std::shared_ptr<const ColumnVector> cached;  // resident segment
    std::unique_ptr<ColumnVector> building;      // cache/stats segment
  };

  Status EnterBlock(uint64_t row);
  Status CommitBlock();
  Result<bool> LocateRow(uint64_t row, uint64_t* start, uint64_t* end);

  /// A pushed `col op literal` conjunct in zone-checkable form.
  struct ZonePredicate {
    uint32_t attr = 0;  // table attribute index
    CompareOp op = CompareOp::kEq;
    bool lit_is_int = false;
    int64_t lit_i = 0;
    double lit_d = 0;
  };

  /// ---- pushdown path (predicates_ non-empty). One call processes
  /// exactly one row-block: zone-skips it, serves it from the store,
  /// or runs the two-phase raw/cache parse — and returns the block's
  /// qualifying rows (possibly an empty batch; nullptr only for a
  /// skipped block).
  Result<BatchPtr> NextPushdown();
  Result<BatchPtr> ProcessPushdownBlock();
  bool ZoneSkipsBlock(uint64_t block, uint64_t* rows_in_block) const;
  Result<bool> TryPushdownStoreBlock(uint64_t block, BatchPtr* staged);
  Result<BatchPtr> PushdownRawBlock(uint64_t block);

  /// Evaluates every pushed conjunct over `batch` and narrows one
  /// selection vector through them with SelectTrue (SQL WHERE: NULL
  /// drops). Fills `sel` with the qualifying rows, in order, and
  /// returns their number.
  Result<size_t> EvaluatePushdown(const RecordBatch& batch,
                                  std::vector<uint32_t>* sel) const;

  /// Tokenizes the spans of `subset` (indices into `probe_attrs`,
  /// which the block plan was prepared with) for one row, writing into
  /// `starts`/`ends` parallel to `subset`. `count_blind` attributes a
  /// from-byte-0 walk to map_blind_rows — pass it on the first pass
  /// over a row only, so two-phase rows count once like any other.
  Status TokenizeSpans(Slice line, uint64_t row,
                       const std::optional<PositionalMap::BlockPlan>& plan,
                       const std::vector<uint32_t>& probe_attrs,
                       const std::vector<size_t>& subset, uint32_t* starts,
                       uint32_t* ends, bool count_blind);

  /// True when `segment_rows` provably covers the whole of `block`
  /// (full block, or the known tail of a completed row index) — the
  /// admission rule shared by cache residency and store promotion.
  bool SegmentCoversBlock(size_t segment_rows, uint64_t block) const;

  /// The one zone-map admission path for this scan: installs a summary
  /// for (attr, block) iff collection is on, the attribute's payload
  /// is summarizable, `segment` provably covers the block, and no
  /// entry exists yet. Safe to call with any parsed segment — cache,
  /// store or freshly built.
  void MaybeObserveZone(uint32_t attr, uint64_t block,
                        const ColumnVector& segment);

  /// Fetches `block`'s promoted segments into store_segments_ and runs
  /// the serve-time validation shared by both store paths: all
  /// attributes must agree on the row count, and a short segment must
  /// match the completed row index *right now* (a stale pre-append
  /// tail fails, is evicted, and the block re-parses raw). False when
  /// the block is absent or stale; `*rows` is its row count on success.
  bool FetchStoreBlock(uint64_t block, size_t* rows);

  /// Tries to serve the block containing `row` (a block boundary)
  /// entirely from the shadow store. On success commits the previous
  /// block and arms the store fast path.
  Result<bool> TryEnterStoreBlock(uint64_t row);

  RawTableState* state_;
  std::vector<uint32_t> projection_;
  ScanMetrics* metrics_;
  ScanMetrics local_metrics_;  // used when metrics == nullptr
  bool internal_ = false;      // engine-internal pass: no access records

  std::shared_ptr<Schema> schema_;
  std::string table_name_;  // snapshotted for error messages
  std::string table_path_;
  CsvTokenizer tokenizer_;
  std::unique_ptr<BufferedReader> reader_;

  bool use_map_ = false;
  bool use_cache_ = false;
  bool use_stats_ = false;
  bool use_store_ = false;    // promotion side effects enabled
  bool serve_store_ = false;  // store fast path enabled (needs the map)
  bool collect_zones_ = false;  // summarize full blocks into zone maps
  bool skip_zones_ = false;     // prune blocks via zone maps (needs map)
  uint64_t store_generation_ = 0;  // file generation this scan parses
  uint64_t zone_generation_ = 0;   // ditto, for zone-map observation

  // Predicate pushdown (empty = legacy row-at-a-time path).
  std::vector<ExprPtr> predicates_;
  std::vector<bool> pred_slot_;          // projection slot is phase-1
  std::vector<ZonePredicate> zone_preds_;  // zone-checkable conjuncts

  uint64_t row_ = 0;
  uint64_t local_offset_ = 0;  // discovery cursor when the map is off
  bool exhausted_ = false;
  uint64_t header_skip_ = 0;   // bytes of header line (has_header files)

  // Lock-free row location: published bounds of rows
  // [window_first_, window_first_ + window_rows_), snapshotted from the
  // map; window_bounds_ has window_rows_ + 1 entries (see SnapshotRows).
  uint64_t window_first_ = 0;
  uint32_t window_rows_ = 0;
  std::vector<uint64_t> window_bounds_;

  // Store fast path: rows [block_first_row_, store_until_row_) are
  // emitted straight from store_segments_ (parallel to projection_).
  bool store_block_ = false;
  bool store_tail_ = false;  // served block is the file's last
  uint64_t store_until_row_ = 0;
  std::vector<std::shared_ptr<const ColumnVector>> store_segments_;
  std::vector<bool> promote_attr_;  // projection slot is promotion-hot

  // Current block state.
  uint64_t current_block_ = UINT64_MAX;
  uint64_t block_first_row_ = 0;
  bool block_has_building_ = false;  // some attr accumulates a segment
  std::vector<AttrState> attr_states_;
  std::optional<PositionalMap::BlockPlan> block_plan_;
  std::optional<PositionalMap::ChunkBuilder> chunk_builder_;
  std::vector<uint32_t> probe_attrs_;  // attrs not served by the cache
  std::vector<size_t> probe_slot_;     // probe j -> attr_states_ index
  std::vector<size_t> probe_identity_;  // 0..n-1, TokenizeSpans subset
  std::vector<uint32_t> chunk_attrs_;  // attrs recorded in the builder

  // Reused per-row scratch.
  std::vector<uint32_t> starts_;
  std::vector<uint32_t> span_start_;  // per projection slot
  std::vector<uint32_t> span_end_;
  std::string decode_scratch_;

  // Reused per-block pushdown scratch.
  std::vector<std::pair<uint64_t, uint64_t>> pd_bounds_;  // row byte spans
  std::vector<uint32_t> pd_sel_;  // qualifying rows of the block
};

}  // namespace nodb

#endif  // NODB_RAW_RAW_SCAN_H_
