#ifndef NODB_RAW_RAW_SCAN_H_
#define NODB_RAW_RAW_SCAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "csv/tokenizer.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "io/buffered_reader.h"
#include "raw/scan_metrics.h"
#include "raw/table_state.h"

namespace nodb {

/// The tokenize pass of a raw scan. Prepare resolves the block plan
/// once per block and groups its attributes into segments; per row, an
/// attribute the map knows exactly is copied from its chunk, and each
/// run of attributes without an exact span is cut by one
/// CsvTokenizer::ScanStarts call from the run's best anchor, never past
/// its last attribute (*selective tokenizing*). A run breaks wherever an
/// anchor would jump past the previous attribute, so spans, counters
/// and errors are those of cutting each attribute alone. A row is cut
/// in two parts, CutFirst and CutRest; a part that starts after an
/// attribute resumes from that attribute's span, so no field is cut
/// twice.
class SpanCutter {
 public:
  /// The pointees (`table` and `path` name errors) outlive the cutter.
  SpanCutter(const CsvTokenizer* tokenizer, const std::string* table,
             const std::string* path)
      : tokenizer_(tokenizer), table_(table), path_(path) {}

  /// Starts a block's cuts of `attrs` (ascending; `plan`, if not null,
  /// was prepared with them). A row's first cut takes the attributes
  /// through the last one `first` marks (ascending indices into
  /// `attrs`), except each unmarked one that an anchor or exact span
  /// jumps over on the way to the next marked one; the rest of the row
  /// takes the others.
  void Prepare(const PositionalMap::BlockPlan* plan,
               const std::vector<uint32_t>& attrs,
               const std::vector<size_t>& first);

  /// Cuts the first-cut attributes of absolute row `row` (`line`: its
  /// bytes without the '\n') into starts[k]/ends[k] and counts into
  /// `metrics`; a row whose attribute 0 is cut from byte 0 counts in
  /// map_blind_rows. A short row returns false with its first missing
  /// attribute's error in `*error`.
  bool CutFirst(Slice line, uint64_t row, uint32_t* starts, uint32_t* ends,
                ScanMetrics* metrics, Status* error) {
    return CutPart(false, line, row, starts, ends, metrics, error);
  }

  /// After CutFirst, cuts the row's other attributes into the same
  /// arrays, each part resuming from the span before it. The two give
  /// one whole cut's spans; when the first cut leaves no attribute out,
  /// also its counters and errors.
  bool CutRest(Slice line, uint64_t row, uint32_t* starts, uint32_t* ends,
               ScanMetrics* metrics, Status* error) {
    return CutPart(true, line, row, starts, ends, metrics, error);
  }

 private:
  /// Attributes [begin, end): one exact span, or one ScanStarts run.
  /// The first cut takes [begin, cut), the rest [cut, end).
  struct Segment {
    size_t begin = 0;
    size_t cut = 0;
    size_t end = 0;
    PositionalMap::BlockPlan::Column source;  // of attribute `begin`
  };

  bool CutPart(bool rest, Slice line, uint64_t row, uint32_t* starts,
               uint32_t* ends, ScanMetrics* metrics, Status* error);

  const CsvTokenizer* tokenizer_;
  const std::string* table_;
  const std::string* path_;
  uint64_t first_row_ = 0;  // the plan's block's first row
  std::vector<uint32_t> attrs_;
  std::vector<Segment> segments_;
  std::vector<uint32_t> field_starts_;  // ScanStarts scratch
};

/// The in-situ scan operator — PostgresRaw's replacement for the leaf
/// of a conventional query plan (paper §3).
///
/// The scan works one row-block (`rows_per_block` rows) at a time, and
/// each call of Next() returns one block's rows. Per block it:
///   1. skips the block when a zone map proves it disjoint from a
///      pushed range/equality conjunct;
///   2. serves the block from the shadow column store when every
///      needed column is materialized there — no row location, no
///      positional-map lookup, no tokenizing, no value parsing;
///   3. otherwise works through the block one *run* (the rows whose
///      bytes fit the read buffer) at a time. Known rows come from the
///      map's row index and are read once; past its frontier one buffer
///      *window* is read and its newlines found (under the discovery
///      baton, up to the block's last wanted row), its rows published
///      with one lock and tokenized from the same bytes. Each run is
///      parsed one batch of rows (as many as a fixed span scratch holds)
///      at a time, each pass under one timer. **Phase 1** *tokenizes*
///      every row through the last phase-1 (predicate) attribute
///      (SpanCutter::CutFirst: exactly from a map chunk, or from the
///      nearest map anchor, never further — *selective tokenizing*),
///      skipping a phase-2 attribute an anchor jumps over, *converts* the
///      phase-1 columns column by column (*selective parsing*) and adds
///      their spans to the map chunk. Cache-resident segments need no
///      parsing, and a block whose columns are all cache-resident never
///      reads the file;
///   4. evaluates the pushed conjuncts over the batch and, in **phase
///      2**, finishes each passing row's cut (SpanCutter::CutRest,
///      resuming where phase 1 stopped it, so no field past it is cut
///      twice) and converts the remaining columns for those rows only
///      (*selective tuple formation*, predicate-aware).
///      Errors are reported as one whole-block pass would: the first
///      failing phase-1 field in row order, else the first failing
///      conjunct or phase-2 field;
///   5. as side effects populates the map (per the distance policy)
///      with the phase-1 spans, and feeds every column that holds every
///      row of the block — phase 1's, and phase 2's when every row
///      passed — to the cache, the statistics and the zone maps; for
///      attributes whose access heat crossed the promotion threshold it
///      hands those (or cache-resident) segments to the shadow column
///      store (piggybacked promotion: the scan that parsed a hot column
///      pays for it exactly once).
///
/// A scan with no pushed conjuncts runs the same pipeline: every
/// column is phase 1 and every row qualifies. A column holding exactly
/// the block's qualifying rows is emitted as it is (freshly parsed,
/// cache-resident or store-resident), with no copy. Store-served and
/// raw blocks interleave freely and results are byte-identical either
/// way. Store serving requires the positional-map component (the raw
/// residue relies on it to locate rows after a served block).
///
/// All NoDB structures honor the per-table NoDbConfig; with everything
/// disabled this operator *is* the paper's "Baseline" external-files
/// scan, which finds its rows with the same window walk.
///
/// Many operators may scan the same RawTableState concurrently. Each
/// operator keeps all parsing state private and interacts with the
/// shared structures only through their synchronized interfaces:
/// per block it snapshots the published row bounds (SnapshotRows) and
/// pins a chunk plan (PrepareBlock), then locates, tokenizes and
/// parses rows without any locking; finished segments and chunks are
/// published in short exclusive sections at the end of the block. Only
/// the undiscovered tail serializes (the map's discovery baton) —
/// queries never wait on each other's parsing, only on publication of
/// rows nobody has walked yet.
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

  /// Caps the rows this scan emits: the consumer stops after `limit`
  /// rows (LIMIT + OFFSET above a scan that took every conjunct). The
  /// scan stops after the block that reaches it, and a block with no
  /// conjuncts locates and parses only the rows still wanted. A block
  /// cut short this way teaches nothing: no map chunk, cache segment,
  /// statistics, zone entry or promotion. Call before Open.
  void SetRowLimit(uint64_t limit) { row_limit_ = limit; }

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override { return schema_; }

 private:
  /// Appends to bounds_ the next run: up to `want` rows from row `row`
  /// (no more than fit the read buffer, at least one, if `fit_buffer`),
  /// or nothing at end of file. True when no row of the block follows.
  Result<bool> LocateRun(uint64_t row, uint64_t want, bool fit_buffer);
  /// Finds one reader window's rows from `offset` (at most `max_rows`)
  /// into found_, publishes them through `discovery` if given, appends
  /// those from the `skip`-th on to bounds_; returns the next offset.
  Result<uint64_t> FindWindow(uint64_t offset, uint64_t max_rows, size_t skip,
                              PositionalMap::Discovery* discovery);

  /// A pushed `col op literal` conjunct in zone-checkable form.
  struct ZonePredicate {
    uint32_t attr = 0;  // table attribute index
    CompareOp op = CompareOp::kEq;
    bool lit_is_int = false;
    int64_t lit_i = 0;
    double lit_d = 0;
  };

  /// Processes exactly one row-block: zone-skips it, serves it from
  /// the store, or runs the two-phase raw/cache parse — and returns the
  /// block's qualifying rows (possibly an empty batch; nullptr for a
  /// skipped block or the end of the file).
  Result<BatchPtr> ProcessBlock();
  bool ZoneSkipsBlock(uint64_t block, uint64_t* rows_in_block) const;
  Result<bool> TryStoreBlock(uint64_t block, BatchPtr* staged);
  Result<BatchPtr> RawBlock(uint64_t block);

  /// Narrows the candidate rows (rows [0, n) when `in` is null, else
  /// in[0..n)) through every pushed conjunct in turn with Expr::Select
  /// (SQL WHERE: NULL drops); each conjunct after the first visits only
  /// the rows still selected. Writes the qualifying rows, in order, to
  /// `out` (which may alias `in`) and returns their number. Called only
  /// when there are conjuncts.
  Result<size_t> EvaluatePushdown(const RecordBatch& batch,
                                  const uint32_t* in, size_t n,
                                  uint32_t* out) const;

  /// Row `r` of bounds_, cut from the slab.
  Slice RowLine(size_t r) const;

  /// A raw block's columns, one slot per projected attribute: a cache
  /// segment, or the column the block parses — for every row (phase
  /// 1), or for the passing rows only (phase 2) — and how the cutter
  /// reaches the parsed ones.
  struct BlockParse {
    std::vector<std::shared_ptr<ColumnVector>> columns;  // per slot
    std::vector<bool> cached;                            // per slot
    std::vector<uint32_t> probe_attrs;  // the attributes the cutter cuts
    std::vector<size_t> probe_slots;    // ...and their slots
    std::vector<size_t> phase1, phase2;  // indices into probe_attrs
    std::optional<PositionalMap::ChunkBuilder> chunk;  // phase-1 spans
    Status deferred;  // the first conjunct or phase-2 error in row order
  };

  /// Parses rows [lo, hi) of bounds_ (one run) into `block`, per batch
  /// of rows whose span scratch stays within a fixed size, each pass
  /// under one timer: reads the bytes of the rows it cuts (the slab),
  /// gives every row its first cut (SpanCutter::CutFirst), converts the
  /// phase-1 columns and records them in the chunk, selects the batch's
  /// rows into sel_ with the conjuncts, finishes the passing rows' cuts
  /// (CutRest) and converts their phase-2 columns. A phase-1 error is
  /// returned at once; a conjunct or phase-2 error is deferred, and
  /// later batches then run phase 1 only — so the error is the one a
  /// whole-block pass would report.
  Status ParsePass(uint64_t first, size_t lo, size_t hi, BlockParse* block);

  /// Converts `probes` (indices into block->probe_attrs) of block rows
  /// rows[0..n) — whose spans sit in the scratch from row `at` on —
  /// into their columns. Returns the first failing field's error in
  /// (row, attribute) order, else `cut_error` (the cut that stopped
  /// after row rows[n - 1]).
  Status ConvertRows(uint64_t first, const uint32_t* rows, size_t n,
                     size_t at, const std::vector<size_t>& probes,
                     BlockParse* block, Status cut_error);

  /// True when `rows` rows provably are the whole of `block`: a full
  /// block, or exactly the tail of the completed row index right now.
  /// The one tail rule for cache residency, store promotion and
  /// serving, and zone-map admission and skipping.
  bool CoversBlock(uint64_t rows, uint64_t block) const;

  /// The one zone-map admission path for this scan: installs a summary
  /// for (attr, block) iff collection is on, the attribute's payload
  /// is summarizable, `segment` provably covers the block, and no
  /// entry exists yet. Safe to call with any parsed segment — cache,
  /// store or freshly built.
  void MaybeObserveZone(uint32_t attr, uint64_t block,
                        const ColumnVector& segment);

  /// Fetches `block`'s promoted segments into store_segments_ and runs
  /// the serve-time validation: all attributes must agree on the row count, and a short segment must
  /// match the completed row index *right now* (a stale pre-append
  /// tail fails, is evicted, and the block re-parses raw). False when
  /// the block is absent or stale; `*rows` is its row count on success.
  bool FetchStoreBlock(uint64_t block, size_t* rows);

  RawTableState* state_;
  std::vector<uint32_t> projection_;
  ScanMetrics* metrics_;
  ScanMetrics local_metrics_;  // used when metrics == nullptr
  bool internal_ = false;      // engine-internal pass: no access records

  std::shared_ptr<Schema> schema_;
  std::string table_name_;  // snapshotted for error messages
  std::string table_path_;
  CsvTokenizer tokenizer_;
  SpanCutter cutter_;  // the tokenize pass
  std::unique_ptr<BufferedReader> reader_;

  bool use_map_ = false;
  bool use_cache_ = false;
  bool use_stats_ = false;
  bool use_store_ = false;    // promotion side effects enabled
  bool serve_store_ = false;  // store fast path enabled (needs the map)
  bool collect_zones_ = false;  // summarize full blocks into zone maps
  bool skip_zones_ = false;     // prune blocks via zone maps (needs map)
  uint64_t store_generation_ = 0;  // file generation this scan parses
  uint64_t cache_generation_ = 0;  // ditto, for cache inserts
  uint64_t zone_generation_ = 0;   // ditto, for zone-map observation

  std::vector<DataType> types_;  // per projection slot

  // Predicate pushdown (empty = every row qualifies).
  std::vector<ExprPtr> predicates_;
  std::vector<bool> pred_slot_;          // projection slot feeds a conjunct
  std::vector<ZonePredicate> zone_preds_;  // zone-checkable conjuncts

  uint64_t row_ = 0;           // first row of the next block
  uint64_t local_offset_ = 0;  // row-finding cursor when the map is off
  bool exhausted_ = false;
  uint64_t row_limit_ = UINT64_MAX;  // see SetRowLimit
  uint64_t rows_emitted_ = 0;

  // Lock-free row location: published bounds of rows
  // [window_first_, window_first_ + window_rows_), snapshotted from the
  // map; window_bounds_ has window_rows_ + 1 entries (see SnapshotRows).
  uint64_t window_first_ = 0;
  uint32_t window_rows_ = 0;
  bool window_eof_ = false;  // it ends at the file's last row
  std::vector<uint64_t> window_bounds_;
  std::vector<uint64_t> found_;  // row starts of the last reader window

  // Store-served block segments (parallel to projection_).
  std::vector<std::shared_ptr<const ColumnVector>> store_segments_;
  std::vector<bool> promote_attr_;  // projection slot is promotion-hot

  // Reused per-block scratch.
  std::string decode_scratch_;
  std::vector<std::pair<uint64_t, uint64_t>> bounds_;  // row byte spans
  std::vector<uint32_t> sel_;  // qualifying rows of the block
  // The batch's bytes (see ParsePass): valid until the next reader call.
  Slice slab_;
  uint64_t slab_base_ = 0;  // file offset of slab_[0]
  // ParsePass scratch: one batch of rows' spans.
  std::vector<uint32_t> span_starts_;
  std::vector<uint32_t> span_ends_;
};

}  // namespace nodb

#endif  // NODB_RAW_RAW_SCAN_H_
