#include "raw/raw_scan.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "csv/value_parser.h"
#include "exec/filter.h"
#include "simd/simd.h"
#include "util/stopwatch.h"

namespace nodb {

namespace {

/// Span scratch of one tokenize/convert batch (see ParsePass): the
/// batch's rows shrink as the projection widens, so a scan's transient
/// memory stays the same however wide or long its blocks are.
constexpr size_t kSpanScratchBytes = 64 * 1024;

/// Accumulates (wall time − I/O time that elapsed inside the region)
/// into `sink`, keeping the Figure-3 categories disjoint: physical read
/// time is accounted once, by the reader.
class PhaseTimer {
 public:
  PhaseTimer(int64_t* sink, const BufferedReader* reader)
      : sink_(sink), reader_(reader), io_before_(reader->io_nanos()) {}
  ~PhaseTimer() {
    *sink_ +=
        watch_.ElapsedNanos() - (reader_->io_nanos() - io_before_);
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  int64_t* sink_;
  const BufferedReader* reader_;
  int64_t io_before_;
  Stopwatch watch_;
};

/// Zone-map attributes summarize only numeric-ish payloads.
bool ZoneEligibleType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble ||
         type == DataType::kDate;
}

/// True when every row of a block with the given bounds provably fails
/// `op` against the literal — the zone-map pruning rule. Bounds and
/// literal are compared exactly like CompareExpr::Evaluate compares
/// rows: exact int64 when both sides are integral, otherwise through
/// the double view (a monotone conversion, so converted bounds remain
/// bounds).
template <typename T>
bool ZoneDisjoint(CompareOp op, T min, T max, T lit) {
  switch (op) {
    case CompareOp::kEq:
      return lit < min || lit > max;
    case CompareOp::kNe:
      return min == max && min == lit;
    case CompareOp::kLt:
      return min >= lit;
    case CompareOp::kLe:
      return min > lit;
    case CompareOp::kGt:
      return max <= lit;
    case CompareOp::kGe:
      return max < lit;
  }
  return false;
}

}  // namespace

RawScanOperator::RawScanOperator(RawTableState* state,
                                 std::vector<uint32_t> projection,
                                 ScanMetrics* metrics, bool internal)
    : state_(state),
      projection_(std::move(projection)),
      metrics_(metrics != nullptr ? metrics : &local_metrics_),
      internal_(internal),
      table_name_(state->info().name),
      table_path_(state->info().path),
      tokenizer_(state->info().dialect,
                 simd::LevelFor(state->config().enable_simd)) {
  std::vector<size_t> indices(projection_.begin(), projection_.end());
  schema_ = state_->info().schema->Project(indices);
}

void RawScanOperator::SetPushdownPredicates(
    std::vector<ExprPtr> predicates) {
  predicates_ = std::move(predicates);
}

Status RawScanOperator::Open() {
  const NoDbConfig& config = state_->config();
  ComponentFlags flags = state_->component_flags();
  use_map_ = flags.map;
  use_cache_ = flags.cache;
  use_stats_ = flags.stats;
  use_store_ = flags.store;
  // Serving from the store needs the map: the raw residue of a hybrid
  // plan locates rows through it after a store-served block.
  serve_store_ = use_store_ && use_map_ && !projection_.empty();
  // Snapshot the store and cache generations *before* taking the file
  // handle: if the file is rewritten after this point, the generations
  // move on and this scan's inserts are rejected rather than poisoning
  // the cleared tiers with old-file segments.
  store_generation_ = state_->store().generation();
  cache_generation_ = state_->cache().generation();
  // Zone maps follow the same discipline: collect summaries whenever
  // the config asks for them, but prune blocks only when predicates
  // were pushed and the map can resume the scan at the next block.
  collect_zones_ = config.enable_zone_maps;
  skip_zones_ =
      config.enable_zone_maps && use_map_ && !predicates_.empty();
  zone_generation_ = state_->zones().generation();

  // Recovered-vs-rebuilt provenance: this scan runs over structures a
  // snapshot restored, not ones this process built (persist/).
  persist::RecoveryReport recovery = state_->recovery();
  if (use_map_ && recovery.map_recovered) {
    ++metrics_->scans_using_recovered_map;
  }
  if (serve_store_ && recovery.store_recovered) {
    ++metrics_->scans_using_recovered_store;
  }

  // Pushdown analysis: which projection slots feed a predicate
  // (phase 1), and which conjuncts are zone-checkable `col op lit`.
  pred_slot_.assign(projection_.size(), false);
  zone_preds_.clear();
  for (const ExprPtr& p : predicates_) {
    std::vector<size_t> cols;
    p->CollectColumns(&cols);
    for (size_t c : cols) {
      NODB_CHECK(c < projection_.size());
      pred_slot_[c] = true;
    }
    const auto* cmp = dynamic_cast<const CompareExpr*>(p.get());
    if (cmp == nullptr) continue;
    const auto* ref =
        dynamic_cast<const ColumnRefExpr*>(cmp->left().get());
    const auto* lit =
        dynamic_cast<const LiteralExpr*>(cmp->right().get());
    CompareOp op = cmp->op();
    if (ref == nullptr || lit == nullptr) {
      ref = dynamic_cast<const ColumnRefExpr*>(cmp->right().get());
      lit = dynamic_cast<const LiteralExpr*>(cmp->left().get());
      if (ref == nullptr || lit == nullptr) continue;
      op = MirrorCompareOp(op);  // lit < col  ==  col > lit
    }
    if (!ZoneEligibleType(ref->type())) continue;
    ZonePredicate zp;
    zp.attr = projection_[ref->index()];
    zp.op = op;
    const Value& v = lit->value();
    if (v.is_int64()) {
      zp.lit_is_int = true;
      zp.lit_i = v.int64();
      zp.lit_d = static_cast<double>(v.int64());
    } else if (v.is_date()) {
      zp.lit_is_int = true;
      zp.lit_i = v.date_days();
      zp.lit_d = static_cast<double>(v.date_days());
    } else if (v.is_double()) {
      zp.lit_d = v.dbl();
    } else {
      continue;  // NULL/string literal: evaluate, never zone-prune
    }
    zone_preds_.push_back(zp);
  }

  std::shared_ptr<RandomAccessFile> file = state_->file();
  if (file == nullptr) {
    NODB_RETURN_NOT_OK(state_->Open());
    file = state_->file();
  }
  // The reader keeps this handle for the whole scan, so a concurrent
  // reopen of the table cannot pull the file out from under us.
  reader_ = std::make_unique<BufferedReader>(std::move(file),
                                             config.read_buffer_bytes);
  NODB_RETURN_NOT_OK(reader_->Refresh());

  row_ = 0;
  rows_emitted_ = 0;
  exhausted_ = false;
  window_first_ = 0;
  window_rows_ = 0;
  window_bounds_.clear();
  store_segments_.clear();
  types_.clear();
  for (uint32_t attr : projection_) {
    types_.push_back(state_->info().schema->field(attr).type);
  }

  // Header line: data rows start after it.
  header_skip_ = 0;
  if (state_->info().dialect.has_header && reader_->file_size() > 0) {
    uint64_t header_end = 0;
    Status s = reader_->FindNewline(0, &header_end);
    header_skip_ = std::min<uint64_t>(header_end + 1, reader_->file_size());
    (void)s;  // a header-only file simply has zero data rows
  }
  if (use_map_) {
    state_->map().EnsureDiscoveryStartsAt(header_skip_);
  }
  local_offset_ = header_skip_;

  if (!internal_) state_->RecordAttributeAccess(projection_);

  // Snapshot promotion heat after recording this access, so the scan
  // that crosses the threshold is the one that promotes.
  promote_attr_.assign(projection_.size(), false);
  if (use_store_) {
    for (size_t i = 0; i < projection_.size(); ++i) {
      promote_attr_[i] = state_->stats().access_heat(projection_[i]) >=
                         config.promote_after_accesses;
    }
  }

  uint32_t max_attr = projection_.empty() ? 0 : projection_.back();
  starts_.assign(max_attr + 2, 0);
  return Status::OK();
}

Status RawScanOperator::LocatePass(uint64_t first, uint64_t want) {
  bounds_.clear();
  if (!use_map_) {
    // Without the map every row is found by walking newlines, so the
    // whole pass is one locate region.
    const uint64_t file_size = reader_->file_size();
    PhaseTimer timer(&metrics_->parsing_ns, reader_.get());
    for (uint64_t r = 0; r < want && local_offset_ < file_size; ++r) {
      const uint64_t start = local_offset_;
      uint64_t end = 0;
      Status s = reader_->FindNewline(start, &end);
      if (!s.ok() && !s.IsOutOfRange()) return s;
      bounds_.emplace_back(start, end);
      local_offset_ = end + 1;
    }
    return Status::OK();
  }
  const uint64_t stop = first + want;
  for (uint64_t r = first; r < stop;) {
    uint64_t start = 0;
    uint64_t end = 0;
    NODB_ASSIGN_OR_RETURN(bool ok, LocateRow(r, &start, &end));
    if (!ok) break;
    bounds_.emplace_back(start, end);
    // LocateRow left the rest of the row's published run in the
    // window: copy it without a call per row.
    const uint64_t window_end =
        std::min<uint64_t>(stop, window_first_ + window_rows_);
    for (++r; r < window_end; ++r) {
      const size_t i = static_cast<size_t>(r - window_first_);
      bounds_.emplace_back(window_bounds_[i], window_bounds_[i + 1] - 1);
    }
  }
  return Status::OK();
}

Result<bool> RawScanOperator::LocateRow(uint64_t row, uint64_t* start,
                                        uint64_t* end) {
  const uint64_t file_size = reader_->file_size();
  PositionalMap& map = state_->map();
  const uint32_t rows_per_block = state_->config().rows_per_block;
  while (true) {
    // Fast path: the row's bounds are in the local snapshot window —
    // no locking, plain array indexing.
    if (row >= window_first_ && row < window_first_ + window_rows_) {
      size_t i = static_cast<size_t>(row - window_first_);
      *start = window_bounds_[i];
      *end = window_bounds_[i + 1] - 1;
      return true;
    }

    // Refill the window with whatever is published from `row` to the
    // end of its block (scans advance monotonically, so nothing before
    // `row` is needed again).
    uint32_t remaining =
        rows_per_block - static_cast<uint32_t>(row % rows_per_block);
    PositionalMap::RowSnapshot snap =
        map.SnapshotRows(row, remaining, &window_bounds_);
    window_first_ = row;
    window_rows_ = snap.rows;
    if (snap.rows > 0) continue;
    if (snap.complete && row >= snap.known_rows) return false;

    // The row is past the published frontier: take the discovery baton
    // and walk the tail to the end of the row's block in one round —
    // the bounds land in the local window, so a cold sequential scan
    // pays one baton acquisition per block, not per row. Other threads
    // block here only for rows nobody has walked yet.
    PositionalMap::Discovery discovery(&map);
    uint64_t resume = 0;
    uint64_t frontier_row = 0;
    while (discovery.NeedsRow(row, &resume, &frontier_row)) {
      if (resume >= file_size) {
        discovery.MarkComplete(file_size);
        break;
      }
      const uint64_t block_end =
          (row / rows_per_block + 1) * uint64_t{rows_per_block};
      uint64_t cursor = resume;
      uint64_t cursor_row = frontier_row;
      window_bounds_.clear();
      window_rows_ = 0;
      {
        // NOLINTNEXTLINE(row-clock): once per walk, not per row
        PhaseTimer timer(&metrics_->parsing_ns, reader_.get());
        while (cursor_row < block_end && cursor < file_size) {
          uint64_t line_end = 0;
          Status s = reader_->FindNewline(cursor, &line_end);
          if (!s.ok() && !s.IsOutOfRange()) return s;
          discovery.PublishRow(cursor, line_end);
          if (cursor_row >= row) window_bounds_.push_back(cursor);
          cursor = line_end + 1;
          ++cursor_row;
        }
      }
      if (cursor >= file_size) discovery.MarkComplete(file_size);
      if (!window_bounds_.empty()) {
        window_bounds_.push_back(cursor);  // sentinel: last end + 1
        window_first_ = row;
        window_rows_ = static_cast<uint32_t>(window_bounds_.size() - 1);
        break;  // the fast path serves `row` from the fresh window
      }
      // File ended before reaching `row`; NeedsRow decides next.
    }
    // Another thread published past `row`, the window was walked, or
    // the file ended; loop to serve or finish.
  }
}

void RawScanOperator::MaybeObserveZone(uint32_t attr, uint64_t block,
                                       const ColumnVector& segment) {
  // Summaries admit exactly like store segments: the values must
  // provably cover the whole block, else a skip could hide rows.
  if (!collect_zones_ || !ZoneEligibleType(segment.type())) return;
  if (!SegmentCoversBlock(segment.size(), block)) return;
  if (state_->zones().Contains(attr, block)) return;
  state_->zones().Observe(attr, block, segment, zone_generation_);
}

bool RawScanOperator::SegmentCoversBlock(size_t segment_rows,
                                         uint64_t block) const {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  if (segment_rows >= rows_per_block) return true;
  if (use_map_ && state_->map().rows_complete()) {
    uint64_t known = state_->map().known_rows();
    uint64_t first = block * uint64_t{rows_per_block};
    uint64_t expected =
        first >= known ? 0
                       : std::min<uint64_t>(rows_per_block, known - first);
    return segment_rows >= expected;
  }
  return false;
}

bool RawScanOperator::FetchStoreBlock(uint64_t block, size_t* rows) {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    if (!state_->store().GetBlock(projection_, block, &store_segments_)) {
      return false;
    }
  }
  // Serve-time validation. A short segment claims to be the file's
  // tail, which would end the scan at its last row — so it must match
  // the completed row index *right now*; and all attributes of the
  // block must agree on its row count. A stale segment (e.g. a
  // pre-append tail committed by a racing promotion) fails these, is
  // evicted, and the block re-parses through the raw path.
  *rows = store_segments_[0]->size();
  bool aligned = true;
  for (const auto& seg : store_segments_) {
    aligned = aligned && seg->size() == *rows;
  }
  if (!aligned ||
      (*rows < rows_per_block &&
       (!state_->map().rows_complete() ||
        first + *rows != state_->map().known_rows()))) {
    state_->store().DropBlock(block);
    store_segments_.clear();
    return false;
  }
  return true;
}

Result<BatchPtr> RawScanOperator::Next() {
  BatchPtr out;
  while (out == nullptr && !exhausted_ && rows_emitted_ < row_limit_) {
    NODB_ASSIGN_OR_RETURN(out, ProcessBlock());
    // A skipped or fully filtered block: keep walking. The operator
    // contract forbids empty non-final batches (drains stop on them).
    if (out != nullptr && out->num_rows() == 0) out.reset();
  }
  metrics_->io_ns += reader_->io_nanos();
  metrics_->bytes_read += reader_->bytes_read();
  reader_->ResetCounters();
  if (out != nullptr) rows_emitted_ += out->num_rows();
  return out;
}

Result<BatchPtr> RawScanOperator::ProcessBlock() {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t block = row_ / rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};

  // ---- zone pruning: a block provably disjoint from a pushed
  // range/equality conjunct advances the cursor without locating,
  // tokenizing or parsing a single row — on any serving tier.
  if (skip_zones_ && !zone_preds_.empty()) {
    uint64_t block_rows = 0;
    bool skip;
    {
      PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
      skip = ZoneSkipsBlock(block, &block_rows);
    }
    if (skip) {
      ++metrics_->zone_skipped_blocks;
      metrics_->zone_skipped_rows += block_rows;
      row_ = first + block_rows;
      if (block_rows < rows_per_block) {
        exhausted_ = true;  // the entry was validated as the file tail
      }
      return BatchPtr();
    }
  }

  if (serve_store_) {
    BatchPtr staged;
    NODB_ASSIGN_OR_RETURN(bool served, TryStoreBlock(block, &staged));
    if (served) return staged;
  }

  return RawBlock(block);
}

bool RawScanOperator::ZoneSkipsBlock(uint64_t block,
                                     uint64_t* rows_in_block) const {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  const ZoneMaps& zones = state_->zones();
  for (const ZonePredicate& zp : zone_preds_) {
    std::optional<ZoneMaps::Entry> entry = zones.Get(zp.attr, block);
    if (!entry.has_value()) continue;
    const ZoneMaps::Entry& e = *entry;
    // NULL-bearing (and NaN-bearing, and all-NULL) blocks are never
    // skipped: their rows' fate is decided row-by-row, exactly like
    // FilterOperator would.
    if (e.has_null || e.unsafe || !e.non_null) continue;
    // The entry must provably cover the block *right now*: a full
    // block, or the tail of the currently-complete row index. (Append
    // truncation and generation tagging make stale entries disappear,
    // but serve-time validation keeps even a racing one harmless.)
    if (e.rows < rows_per_block &&
        (!state_->map().rows_complete() ||
         first + e.rows != state_->map().known_rows())) {
      continue;
    }
    bool disjoint =
        e.is_int && zp.lit_is_int
            ? ZoneDisjoint<int64_t>(zp.op, e.min_i, e.max_i, zp.lit_i)
            : ZoneDisjoint<double>(zp.op, e.min_d, e.max_d, zp.lit_d);
    if (disjoint) {
      *rows_in_block = std::min<uint64_t>(e.rows, rows_per_block);
      return true;
    }
  }
  return false;
}

Result<bool> RawScanOperator::TryStoreBlock(uint64_t block,
                                            BatchPtr* staged) {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  size_t rows = 0;
  if (!FetchStoreBlock(block, &rows)) return false;

  // The store's fully parsed segments are the cheapest zone-map
  // source there is — summarize any block the maps do not know yet.
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    for (size_t c = 0; c < store_segments_.size(); ++c) {
      MaybeObserveZone(projection_[c], block, *store_segments_[c]);
    }
  }

  // Vectorize the pushed conjuncts straight over the promoted segments
  // (a read-only batch view; segments are immutable, shared-owned).
  std::vector<std::shared_ptr<ColumnVector>> view;
  view.reserve(store_segments_.size());
  for (const auto& seg : store_segments_) {
    view.push_back(std::const_pointer_cast<ColumnVector>(seg));
  }
  auto probe = std::make_shared<RecordBatch>(schema_, std::move(view),
                                             rows);
  NODB_ASSIGN_OR_RETURN(size_t passing,
                        EvaluatePushdown(*probe, &sel_));

  BatchPtr out;
  if (passing == rows) {
    // Every row passes: hand the view out as-is — the store tier's
    // zero-copy serving survives pushdown.
    out = std::move(probe);
  } else {
    out = GatherRows(*probe, sel_.data(), passing);
  }
  ++metrics_->store_block_hits;
  metrics_->rows_scanned += rows;
  metrics_->rows_from_store += rows;
  metrics_->pushdown_rows_pruned += rows - passing;
  store_segments_.clear();
  row_ = first + rows;
  if (rows < rows_per_block) exhausted_ = true;  // validated tail
  *staged = std::move(out);
  return true;
}

Result<size_t> RawScanOperator::EvaluatePushdown(
    const RecordBatch& batch, std::vector<uint32_t>* sel) const {
  const size_t n = batch.num_rows();
  sel->resize(n);
  if (predicates_.empty()) {
    std::iota(sel->begin(), sel->end(), uint32_t{0});
    return n;
  }
  size_t passing = n;
  for (size_t p = 0; p < predicates_.size() && passing > 0; ++p) {
    NODB_ASSIGN_OR_RETURN(auto mask, predicates_[p]->Evaluate(batch));
    // The first conjunct selects from all rows; each later one narrows
    // that selection in place. Same rule as FilterOperator.
    passing = SelectTrue(*mask, p == 0 ? nullptr : sel->data(), passing,
                         sel->data());
  }
  return passing;
}

Status RawScanOperator::TokenizeSpans(
    Slice line, uint64_t row,
    const std::optional<PositionalMap::BlockPlan>& plan,
    const std::vector<uint32_t>& probe_attrs,
    const std::vector<size_t>& subset, uint32_t* starts, uint32_t* ends,
    bool count_blind) {
  auto field_count_error = [&](uint32_t fields, uint32_t attr) {
    return Status::ParseError(
        table_name_ + ": row " + std::to_string(row) + " has " +
        std::to_string(fields) + " fields, attribute " +
        std::to_string(attr) + " requested (file " + table_path_ + ")");
  };
  // A span ending at the end of the record (a trailing '\r' is line
  // terminator) closes its last field: no attribute past it exists,
  // and resuming from there would read a phantom empty field.
  uint32_t content = static_cast<uint32_t>(line.size());
  if (content > 0 && line[content - 1] == '\r') --content;
  uint32_t record_fields = UINT32_MAX;
  uint32_t progress_field = 0;
  uint32_t progress_off = 0;
  bool had_help = false;
  for (size_t k = 0; k < subset.size(); ++k) {
    size_t j = subset[k];
    uint32_t attr = probe_attrs[j];
    if (attr >= record_fields) return field_count_error(record_fields, attr);
    PositionalMap::Probe probe;
    if (plan.has_value()) {
      probe = plan->Lookup(row, j);
    }
    if (probe.exact) {
      starts[k] = probe.start;
      ends[k] = probe.end;
      ++metrics_->map_exact_probes;
      had_help = true;
      if (probe.end >= content) record_fields = attr + 1;
      if (attr + 1 > progress_field) {
        progress_field = attr + 1;
        progress_off = std::min<uint32_t>(
            probe.end + 1, static_cast<uint32_t>(line.size()));
      }
      continue;
    }
    if (probe.anchor_attr > progress_field) {
      progress_field = probe.anchor_attr;
      progress_off = std::min<uint32_t>(
          probe.anchor_rel, static_cast<uint32_t>(line.size()));
      ++metrics_->map_anchor_probes;
      had_help = true;
    }
    uint32_t before = progress_field;
    uint32_t high = tokenizer_.ScanStarts(line, progress_field,
                                          progress_off, attr + 1,
                                          starts_.data());
    if (high < attr + 1) return field_count_error(high, attr);
    metrics_->fields_tokenized += attr + 1 - before;
    starts[k] = starts_[attr];
    ends[k] = starts_[attr + 1] - 1;
    if (ends[k] >= content) record_fields = attr + 1;
    progress_field = attr + 1;
    progress_off = std::min<uint32_t>(
        starts_[attr + 1], static_cast<uint32_t>(line.size()));
  }
  if (count_blind && !had_help && !subset.empty()) {
    ++metrics_->map_blind_rows;
  }
  return Status::OK();
}

size_t RawScanOperator::RunEnd(size_t lo) const {
  // bounds_ ascend, so the run is the longest prefix from `lo` whose
  // bytes fit the buffer — at least one row, however long.
  const uint64_t limit = bounds_[lo].first + reader_->buffer_size();
  auto past = std::upper_bound(
      bounds_.begin() + static_cast<std::ptrdiff_t>(lo) + 1, bounds_.end(),
      limit, [](uint64_t v, const std::pair<uint64_t, uint64_t>& b) {
        return v < b.second;
      });
  return static_cast<size_t>(past - bounds_.begin());
}

Status RawScanOperator::ReadSlab(const uint32_t* rows, size_t n) {
  if (slab_loaded_) return Status::OK();
  slab_base_ = bounds_[rows[0]].first;
  const uint64_t slab_end = bounds_[rows[n - 1]].second;
  slab_ = Slice();
  if (slab_end > slab_base_) {
    NODB_RETURN_NOT_OK(reader_->ReadAt(
        slab_base_, static_cast<size_t>(slab_end - slab_base_), &slab_));
  }
  slab_loaded_ = true;
  return Status::OK();
}

Slice RawScanOperator::RowLine(size_t r) const {
  const auto& [start, end] = bounds_[r];
  if (end <= start) return Slice();
  return slab_.SubSlice(static_cast<size_t>(start - slab_base_),
                        static_cast<size_t>(end - start));
}

Status RawScanOperator::ParsePass(
    uint64_t first, const uint32_t* rows, size_t n,
    const std::optional<PositionalMap::BlockPlan>& plan,
    const std::vector<uint32_t>& probe_attrs,
    const std::vector<size_t>& probe_slots,
    const std::vector<size_t>& subset, bool count_blind,
    PositionalMap::ChunkBuilder* chunk,
    std::vector<std::shared_ptr<ColumnVector>>* cols) {
  NODB_RETURN_NOT_OK(ReadSlab(rows, n));
  // Batches in row order: the first failing batch holds the first
  // failing field.
  const size_t batch = std::max<size_t>(
      1, kSpanScratchBytes / (2 * sizeof(uint32_t) * subset.size()));
  for (size_t at = 0; at < n; at += batch) {
    NODB_RETURN_NOT_OK(ParseRows(first, rows + at, std::min(batch, n - at),
                                 plan, probe_attrs, probe_slots, subset,
                                 count_blind, chunk, cols));
  }
  return Status::OK();
}

Status RawScanOperator::ParseRows(
    uint64_t first, const uint32_t* rows, size_t n,
    const std::optional<PositionalMap::BlockPlan>& plan,
    const std::vector<uint32_t>& probe_attrs,
    const std::vector<size_t>& probe_slots,
    const std::vector<size_t>& subset, bool count_blind,
    PositionalMap::ChunkBuilder* chunk,
    std::vector<std::shared_ptr<ColumnVector>>* cols) {
  const size_t width = subset.size();
  span_starts_.resize(n * width);
  span_ends_.resize(n * width);

  // Tokenize: every row's spans, row-major. A row that fails stops the
  // pass, but the rows before it still convert below — a conversion
  // error in an earlier row wins, exactly as it did row at a time.
  size_t tokenized = 0;
  Status tokenize_error;
  {
    PhaseTimer timer(&metrics_->tokenize_ns, reader_.get());
    for (; tokenized < n; ++tokenized) {
      tokenize_error = TokenizeSpans(
          RowLine(rows[tokenized]), first + rows[tokenized], plan,
          probe_attrs, subset, &span_starts_[tokenized * width],
          &span_ends_[tokenized * width], count_blind);
      if (!tokenize_error.ok()) break;
    }
  }

  // Convert: one typed loop per column. The first failing field in
  // (row, attribute) order is the one reported, so after a failure
  // later columns only need the rows before it.
  Status convert_error;
  size_t limit = tokenized;
  {
    PhaseTimer timer(&metrics_->convert_ns, reader_.get());
    for (size_t k = 0; k < width; ++k) {
      const size_t slot = probe_slots[subset[k]];
      auto text_at = [&](size_t i) {
        const size_t at = i * width + k;
        return tokenizer_.DecodeField(
            CsvTokenizer::RawField(RowLine(rows[i]), span_starts_[at],
                                   span_ends_[at] + 1),
            &decode_scratch_);
      };
      size_t failed = 0;
      Status s = ValueParser::ParseColumn(limit, types_[slot], text_at,
                                          (*cols)[slot].get(), &failed);
      if (s.ok()) continue;
      limit = failed;
      convert_error = Status::ParseError(
          table_name_ + ": row " + std::to_string(first + rows[failed]) +
          ", attribute " + std::to_string(projection_[slot]) + ": " +
          s.message());
    }
  }
  NODB_RETURN_NOT_OK(convert_error);
  NODB_RETURN_NOT_OK(tokenize_error);
  metrics_->fields_converted += n * width;
  if (chunk != nullptr) {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    for (size_t r = 0; r < n; ++r) {
      chunk->AddRow(&span_starts_[r * width], &span_ends_[r * width]);
    }
  }
  return Status::OK();
}

Result<BatchPtr> RawScanOperator::RawBlock(uint64_t block) {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  PositionalMap& map = state_->map();
  // Without conjuncts every column is phase 1 and every row qualifies,
  // so each located row is an emitted one: locate only the rows the
  // row limit still wants.
  const bool filtered = !predicates_.empty();
  const uint64_t want =
      filtered ? rows_per_block
               : std::min<uint64_t>(rows_per_block,
                                    row_limit_ - rows_emitted_);

  // ---- resolve cache residency and split the probes into phases:
  // phase-1 columns (the predicate columns, or all of them when there
  // are no conjuncts) parse for every row, the rest only for
  // qualifying rows (phase 2).
  const size_t n_slots = projection_.size();
  std::vector<std::shared_ptr<const ColumnVector>> cached(n_slots);
  std::vector<std::shared_ptr<ColumnVector>> built(n_slots);
  std::vector<uint32_t> probe_attrs;
  std::vector<size_t> probe_slots;
  std::vector<size_t> p1_idx, p2_idx;  // indices into probe_attrs
  std::optional<PositionalMap::BlockPlan> plan;
  std::optional<PositionalMap::ChunkBuilder> chunk;
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    for (size_t i = 0; i < n_slots; ++i) {
      uint32_t attr = projection_[i];
      if (use_cache_) {
        auto seg = state_->cache().Get(attr, block);
        if (seg != nullptr && SegmentCoversBlock(seg->size(), block)) {
          cached[i] = std::move(seg);
          ++metrics_->cache_block_hits;
          continue;
        }
        ++metrics_->cache_block_misses;
      }
      if (!filtered || pred_slot_[i]) {
        p1_idx.push_back(probe_attrs.size());
        built[i] = std::make_shared<ColumnVector>(types_[i]);
        built[i]->Reserve(static_cast<size_t>(want));
      } else {
        p2_idx.push_back(probe_attrs.size());
      }
      probe_attrs.push_back(attr);
      probe_slots.push_back(i);
    }
    if (use_map_ && !probe_attrs.empty()) {
      plan = map.PrepareBlock(first, probe_attrs);
      // The distance policy still decides per combination, but only the
      // phase-1 columns have spans for every row of the block — the
      // chunk records exactly those.
      if (!p1_idx.empty() && map.ShouldIndexCombination(*plan)) {
        std::vector<uint32_t> chunk_attrs;
        chunk_attrs.reserve(p1_idx.size());
        for (size_t j : p1_idx) chunk_attrs.push_back(probe_attrs[j]);
        chunk = map.StartChunk(first, chunk_attrs);
      }
    }
  }

  // ---- locate every wanted row of the block.
  NODB_RETURN_NOT_OK(LocatePass(first, want));
  const size_t rows = bounds_.size();
  if (rows == 0) {
    exhausted_ = true;
    return BatchPtr();
  }
  // The row limit stopped the block early: its segments and chunk do
  // not cover it, so it teaches nothing (like an abandoned scan).
  const bool cut_short = rows == want && want < rows_per_block;

  // ---- the block's rows go through phase 1, the conjuncts and phase 2
  // in runs whose bytes fit the read buffer. Each run is read once, on
  // first need (the slab), so phase 2 never re-reads and a scan never
  // holds more than a buffer of raw bytes; a block whose columns are
  // all cache-resident is one run that never touches the raw file —
  // the paper's "eliminating the need to access hot raw data". Errors
  // come out as from one whole-block pass: a phase-1 error anywhere in
  // the block wins, else the first conjunct or phase-2 error.
  std::vector<std::shared_ptr<ColumnVector>> parsed2(n_slots);
  for (size_t j : p2_idx) {
    const size_t i = probe_slots[j];
    parsed2[i] = std::make_shared<ColumnVector>(types_[i]);
  }
  sel_.clear();
  Status deferred;
  for (size_t lo = 0, hi = 0; lo < rows; lo = hi) {
    hi = probe_attrs.empty() ? rows : RunEnd(lo);
    const size_t n = hi - lo;
    const bool whole = n == rows;
    run_rows_.resize(n);
    std::iota(run_rows_.begin(), run_rows_.end(), static_cast<uint32_t>(lo));
    slab_loaded_ = false;

    // ---- phase 1: tokenize and convert the phase-1 columns of every
    // row of the run and record their spans in the map chunk.
    if (!p1_idx.empty()) {
      NODB_RETURN_NOT_OK(ParsePass(
          first, run_rows_.data(), n, plan, probe_attrs, probe_slots,
          p1_idx, /*count_blind=*/true,
          chunk.has_value() ? &*chunk : nullptr, &built));
      if (filtered) metrics_->pushdown_phase1_fields += n * p1_idx.size();
    }
    if (!deferred.ok()) continue;  // only a phase-1 error can still win

    // ---- vectorize the conjuncts over the run's partial batch: the
    // block's columns when the run is the block, else copies of the
    // run's rows of the predicate columns. Other slots hold empty
    // placeholder columns.
    std::vector<std::shared_ptr<ColumnVector>> run_cols(n_slots);
    for (size_t i = 0; i < n_slots; ++i) {
      std::shared_ptr<const ColumnVector> src = built[i];
      if (src == nullptr) src = cached[i];
      if (src != nullptr) NODB_CHECK(src->size() >= hi);
      if (src != nullptr && whole) {
        run_cols[i] = std::const_pointer_cast<ColumnVector>(src);
        continue;
      }
      run_cols[i] = std::make_shared<ColumnVector>(types_[i]);
      if (src != nullptr && pred_slot_[i]) {
        run_cols[i]->AppendRange(*src, lo, n);
      }
    }
    Result<size_t> passed = EvaluatePushdown(
        RecordBatch(schema_, std::move(run_cols), n), &run_sel_);
    if (!passed.ok()) {
      deferred = passed.status();
      continue;
    }
    for (size_t k = 0; k < *passed; ++k) run_sel_[k] += lo;
    sel_.insert(sel_.end(), run_sel_.begin(), run_sel_.begin() + *passed);

    // ---- phase 2: qualifying rows only — tokenize/convert the
    // remaining columns (the paper's selective tuple formation, now
    // predicate-aware). Blind-row attribution happened in phase 1 when
    // predicate columns probed; count here only when phase 2 is the
    // row's first tokenize pass.
    if (!p2_idx.empty() && *passed > 0) {
      deferred = ParsePass(first, run_sel_.data(), *passed, plan,
                           probe_attrs, probe_slots, p2_idx,
                           /*count_blind=*/p1_idx.empty(), nullptr,
                           &parsed2);
      metrics_->pushdown_phase2_fields += *passed * p2_idx.size();
    }
  }
  NODB_RETURN_NOT_OK(deferred);
  const size_t passing = sel_.size();

  // ---- form the output tuples. Columns already in binary form
  // (phase-1 parsed or cache-resident) are gathered whole; when every
  // row qualifies, a segment of exactly the block's rows is handed out
  // as-is.
  std::vector<std::shared_ptr<ColumnVector>> out_cols(n_slots);
  {
    PhaseTimer timer(&metrics_->convert_ns, reader_.get());
    for (size_t i = 0; i < n_slots; ++i) {
      if (parsed2[i] != nullptr) {
        out_cols[i] = std::move(parsed2[i]);
        continue;
      }
      std::shared_ptr<const ColumnVector> src = built[i];
      if (src == nullptr) src = cached[i];
      if (passing == rows && src->size() == rows) {
        out_cols[i] = std::const_pointer_cast<ColumnVector>(src);
        continue;
      }
      out_cols[i] = std::make_shared<ColumnVector>(types_[i]);
      if (passing == rows) {
        out_cols[i]->AppendRange(*src, 0, rows);
      } else {
        out_cols[i]->AppendSelected(*src, sel_.data(), passing);
      }
    }
  }
  auto out = std::make_shared<RecordBatch>(schema_, std::move(out_cols),
                                           passing);

  // ---- side effects: phase-1 columns covered the whole block, so
  // they feed the map, cache, statistics, zone maps and promotion;
  // phase-2 columns were only parsed for qualifying rows and teach
  // nothing.
  if (!cut_short) {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    if (chunk.has_value() && chunk->rows() > 0) {
      map.CommitChunk(std::move(*chunk));
    }
    for (size_t i = 0; i < n_slots; ++i) {
      uint32_t attr = projection_[i];
      bool promote = use_store_ && promote_attr_[i] &&
                     !state_->store().Contains(attr, block);
      if (built[i] != nullptr) {
        MaybeObserveZone(attr, block, *built[i]);
        if (use_stats_) {
          state_->stats().ObserveBlock(attr, block, *built[i]);
        }
        if (use_cache_) {
          state_->cache().Put(attr, block, built[i], cache_generation_);
        }
        if (promote && SegmentCoversBlock(built[i]->size(), block)) {
          state_->store().Put(attr, block, built[i], store_generation_);
        }
      } else if (cached[i] != nullptr) {
        MaybeObserveZone(attr, block, *cached[i]);
        if (promote) {
          state_->store().Put(attr, block, cached[i], store_generation_);
        }
      }
    }
  }

  metrics_->rows_scanned += rows;
  metrics_->pushdown_rows_pruned += rows - passing;
  if (probe_attrs.empty()) {
    metrics_->rows_from_cache += rows;
  } else {
    metrics_->rows_from_raw += rows;
  }
  row_ = first + rows;
  // End of file, or the row limit is reached.
  if (rows < rows_per_block) exhausted_ = true;
  return out;
}

}  // namespace nodb
