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

/// Span scratch of one parse batch (see ParsePass): the batch's rows
/// shrink as the projection widens, so a scan's transient memory stays
/// the same however wide or long its blocks are.
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

/// Sets `*error` to `row`'s field-count error; returns false.
bool FieldCountError(const std::string& table, const std::string& path,
                     uint64_t row, uint32_t fields, uint32_t attr,
                     Status* error) {
  *error = Status::ParseError(table + ": row " + std::to_string(row) +
                              " has " + std::to_string(fields) +
                              " fields, attribute " + std::to_string(attr) +
                              " requested (file " + path + ")");
  return false;
}

}  // namespace

void SpanCutter::Prepare(const PositionalMap::BlockPlan* plan,
                         const std::vector<uint32_t>& attrs,
                         const std::vector<size_t>& first) {
  first_row_ = plan != nullptr ? plan->first_row() : 0;
  attrs_ = attrs;
  segments_.clear();
  std::vector<bool> helped(attrs_.size(), false);  // its segment jumps to it
  for (size_t k = 0; k < attrs_.size(); ++k) {
    PositionalMap::BlockPlan::Column source;
    if (plan != nullptr) source = plan->Resolve(k);
    // Cutting the previous attribute leaves the scan at the start of
    // the next one; an anchor helps only when it starts further on.
    const uint32_t progress = k == 0 ? 0 : attrs_[k - 1] + 1;
    const bool anchors = source.cells != nullptr &&
                         (source.exact || source.anchor_attr > progress);
    if (!anchors && !segments_.empty() &&
        !segments_.back().source.exact) {
      segments_.back().end = k + 1;  // extends the run
      continue;
    }
    helped[k] = anchors;
    segments_.push_back(Segment{
        k, k, k + 1, anchors ? source : PositionalMap::BlockPlan::Column()});
  }
  field_starts_.resize(attrs_.empty() ? 0 : attrs_.back() + 2);

  // The first cut ends at the last marked attribute. Walking down from
  // it, an unmarked attribute is left out when a later one up to the
  // next marked one starts with an anchor or exact span: the marked
  // one's cut jumps over it. Each segment's first-cut part runs through
  // its last attribute the first cut takes.
  size_t j = first.size();  // first[j - 1] is the next marked one down
  bool jump = false;
  for (size_t k = j == 0 ? 0 : first[j - 1] + 1; k-- > 0;) {
    const bool marked = j > 0 && first[j - 1] == k;
    if (marked) --j;
    const bool left = !marked && jump;
    jump = marked ? helped[k] : jump || helped[k];
    if (left) continue;
    for (Segment& seg : segments_) {
      if (seg.begin <= k && k < seg.end) seg.cut = std::max(seg.cut, k + 1);
    }
  }
}

bool SpanCutter::CutPart(bool rest, Slice line, uint64_t row,
                         uint32_t* starts, uint32_t* ends, ScanMetrics* metrics,
                         Status* error) {
  const uint32_t size = static_cast<uint32_t>(line.size());
  // A span ending at the end of the record (a trailing '\r' is line
  // terminator) closes its last field: no attribute past it exists,
  // and resuming from there would read a phantom empty field.
  uint32_t content = size;
  if (content > 0 && line[content - 1] == '\r') --content;
  uint32_t record_fields = UINT32_MAX;
  uint32_t field = 0;   // the scan stands at this field's start...
  uint32_t offset = 0;  // ...at this offset
  const uint64_t rel = row - first_row_;
  for (const Segment& seg : segments_) {
    size_t begin = rest ? seg.cut : seg.begin;
    const size_t end = rest ? seg.end : seg.cut;
    if (begin == end) continue;  // a part the other cut takes
    if (rest && begin > 0) {
      // The attribute before the part is cut: resume from its span. (The
      // first cut skips only ahead of an anchor or exact span, which
      // needs no resuming.)
      field = attrs_[begin - 1] + 1;
      offset = std::min(ends[begin - 1] + 1, size);
      record_fields = ends[begin - 1] >= content ? field : UINT32_MAX;
    }
    if (attrs_[begin] >= record_fields) {
      return FieldCountError(*table_, *path_, row, record_fields,
                             attrs_[begin], error);
    }
    const PositionalMap::Probe probe = seg.source.At(rel);
    if (probe.exact) {  // an exact segment is one attribute
      starts[begin] = probe.start;
      ends[begin] = probe.end;
      ++metrics->map_exact_probes;
      if (probe.end >= content) record_fields = attrs_[begin] + 1;
      field = attrs_[begin] + 1;
      offset = std::min(probe.end + 1, size);
      continue;
    }
    if (probe.anchor_attr > field) {
      field = probe.anchor_attr;
      offset = std::min(probe.anchor_rel, size);
      ++metrics->map_anchor_probes;
    } else if (begin == 0) {
      ++metrics->map_blind_rows;
    }
    const uint32_t high = tokenizer_->ScanStarts(
        line, field, offset, attrs_[end - 1] + 1, field_starts_.data());
    for (size_t k = begin; k < end; ++k) {
      // A field that ends the record ends the ScanStarts call, so
      // `high` is record_fields for the attributes past it.
      const uint32_t attr = attrs_[k];
      if (high < attr + 1) {
        return FieldCountError(*table_, *path_, row, high, attr, error);
      }
      metrics->fields_tokenized += attr + 1 - field;
      starts[k] = field_starts_[attr];
      ends[k] = field_starts_[attr + 1] - 1;
      if (ends[k] >= content) record_fields = attr + 1;
      field = attr + 1;
    }
    offset = std::min(field_starts_[field], size);
  }
  return true;
}

RawScanOperator::RawScanOperator(RawTableState* state,
                                 std::vector<uint32_t> projection,
                                 ScanMetrics* metrics, bool internal)
    : state_(state),
      projection_(std::move(projection)),
      metrics_(metrics != nullptr ? metrics : &local_metrics_),
      internal_(internal),
      table_name_(state->info().name),
      table_path_(state->info().path),
      tokenizer_(state->info().dialect, simd::ActiveLevel()),
      cutter_(&tokenizer_, &table_name_, &table_path_) {
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
  window_eof_ = false;
  window_bounds_.clear();
  store_segments_.clear();
  types_.clear();
  for (uint32_t attr : projection_) {
    types_.push_back(state_->info().schema->field(attr).type);
  }

  // Header line: data rows start after it. A map whose discovery has
  // started already knows where they start.
  local_offset_ = 0;
  if (state_->info().dialect.has_header &&
      (!use_map_ || state_->map().next_discovery_offset() == 0)) {
    NODB_RETURN_NOT_OK(reader_->SkipHeader(&local_offset_));
  }
  if (use_map_) state_->map().EnsureDiscoveryStartsAt(local_offset_);

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
  return Status::OK();
}

Result<bool> RawScanOperator::LocateRun(uint64_t row, uint64_t want,
                                        bool fit_buffer) {
  const uint64_t file_size = reader_->file_size();
  if (!use_map_) {
    // Without the map the scan's own cursor walks the file.
    NODB_ASSIGN_OR_RETURN(local_offset_,
                          FindWindow(local_offset_, want, 0, nullptr));
    return found_.size() == want || local_offset_ >= file_size;
  }
  PositionalMap& map = state_->map();
  const size_t byte_budget = fit_buffer ? reader_->buffer_size() : SIZE_MAX;
  while (true) {
    // Rows the map knows: cut the run from the snapshot window with
    // plain array indexing, no locking.
    if (row >= window_first_ && row < window_first_ + window_rows_) {
      const size_t lo = static_cast<size_t>(row - window_first_);
      const size_t stop = static_cast<size_t>(
          std::min<uint64_t>(window_rows_, lo + want));
      size_t i = lo;
      do {
        bounds_.emplace_back(window_bounds_[i], window_bounds_[i + 1] - 1);
        ++i;
      } while (i < stop &&
               window_bounds_[i + 1] - 1 - window_bounds_[lo] <= byte_budget);
      return i - lo == want || (window_eof_ && i == window_rows_);
    }
    PositionalMap::RowSnapshot snap = map.SnapshotRows(
        row, static_cast<uint32_t>(want), &window_bounds_);
    window_first_ = row;
    window_rows_ = snap.rows;
    window_eof_ = snap.complete && row + snap.rows == snap.known_rows;
    if (snap.rows > 0) continue;
    if (snap.complete && row >= snap.known_rows) return true;

    // The row is past the published frontier: take the discovery baton
    // and walk one window from the frontier, no further than the last
    // row the run wants. Other threads block here only for rows nobody
    // has walked yet.
    PositionalMap::Discovery discovery(&map);
    uint64_t resume = 0;
    uint64_t frontier_row = 0;
    if (!discovery.NeedsRow(row, &resume, &frontier_row)) continue;
    if (resume >= file_size) {
      discovery.MarkComplete(file_size);
      continue;
    }
    // A frontier behind `row` is only published; the window's rows from
    // `row` on are the run, served from the bytes just read.
    NODB_ASSIGN_OR_RETURN(
        uint64_t next,
        FindWindow(resume, row + want - frontier_row,
                   static_cast<size_t>(row - frontier_row), &discovery));
    if (next >= file_size) discovery.MarkComplete(file_size);
    if (found_.empty()) return true;  // the file shrank under the walk
    if (frontier_row + found_.size() <= row) continue;
    return frontier_row + found_.size() == row + want || next >= file_size;
  }
}

Result<uint64_t> RawScanOperator::FindWindow(
    uint64_t offset, uint64_t max_rows, size_t skip,
    PositionalMap::Discovery* discovery) {
  // NOLINTNEXTLINE(row-clock): once per window, not per row
  PhaseTimer timer(&metrics_->parsing_ns, reader_.get());
  found_.clear();
  uint64_t next = 0;
  NODB_RETURN_NOT_OK(reader_->FindRows(offset, reader_->file_size(), max_rows,
                                       tokenizer_.level(), &found_, &next));
  if (discovery != nullptr) discovery->PublishRows(found_, next);
  for (size_t i = skip; i < found_.size(); ++i) {
    bounds_.emplace_back(found_[i],
                         (i + 1 < found_.size() ? found_[i + 1] : next) - 1);
  }
  return next;
}

void RawScanOperator::MaybeObserveZone(uint32_t attr, uint64_t block,
                                       const ColumnVector& segment) {
  // Summaries admit exactly like store segments: the values must
  // provably cover the whole block, else a skip could hide rows.
  if (!collect_zones_ || !ZoneEligibleType(segment.type())) return;
  if (!CoversBlock(segment.size(), block)) return;
  if (state_->zones().Contains(attr, block)) return;
  state_->zones().Observe(attr, block, segment, zone_generation_);
}

bool RawScanOperator::CoversBlock(uint64_t rows, uint64_t block) const {
  const uint64_t rows_per_block = state_->config().rows_per_block;
  return rows >= rows_per_block ||
         (state_->map().rows_complete() &&
          block * rows_per_block + rows == state_->map().known_rows());
}

bool RawScanOperator::FetchStoreBlock(uint64_t block, size_t* rows) {
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    if (!state_->store().GetBlock(projection_, block, &store_segments_)) {
      return false;
    }
  }
  // Serve-time validation. A short segment claims to be the file's
  // tail, which would end the scan at its last row — so it must cover
  // the block *right now*; and all attributes of the block must agree
  // on its row count. A stale segment (e.g. a pre-append tail committed
  // by a racing promotion) fails these, is evicted, and the block
  // re-parses through the raw path.
  *rows = store_segments_[0]->size();
  bool aligned = true;
  for (const auto& seg : store_segments_) {
    aligned = aligned && seg->size() == *rows;
  }
  if (!aligned || !CoversBlock(*rows, block)) {
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
  const ZoneMaps& zones = state_->zones();
  for (const ZonePredicate& zp : zone_preds_) {
    std::optional<ZoneMaps::Entry> entry = zones.Get(zp.attr, block);
    if (!entry.has_value()) continue;
    const ZoneMaps::Entry& e = *entry;
    // NULL-bearing (and NaN-bearing, and all-NULL) blocks are never
    // skipped: their rows' fate is decided row-by-row, exactly like
    // FilterOperator would.
    if (e.has_null || e.unsafe || !e.non_null) continue;
    // The entry must provably cover the block *right now*. (Append
    // truncation and generation tagging make stale entries disappear,
    // but serve-time validation keeps even a racing one harmless.)
    if (!CoversBlock(e.rows, block)) continue;
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
  // When every row passes, the view goes out as-is — the store tier's
  // zero-copy serving survives pushdown.
  BatchPtr out = std::make_shared<RecordBatch>(schema_, std::move(view),
                                               rows);
  size_t passing = rows;
  if (!predicates_.empty()) {
    PhaseTimer timer(&metrics_->filter_ns, reader_.get());
    sel_.resize(rows);
    NODB_ASSIGN_OR_RETURN(passing,
                          EvaluatePushdown(*out, nullptr, rows, sel_.data()));
    if (passing < rows) out = GatherRows(*out, sel_.data(), passing);
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

Result<size_t> RawScanOperator::EvaluatePushdown(const RecordBatch& batch,
                                                 const uint32_t* in, size_t n,
                                                 uint32_t* out) const {
  size_t passing = n;
  for (size_t p = 0; p < predicates_.size() && passing > 0; ++p) {
    // The first conjunct selects from the candidates; each later one
    // visits only the rows still selected and narrows them in place.
    NODB_ASSIGN_OR_RETURN(passing, predicates_[p]->Select(
                                       batch, p == 0 ? in : out, passing, out));
  }
  return passing;
}

Slice RawScanOperator::RowLine(size_t r) const {
  const auto& [start, end] = bounds_[r];
  if (end <= start) return Slice();
  return slab_.SubSlice(static_cast<size_t>(start - slab_base_),
                        static_cast<size_t>(end - start));
}

Status RawScanOperator::ConvertRows(uint64_t first, const uint32_t* rows,
                                    size_t n, size_t at,
                                    const std::vector<size_t>& probes,
                                    BlockParse* block, Status cut_error) {
  // One typed loop per column. The first failing field in (row,
  // attribute) order is the one reported, so after a failure later
  // columns only need the rows before it — and a conversion error in a
  // row before the failed cut wins over it, as it did row at a time.
  const size_t width = block->probe_attrs.size();
  Status convert_error;
  size_t limit = n;
  {
    // NOLINTNEXTLINE(row-clock): once per batch of rows
    PhaseTimer timer(&metrics_->convert_ns, reader_.get());
    for (size_t k : probes) {
      const size_t slot = block->probe_slots[k];
      auto text_at = [&](size_t i) {
        const size_t cell = (rows[i] - at) * width + k;
        return tokenizer_.DecodeField(
            CsvTokenizer::RawField(RowLine(rows[i]), span_starts_[cell],
                                   span_ends_[cell] + 1),
            &decode_scratch_);
      };
      size_t failed = 0;
      Status s = ValueParser::ParseColumn(limit, types_[slot], text_at,
                                          block->columns[slot].get(), &failed);
      if (s.ok()) continue;
      limit = failed;
      convert_error = Status::ParseError(
          table_name_ + ": row " + std::to_string(first + rows[failed]) +
          ", attribute " + std::to_string(projection_[slot]) + ": " +
          s.message());
    }
  }
  NODB_RETURN_NOT_OK(convert_error);
  return cut_error;
}

Status RawScanOperator::ParsePass(uint64_t first, size_t lo, size_t hi,
                                  BlockParse* block) {
  const size_t width = block->probe_attrs.size();
  const bool filtered = !predicates_.empty();
  // Reads the bytes of rows [a, b] of bounds_: the run's, when every
  // row is cut, else each batch's passing rows'.
  auto read_slab = [&](size_t a, size_t b) {
    slab_base_ = bounds_[a].first;
    return reader_->ReadAt(
        slab_base_, static_cast<size_t>(bounds_[b].second - slab_base_),
        &slab_);
  };
  // Batches in row order: the first failing batch holds the first
  // failing field.
  const size_t row_bytes = 2 * sizeof(uint32_t) * std::max<size_t>(width, 1);
  const size_t batch = std::max<size_t>(1, kSpanScratchBytes / row_bytes);
  span_starts_.resize(std::min(batch, hi - lo) * width);
  span_ends_.resize(std::min(batch, hi - lo) * width);
  if (!block->phase1.empty()) NODB_RETURN_NOT_OK(read_slab(lo, hi - 1));
  for (size_t at = lo; at < hi; at += batch) {
    const size_t count = std::min(batch, hi - at);
    // The batch's rows enter sel_; phase 1 parses them all, and the
    // conjuncts narrow them in place.
    const size_t base = sel_.size();
    sel_.resize(base + count);
    uint32_t* rows = sel_.data() + base;
    std::iota(rows, rows + count, static_cast<uint32_t>(at));

    // ---- phase 1: every row's first cut (through the last phase-1
    // attribute, with the phase-2 ones it walks past anyway), the
    // phase-1 columns' conversion and their spans in the chunk.
    size_t cut = count;
    Status cut_error;
    if (!block->phase1.empty()) {
      // NOLINTNEXTLINE(row-clock): once per batch of rows
      PhaseTimer timer(&metrics_->tokenize_ns, reader_.get());
      for (cut = 0; cut < count; ++cut) {
        if (!cutter_.CutFirst(RowLine(at + cut), first + at + cut,
                              &span_starts_[cut * width],
                              &span_ends_[cut * width], metrics_,
                              &cut_error)) {
          break;
        }
      }
    }
    NODB_RETURN_NOT_OK(ConvertRows(first, rows, cut, at, block->phase1, block,
                                   cut_error));
    const size_t phase1_fields = count * block->phase1.size();
    metrics_->fields_converted += phase1_fields;
    if (filtered) metrics_->pushdown_phase1_fields += phase1_fields;
    if (block->chunk.has_value()) {
      // NOLINTNEXTLINE(row-clock): once per batch of rows
      PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
      for (size_t r = 0; r < count; ++r) {
        block->chunk->AddRow(&span_starts_[r * width], &span_ends_[r * width],
                             block->phase1.data());
      }
    }
    if (!block->deferred.ok() || !filtered) continue;

    // ---- the conjuncts, over the block's columns at the batch's rows.
    Result<size_t> selected = size_t{0};
    {
      // NOLINTNEXTLINE(row-clock): once per batch of rows
      PhaseTimer timer(&metrics_->filter_ns, reader_.get());
      selected = EvaluatePushdown(
          RecordBatch(schema_, block->columns, at + count), rows, count, rows);
    }
    if (!selected.ok()) {
      block->deferred = selected.status();
      continue;
    }
    const size_t passed = *selected;
    sel_.resize(base + passed);
    if (block->phase2.empty() || passed == 0) continue;

    // ---- phase 2: the passing rows finish their cuts — past the last
    // phase-1 attribute by resuming the first cut — and convert the
    // phase-2 columns (the paper's selective tuple formation,
    // predicate-aware).
    if (block->phase1.empty()) {
      NODB_RETURN_NOT_OK(read_slab(rows[0], rows[passed - 1]));
    }
    size_t finished = 0;
    Status rest_error;
    {
      // NOLINTNEXTLINE(row-clock): once per batch of rows
      PhaseTimer timer(&metrics_->tokenize_ns, reader_.get());
      for (; finished < passed; ++finished) {
        const size_t r = rows[finished] - at;
        if (!cutter_.CutRest(RowLine(rows[finished]), first + rows[finished],
                             &span_starts_[r * width], &span_ends_[r * width],
                             metrics_, &rest_error)) {
          break;
        }
      }
    }
    block->deferred = ConvertRows(first, rows, finished, at, block->phase2,
                                  block, rest_error);
    const size_t phase2_fields = passed * block->phase2.size();
    metrics_->fields_converted += phase2_fields;
    metrics_->pushdown_phase2_fields += phase2_fields;
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

  // ---- one slot per projected attribute: a cache-resident segment, or
  // a column this block parses — phase 1 (the predicate columns, or all
  // of them when there are no conjuncts) for every row, phase 2 for the
  // passing rows only.
  const size_t n_slots = projection_.size();
  BlockParse parse;
  parse.columns.resize(n_slots);
  parse.cached.assign(n_slots, false);
  std::optional<PositionalMap::BlockPlan> plan;
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    std::vector<uint32_t> chunk_attrs;
    for (size_t i = 0; i < n_slots; ++i) {
      uint32_t attr = projection_[i];
      if (use_cache_) {
        auto seg = state_->cache().Get(attr, block);
        if (seg != nullptr && CoversBlock(seg->size(), block)) {
          parse.columns[i] = std::const_pointer_cast<ColumnVector>(seg);
          parse.cached[i] = true;
          ++metrics_->cache_block_hits;
          continue;
        }
        ++metrics_->cache_block_misses;
      }
      parse.columns[i] = std::make_shared<ColumnVector>(types_[i]);
      if (!filtered || pred_slot_[i]) {
        parse.columns[i]->Reserve(static_cast<size_t>(want));
        parse.phase1.push_back(parse.probe_attrs.size());
        chunk_attrs.push_back(attr);
      } else {
        parse.phase2.push_back(parse.probe_attrs.size());
      }
      parse.probe_attrs.push_back(attr);
      parse.probe_slots.push_back(i);
    }
    if (use_map_ && !parse.probe_attrs.empty()) {
      plan = map.PrepareBlock(first, parse.probe_attrs);
      // The distance policy still decides per combination, and the
      // chunk records the phase-1 columns, the ones cut for every row.
      if (!chunk_attrs.empty() && map.ShouldIndexCombination(*plan)) {
        parse.chunk = map.StartChunk(first, chunk_attrs);
      }
    }
  }
  {
    PhaseTimer timer(&metrics_->tokenize_ns, reader_.get());
    cutter_.Prepare(plan.has_value() ? &*plan : nullptr, parse.probe_attrs,
                    parse.phase1);
  }

  // ---- the block's rows are located and parsed one run at a time
  // (LocateRun): the rows whose bytes fit the read buffer. Each run's
  // bytes are read once — a cold run's by the window that found its
  // rows, a known run's by ParsePass — so a scan never holds more than a
  // buffer of raw bytes, and a block whose columns are all
  // cache-resident is one run that never touches the raw file — the
  // paper's "eliminating the need to access hot raw data".
  bounds_.clear();
  sel_.clear();
  for (bool last = false; !last;) {
    const size_t lo = bounds_.size();
    NODB_ASSIGN_OR_RETURN(
        last, LocateRun(first + lo, want - lo, !parse.probe_attrs.empty()));
    const size_t hi = bounds_.size();
    if (hi == lo) break;  // end of file
    NODB_RETURN_NOT_OK(ParsePass(first, lo, hi, &parse));
  }
  NODB_RETURN_NOT_OK(parse.deferred);
  const size_t rows = bounds_.size();
  if (rows == 0) {
    exhausted_ = true;
    return BatchPtr();
  }
  // The row limit stopped the block early: its segments and chunk do
  // not cover it, so it teaches nothing (like an abandoned scan).
  const bool cut_short = rows == want && want < rows_per_block;
  const size_t passing = sel_.size();

  // ---- form the output tuples. A column holding exactly the passing
  // rows (a phase-2 column, or any column when every row passed) is
  // handed out as-is; a column holding every row is gathered.
  std::vector<std::shared_ptr<ColumnVector>> out_cols(n_slots);
  {
    PhaseTimer timer(&metrics_->convert_ns, reader_.get());
    for (size_t i = 0; i < n_slots; ++i) {
      const std::shared_ptr<ColumnVector>& col = parse.columns[i];
      if (col->size() == passing) {
        out_cols[i] = col;
        continue;
      }
      out_cols[i] = std::make_shared<ColumnVector>(types_[i]);
      if (passing == rows) {
        out_cols[i]->AppendRange(*col, 0, rows);
      } else {
        out_cols[i]->AppendSelected(*col, sel_.data(), passing);
      }
    }
  }
  auto out = std::make_shared<RecordBatch>(schema_, std::move(out_cols),
                                           passing);

  // ---- side effects: a column holding every row of the block feeds
  // the map, cache, statistics, zone maps and promotion, whichever
  // phase parsed it; a phase-2 column that missed rejected rows
  // teaches nothing.
  if (!cut_short) {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    if (parse.chunk.has_value() && parse.chunk->rows() > 0) {
      map.CommitChunk(std::move(*parse.chunk));
    }
    for (size_t i = 0; i < n_slots; ++i) {
      const uint32_t attr = projection_[i];
      const std::shared_ptr<ColumnVector>& col = parse.columns[i];
      if (!parse.cached[i] && col->size() != rows) continue;
      MaybeObserveZone(attr, block, *col);
      if (!parse.cached[i]) {
        if (use_stats_) state_->stats().ObserveBlock(attr, block, *col);
        if (use_cache_) {
          state_->cache().Put(attr, block, col, cache_generation_);
        }
      }
      if (use_store_ && promote_attr_[i] &&
          !state_->store().Contains(attr, block) &&
          CoversBlock(col->size(), block)) {
        state_->store().Put(attr, block, col, store_generation_);
      }
    }
  }

  metrics_->rows_scanned += rows;
  metrics_->pushdown_rows_pruned += rows - passing;
  if (parse.probe_attrs.empty()) {
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
