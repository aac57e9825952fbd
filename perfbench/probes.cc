#include "probes.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "csv/tokenizer.h"
#include "csv/value_parser.h"
#include "io/file.h"
#include "obs/plan_profile.h"
#include "raw/raw_scan.h"
#include "raw/stats_collector.h"
#include "server/wire.h"
#include "simd/structural_index.h"
#include "store/promoter.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace perfbench {

using nodb::DataType;

// --------------------------------------------------------------- counts

void LayerCounts::Count(const nodb::QueryMetrics& metrics) {
  scan.Add(metrics.scan);
  ++queries;
  glue_us.push_back(static_cast<double>(metrics.total_ns - metrics.parse_ns -
                                        metrics.plan_ns - metrics.drain_ns) /
                    1e3);
}

void LayerCounts::Merge(const LayerCounts& other) {
  scan.Add(other.scan);
  queries += other.queries;
  glue_us.insert(glue_us.end(), other.glue_us.begin(), other.glue_us.end());
  wire_overhead_us.insert(wire_overhead_us.end(),
                          other.wire_overhead_us.begin(),
                          other.wire_overhead_us.end());
  generator_lag_ms.insert(generator_lag_ms.end(),
                          other.generator_lag_ms.begin(),
                          other.generator_lag_ms.end());
}

void StructureState::Add(const nodb::RawTableState* state) {
  if (state == nullptr) return;
  map_bytes += state->map().bytes_used();
  map_evictions += state->map().evictions();
  cache_bytes += state->cache().bytes_used();
  cache_evictions += state->cache().evictions();
  store_bytes += state->store().bytes_used();
  store_evictions += state->store().evictions();
  store_promotions += state->store().promotions();
}

StructureState ReadStructures(const nodb::NoDbEngine& engine,
                              const std::vector<std::string>& tables) {
  StructureState out;
  for (const std::string& table : tables) out.Add(engine.table_state(table));
  return out;
}

RegistryMark RegistryMark::Now() {
  auto& registry = nodb::obs::MetricsRegistry::Global();
  RegistryMark mark;
  mark.promoter_pass =
      registry.GetHistogram("nodb_promoter_pass_ns")->Snapshot();
  mark.queue_wait =
      registry.GetHistogram("nodb_server_queue_wait_ns")->Snapshot();
  return mark;
}

// ------------------------------------------------------------- replayer

/// The benchmark's own leaf factory: the same RawScanOperator wiring
/// and pushdown offer handling as the engine's, over the replayer's
/// table states.
class Replayer::Factory final : public nodb::ScanFactory {
 public:
  Factory(Replayer* owner, nodb::ScanMetrics* metrics)
      : owner_(owner), metrics_(metrics) {}

  nodb::Result<std::shared_ptr<nodb::Schema>> TableSchema(
      const std::string& table) override {
    NODB_ASSIGN_OR_RETURN(nodb::RawTableInfo info,
                          owner_->catalog_.GetTable(table));
    return info.schema;
  }

  nodb::Result<nodb::OperatorPtr> CreateScan(
      const std::string& table,
      const std::vector<size_t>& projection) override {
    return CreatePushdownScan(table, projection, nullptr);
  }

  nodb::Result<nodb::OperatorPtr> CreatePushdownScan(
      const std::string& table, const std::vector<size_t>& projection,
      nodb::ScanPushdown* pushdown) override {
    std::vector<uint32_t> attrs(projection.begin(), projection.end());
    auto scan = std::make_unique<nodb::RawScanOperator>(
        owner_->State(table), std::move(attrs), metrics_);
    if (pushdown != nullptr && !pushdown->conjuncts.empty() &&
        owner_->config_.enable_pushdown) {
      scan->SetPushdownPredicates(pushdown->conjuncts);
      pushdown->pushed.assign(pushdown->conjuncts.size(), true);
    }
    return nodb::OperatorPtr(std::move(scan));
  }

 private:
  Replayer* owner_;
  nodb::ScanMetrics* metrics_;
};

Replayer::Replayer(nodb::Catalog catalog, const nodb::NoDbConfig& config,
                   SpanRecorder* recorder)
    : catalog_(std::move(catalog)), config_(config), recorder_(recorder) {}

Replayer::~Replayer() = default;

nodb::RawTableState* Replayer::State(const std::string& table) {
  auto it = states_.find(table);
  if (it != states_.end()) return it->second.get();
  auto state = std::make_unique<nodb::RawTableState>(
      Must(catalog_.GetTable(table), "replay table " + table), config_);
  MustOk(state->Open(), "replay open " + table);
  return states_.emplace(table, std::move(state)).first->second.get();
}

void Replayer::CheckForUpdates() {
  for (auto& [table, state] : states_) {
    ScopedSpan span(recorder_, "raw.check_for_updates", 0);
    Must(state->CheckForUpdates(), "replay update check " + table);
  }
}

void Replayer::Promote() {
  for (auto& [table, state] : states_) {
    std::vector<uint32_t> hot = nodb::HotAttributes(*state);
    if (hot.empty()) continue;
    ScopedSpan span(recorder_, "store.promote", 0);
    MustOk(nodb::PromoteHotColumns(state.get(), hot), "replay promotion " + table);
  }
}

namespace {

std::string ExecSpanName(const std::string& kind) {
  if (kind == "scan") return "raw.scan";
  if (kind == "join") return "exec.hash_join";
  return "exec." + kind;
}

/// Lays the profiled operator tree out as nested spans under `parent`:
/// each node spans its inclusive time, children one after another from
/// the parent's start, so span self time equals the profiler's.
void EmitPlanSpans(SpanRecorder* recorder, const nodb::obs::PlanProfiler::Node* node,
                   uint64_t parent, uint64_t request, int64_t start) {
  double rows_in = 0;
  for (const auto* child : node->children) rows_in += child->rows;
  if (node->children.empty()) rows_in = node->rows;
  uint64_t id = recorder->Emit(ExecSpanName(node->kind), parent, request,
                               start, start + node->TotalNs(), rows_in);
  int64_t child_start = start;
  for (const auto* child : node->children) {
    EmitPlanSpans(recorder, child, id, request, child_start);
    child_start += child->TotalNs();
  }
}

}  // namespace

Answer Replayer::Replay(const std::string& sql) {
  uint64_t request = recorder_ == nullptr ? 0 : recorder_->NextRequest();
  ScopedSpan root(recorder_, "replay.query", request);

  ScopedSpan parse_span(recorder_, "sql.parse", request);
  nodb::SelectStatement stmt = Must(nodb::ParseSelect(sql), "replay parse");
  parse_span.Close();

  nodb::ScanMetrics scan_metrics;
  Factory factory(this, &scan_metrics);
  nodb::StatsSelectivityEstimator estimator;
  nodb::obs::PlanProfiler profiler;
  ScopedSpan plan_span(recorder_, "sql.plan", request);
  for (const std::string& table : catalog_.TableNames()) {
    nodb::RawTableState* state = State(table);
    if (state->component_flags().stats) {
      estimator.Register(table, &state->stats(), state->info().schema);
    }
  }
  nodb::PlannerOptions options;
  options.stats = config_.enable_statistics ? &estimator : nullptr;
  options.profile = &profiler;
  nodb::OperatorPtr plan =
      Must(nodb::PlanSelect(stmt, &factory, options), "replay plan");
  plan_span.Close();

  ScopedSpan drain_span(recorder_, "exec.drain", request);
  int64_t drain_start = NowNs();
  nodb::QueryResult result =
      Must(nodb::QueryResult::Drain(plan.get()), "replay drain");
  drain_span.Close(static_cast<double>(result.num_rows()));
  const auto* root_node = profiler.root();
  if (recorder_ != nullptr && root_node != nullptr) {
    EmitPlanSpans(recorder_, root_node, drain_span.id(), request, drain_start);
  }
  for (const auto* node : profiler.nodes()) {
    if (recorder_ != nullptr && node->kind == "scan" && scan_metrics.rows_scanned > 0 &&
        scan_metrics.rows_from_store == scan_metrics.rows_scanned) {
      store_scan_ns_ += static_cast<double>(node->SelfNs());
      store_scan_rows_ += static_cast<double>(node->rows);
    }
  }

  nodb::server::WireWriter writer;
  ScopedSpan encode_span(recorder_, "server.encode", request);
  nodb::server::EncodeBatchRows(result.batch(), 0, result.num_rows(), &writer);
  encode_span.Close(static_cast<double>(writer.data().size()));

  auto decoded = std::make_shared<nodb::RecordBatch>(result.schema());
  ScopedSpan decode_span(recorder_, "server.decode", request);
  nodb::server::WireReader reader(writer.data());
  Must(nodb::server::DecodeBatchInto(&reader, decoded.get()), "replay decode");
  decode_span.Close(static_cast<double>(writer.data().size()));
  root.Close();
  return AnswerOf(nodb::QueryResult::FromParts(result.schema(), decoded));
}

// --------------------------------------------------------------- probes

namespace {

/// Reads the whole file through the io layer in read-buffer slabs.
std::string ReadFile(const std::string& path, SpanRecorder* recorder) {
  auto file = Must(nodb::OpenRandomAccessFile(path), "open " + path);
  uint64_t size = Must(file->Size(), "size " + path);
  std::string data(size, '\0');
  ScopedSpan span(recorder, "io.read", 0);
  constexpr size_t kSlab = 1u << 20;
  for (uint64_t off = 0; off < size;) {
    nodb::Slice got;
    MustOk(file->Read(off, std::min<uint64_t>(kSlab, size - off), &data[off], &got),
           "read " + path);
    if (got.size() == 0) break;
    if (got.data() != &data[off]) std::memcpy(&data[off], got.data(), got.size());
    off += got.size();
  }
  span.Close(static_cast<double>(size));
  return data;
}

/// Repeats `body` until at least `min_ns` has been measured.
void Repeat(int64_t min_ns, const std::function<void()>& body) {
  int64_t start = NowNs();
  do {
    body();
  } while (NowNs() - start < min_ns);
}

}  // namespace

void ProbeSimdIndex(const std::string& path, SpanRecorder* recorder) {
  std::string data = ReadFile(path, recorder);
  nodb::simd::StructuralIndexer indexer(nodb::CsvDialect{},
                                        nodb::simd::ActiveLevel());
  nodb::simd::StructuralIndex index;
  constexpr size_t kSlab = 1u << 20;
  Repeat(50'000'000, [&] {
    ScopedSpan span(recorder, "simd.index", 0);
    for (size_t off = 0; off < data.size(); off += kSlab) {
      size_t len = std::min(kSlab, data.size() - off);
      indexer.Index(data.data() + off, len, off, &index);
    }
    span.Close(static_cast<double>(data.size()));
  });
}

void ProbeCsv(const std::string& path, const nodb::Schema& schema,
              SpanRecorder* recorder) {
  std::string data = ReadFile(path, recorder);
  std::vector<nodb::Slice> lines;
  for (size_t pos = 0; pos < data.size() && lines.size() < 20000;) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    lines.emplace_back(data.data() + pos, nl - pos);
    pos = nl + 1;
  }
  nodb::CsvTokenizer tokenizer{nodb::CsvDialect{}};
  std::vector<std::vector<uint32_t>> starts(lines.size());
  Repeat(20'000'000, [&] {
    ScopedSpan span(recorder, "csv.tokenize", 0);
    double fields = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
      fields += tokenizer.TokenizeLine(lines[i], &starts[i]);
    }
    span.Close(fields);
  });
  const std::pair<DataType, const char*> kTypes[] = {
      {DataType::kInt64, "int"},
      {DataType::kDouble, "double"},
      {DataType::kString, "string"},
      {DataType::kDate, "date"}};
  for (const auto& [type, name] : kTypes) {
    std::vector<nodb::Slice> fields;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (schema.field(c).type != type) continue;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (c + 1 >= starts[i].size()) continue;
        fields.push_back(nodb::CsvTokenizer::RawField(
            lines[i], starts[i][c], starts[i][c + 1]));
      }
    }
    if (fields.empty()) continue;
    Repeat(10'000'000, [&] {
      nodb::ColumnVector column(type);
      column.Reserve(fields.size());
      ScopedSpan span(recorder, std::string("csv.convert.") + name, 0);
      for (const nodb::Slice& field : fields) {
        MustOk(nodb::ValueParser::ParseInto(field, type, &column),
               "convert probe");
      }
      span.Close(static_cast<double>(fields.size()));
    });
  }
}

// ------------------------------------------------------- layer metrics

namespace {

struct SpanTotals {
  double self_ns = 0;
  double dur_ns = 0;
  double rows = 0;
  std::vector<double> durations_ns;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(const SpanRecorder& recorder, const LayerInputs& in,
                     Report* report) {
  std::map<std::string, SpanTotals> by_name;
  std::map<uint64_t, int64_t> self = recorder.SelfTimes();
  for (const Span& span : recorder.Spans()) {
    SpanTotals& t = by_name[span.name];
    double dur = static_cast<double>(span.end_ns - span.start_ns);
    t.self_ns += static_cast<double>(self[span.id]);
    t.dur_ns += dur;
    t.rows += span.rows;
    t.durations_ns.push_back(dur);
  }
  auto totals = [&](const std::string& name) -> const SpanTotals& {
    static const SpanTotals kEmpty;
    auto it = by_name.find(name);
    return it == by_name.end() ? kEmpty : it->second;
  };
  auto median_span = [&](const std::string& name) {
    return Median(totals(name).durations_ns);
  };
  const nodb::ScanMetrics& s = in.counts.scan;
  const double queries = static_cast<double>(in.counts.queries);
  const double rows = static_cast<double>(s.rows_scanned);
  const double located = static_cast<double>(s.rows_from_raw + s.rows_from_cache);

  // simd
  report->Metric("simd.index_gbps",
                 Ratio(totals("simd.index").rows, totals("simd.index").dur_ns),
                 "GB/s");
  // io
  report->Metric("io.read_ms", Ratio(s.io_ns / 1e6, queries), "ms");
  report->Metric("io.bytes_read_per_query", Ratio(s.bytes_read, queries), "B");
  // csv
  report->Metric("csv.tokenize_ns_per_field",
                 Ratio(totals("csv.tokenize").self_ns, totals("csv.tokenize").rows),
                 "ns");
  for (const char* type : {"int", "double", "string", "date"}) {
    const SpanTotals& t = totals(std::string("csv.convert.") + type);
    report->Metric(std::string("csv.convert_ns_per_field.") + type,
                   Ratio(t.self_ns, t.rows), "ns");
  }
  report->Metric("csv.fields_tokenized_per_row", Ratio(s.fields_tokenized, rows),
                 "count");
  report->Metric("csv.fields_converted_per_row", Ratio(s.fields_converted, rows),
                 "count");
  // raw: positional map and scan
  report->Metric("raw.locate_ns_per_row", Ratio(s.parsing_ns, located), "ns");
  report->Metric("raw.map_exact_ratio",
                 Ratio(s.map_exact_probes, s.map_exact_probes +
                                               s.map_anchor_probes +
                                               s.map_blind_rows),
                 "ratio");
  report->Metric("raw.map_bytes", in.structures.map_bytes, "B");
  report->Metric("raw.map_evictions", in.structures.map_evictions, "count");
  report->Metric("raw.nodb_maintain_ms", Ratio(s.nodb_ns / 1e6, queries), "ms");
  report->Metric("raw.zone_skipped_block_share",
                 Ratio(s.zone_skipped_rows, s.zone_skipped_rows + rows), "ratio");
  report->Metric("raw.pushdown_pruned_share", Ratio(s.pushdown_rows_pruned, rows),
                 "ratio");
  report->Metric("raw.rows_from_raw_share", Ratio(s.rows_from_raw, rows), "ratio");
  // raw: cache
  report->Metric("raw.cache_hit_ratio",
                 Ratio(s.cache_block_hits, s.cache_block_hits + s.cache_block_misses),
                 "ratio");
  report->Metric("raw.cache_evictions", in.structures.cache_evictions, "count");
  report->Metric("raw.cache_bytes", in.structures.cache_bytes, "B");
  report->Metric("raw.rows_from_cache_share", Ratio(s.rows_from_cache, rows),
                 "ratio");
  // raw: table state
  report->Metric("raw.update_check_ms", median_span("engine.refresh_table") / 1e6,
                 "ms");
  // store
  report->Metric("store.rows_from_store_share", Ratio(s.rows_from_store, rows),
                 "ratio");
  report->Metric("store.serve_ns_per_row",
                 Ratio(in.store_scan_ns, in.store_scan_rows), "ns");
  report->Metric("store.promotions", in.structures.store_promotions, "count");
  report->Metric("store.promoter_pass_ms",
                 Ratio((in.end.promoter_pass.sum - in.begin.promoter_pass.sum) / 1e6,
                       static_cast<double>(in.end.promoter_pass.count -
                                           in.begin.promoter_pass.count)),
                 "ms");
  report->Metric("store.evictions", in.structures.store_evictions, "count");
  report->Metric("store.bytes", in.structures.store_bytes, "B");
  // sql
  report->Metric("sql.parse_us", median_span("sql.parse") / 1e3, "us");
  report->Metric("sql.plan_us", median_span("sql.plan") / 1e3, "us");
  // exec: operator self time per input row
  for (const char* op : {"filter", "project", "aggregate", "hash_join", "sort",
                         "limit"}) {
    const SpanTotals& t = totals(std::string("exec.") + op);
    report->Metric(std::string("exec.") + op + "_ns_per_row",
                   Ratio(t.self_ns, t.rows), "ns");
  }
  // engines
  report->Metric("engines.glue_us", Median(in.counts.glue_us), "us");
  // server
  const SpanTotals& enc = totals("server.encode");
  const SpanTotals& dec = totals("server.decode");
  report->Metric("server.encode_mbps", Ratio(enc.rows * 1e3, enc.dur_ns), "MB/s");
  report->Metric("server.decode_mbps", Ratio(dec.rows * 1e3, dec.dur_ns), "MB/s");
  report->Metric("server.wire_overhead_us", Median(in.counts.wire_overhead_us),
                 "us");
  report->Metric("server.queue_wait_us",
                 Ratio((in.end.queue_wait.sum - in.begin.queue_wait.sum) / 1e3,
                       static_cast<double>(in.end.queue_wait.count -
                                           in.begin.queue_wait.count)),
                 "us");
  report->Metric("server.rejected", in.rejected, "count");
  // persist
  report->Metric("persist.save_ms", median_span("persist.save") / 1e6, "ms");
  report->Metric("persist.load_ms", median_span("persist.load") / 1e6, "ms");
  report->Metric("persist.snapshot_bytes_per_raw_byte",
                 Ratio(in.snapshot_bytes, in.raw_bytes), "ratio");
  // harness diagnostics
  report->Metric("bench.generator_lag_p99_ms",
                 Quantile(in.counts.generator_lag_ms, 0.99), "ms");
  report->Metric("obs.trace_overhead", in.trace_overhead, "ratio");
}

}  // namespace perfbench
