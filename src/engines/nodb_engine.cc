#include "engines/nodb_engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/tenant.h"
#include "persist/snapshot.h"
#include "raw/parallel_scan.h"
#include "raw/raw_scan.h"
#include "raw/stats_collector.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "store/promoter.h"
#include "util/stopwatch.h"

namespace nodb {

/// Per-query scan factory: hands the planner RawScanOperators wired to
/// this engine's table states and one shared metrics sink.
class NoDbEngine::Factory final : public ScanFactory {
 public:
  Factory(NoDbEngine* engine, ScanMetrics* metrics)
      : engine_(engine), metrics_(metrics) {}

  Result<std::shared_ptr<Schema>> TableSchema(
      const std::string& table) override {
    NODB_ASSIGN_OR_RETURN(RawTableInfo info,
                          engine_->catalog_.GetTable(table));
    return info.schema;
  }

  Result<OperatorPtr> CreateScan(
      const std::string& table,
      const std::vector<size_t>& projection) override {
    return CreatePushdownScan(table, projection, nullptr);
  }

  /// The planner offers single-table conjuncts here; the raw scan can
  /// evaluate any bound expression, so with pushdown enabled every
  /// offered conjunct is consumed and runs two-phase inside the scan.
  /// The row limit is passed on only when the scan took every
  /// conjunct, so no filter above it drops rows the limit counted.
  Result<OperatorPtr> CreatePushdownScan(
      const std::string& table, const std::vector<size_t>& projection,
      ScanPushdown* pushdown) override {
    NODB_ASSIGN_OR_RETURN(RawTableState * state,
                          engine_->GetOrCreateState(table));
    std::vector<uint32_t> attrs(projection.begin(), projection.end());
    NODB_RETURN_NOT_OK(engine_->MaybeParallelPrewarm(state, attrs));
    auto scan = std::make_unique<RawScanOperator>(state, std::move(attrs),
                                                  metrics_);
    if (pushdown != nullptr &&
        (pushdown->conjuncts.empty() || engine_->config_.enable_pushdown)) {
      scan->SetPushdownPredicates(pushdown->conjuncts);
      pushdown->pushed.assign(pushdown->conjuncts.size(), true);
      scan->SetRowLimit(pushdown->row_limit);
    }
    return OperatorPtr(std::move(scan));
  }

 private:
  NoDbEngine* engine_;
  ScanMetrics* metrics_;
};

namespace {

/// Leaf operator emitting a pre-rendered text block as a one-column
/// result, one row per line — how EXPLAIN [ANALYZE] output travels
/// through the ordinary QueryResult pipeline.
class TextResultOperator final : public ExecOperator {
 public:
  TextResultOperator(const std::string& column, const std::string& text)
      : schema_(Schema::Make({{column, DataType::kString}})) {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) lines_.push_back(std::move(line));
  }

  Status Open() override { return Status::OK(); }

  Result<BatchPtr> Next() override {
    if (done_) return BatchPtr(nullptr);
    done_ = true;
    auto batch = std::make_shared<RecordBatch>(schema_);
    for (std::string& line : lines_) {
      batch->AppendRow({Value::String(std::move(line))});
    }
    return batch;
  }

  std::shared_ptr<Schema> output_schema() const override { return schema_; }

 private:
  std::shared_ptr<Schema> schema_;
  std::vector<std::string> lines_;
  bool done_ = false;
};

Result<QueryOutcome> TextOutcome(const std::string& column,
                                 const std::string& text,
                                 QueryMetrics metrics,
                                 BatchSink* sink = nullptr) {
  TextResultOperator op(column, text);
  QueryOutcome outcome;
  NODB_ASSIGN_OR_RETURN(outcome.result, QueryResult::Drain(&op, sink));
  outcome.metrics = std::move(metrics);
  return outcome;
}

}  // namespace

NoDbEngine::NoDbEngine(Catalog catalog, NoDbConfig config, std::string name)
    : name_(std::move(name)),
      catalog_(std::move(catalog)),
      config_(config),
      flags_{config.enable_positional_map, config.enable_cache,
             config.enable_statistics, config.enable_store} {
  tracer_.SetEnabled(config_.trace_mode == TraceMode::kOn);
  if (!config_.trace_path.empty()) tracer_.SetPath(config_.trace_path);
}

NoDbEngine::~NoDbEngine() {
  WaitForPromotions();
  if (config_.snapshot_mode == SnapshotMode::kAuto) {
    // Best effort: teardown must not fail, and a torn save is
    // impossible (WriteFileAtomic) — at worst the previous sidecar
    // survives.
    (void)SaveAllSnapshots();
  }
}

Result<int64_t> NoDbEngine::Initialize() {
  // The NoDB philosophy: there is no initialization step. A pointer to
  // the raw files (the catalog) is all the engine needs.
  return int64_t{0};
}

Result<RawTableState*> NoDbEngine::GetOrCreateState(
    const std::string& table) {
  RawTableState* state = nullptr;
  {
    MutexLock lock(states_mu_);
    auto it = states_.find(table);
    if (it != states_.end()) state = it->second.get();
  }
  if (state != nullptr) {
    // The raw file may have changed under us since the last query
    // (serialized per table by the state's own lock).
    NODB_RETURN_NOT_OK(state->CheckForUpdates().status());
    return state;
  }
  NODB_ASSIGN_OR_RETURN(RawTableInfo info, catalog_.GetTable(table));
  NoDbConfig config_snapshot = config_;
  {
    // The runtime toggles may have moved since construction; fold the
    // current ones into the snapshot the fresh state is built from.
    MutexLock lock(states_mu_);
    config_snapshot.enable_positional_map = flags_.map;
    config_snapshot.enable_cache = flags_.cache;
    config_snapshot.enable_statistics = flags_.stats;
    config_snapshot.enable_store = flags_.store;
  }
  auto fresh = std::make_unique<RawTableState>(std::move(info),
                                               config_snapshot);
  NODB_RETURN_NOT_OK(fresh->Open());
  if (config_snapshot.snapshot_mode == SnapshotMode::kAuto) {
    // Recover before publishing the state so the first query already
    // sees the thawed structures. Degradation is silent by design —
    // the report is retained on the state for the monitoring panel.
    (void)persist::LoadSnapshot(
        fresh.get(),
        persist::SnapshotPathFor(fresh->info(),
                                 config_snapshot.snapshot_path));
  }
  MutexLock lock(states_mu_);
  auto [it, inserted] = states_.emplace(table, std::move(fresh));
  // A concurrent first query may have inserted meanwhile (its state
  // wins, ours is discarded), and the component toggles may have moved
  // since the snapshot — re-apply them while we hold their lock.
  if (inserted) {
    it->second->SetComponentFlags(flags_.map, flags_.cache, flags_.stats,
                                  flags_.store);
  }
  return it->second.get();
}

Status NoDbEngine::MaybeParallelPrewarm(RawTableState* state,
                                        const std::vector<uint32_t>& attrs) {
  uint32_t threads =
      config_.num_threads == 0
          ? static_cast<uint32_t>(ThreadPool::DefaultThreadCount())
          : config_.num_threads;
  if (threads <= 1) return Status::OK();
  if (state->info().dialect.allow_quoting) {
    // Chunk boundaries split on raw '\n', which a quoted field may
    // contain: fall back to the serial first-touch path (the claim is
    // left untaken, so parallel_prewarmed() stays false).
    return Status::OK();
  }
  if (!state->component_flags().any()) {
    return Status::OK();  // Baseline mode: nothing would be retained.
  }
  // Only a genuinely cold table qualifies; once the serial scan has
  // started discovering rows, the adaptive path owns the state.
  if (state->map().known_rows() > 0 || state->map().rows_complete()) {
    return Status::OK();
  }
  if (!state->TryClaimParallelPrewarm()) {
    return Status::OK();  // one attempt per file generation
  }
  // A failure (e.g. malformed row) carries the exact message the serial
  // scan would have produced for that row, so surfacing it here keeps
  // the engine's observable behaviour identical.
  return ParallelChunkedScan(state, attrs, threads).status();
}

Result<QueryOutcome> NoDbEngine::Execute(std::string_view sql) {
  return ExecuteStreaming(sql, nullptr);
}

Result<QueryOutcome> NoDbEngine::ExecuteStreaming(std::string_view sql,
                                                  BatchSink* sink) {
  std::string_view body = sql;
  bool analyze = false;
  if (StripExplainPrefix(&body, &analyze)) {
    if (!analyze) {
      NODB_ASSIGN_OR_RETURN(std::string text, Explain(body));
      QueryMetrics metrics;
      metrics.sql = std::string(sql);
      return TextOutcome("QUERY PLAN", text, std::move(metrics), sink);
    }
    // EXPLAIN ANALYZE: really run the statement (adaptive structures
    // grow exactly as a plain execution would), then render the
    // annotated tree instead of the rows. The inner execution is never
    // streamed — the client asked for the plan, not the rows.
    obs::PlanProfiler profiler;
    NODB_ASSIGN_OR_RETURN(QueryOutcome inner,
                          ExecuteQuery(body, &profiler, nullptr));
    std::string text = obs::RenderAnalyze(profiler, inner.metrics);
    return TextOutcome("QUERY PLAN", text, std::move(inner.metrics), sink);
  }
  return ExecuteQuery(sql, nullptr, sink);
}

Result<QueryOutcome> NoDbEngine::ExecuteQuery(std::string_view sql,
                                              obs::PlanProfiler* profile,
                                              BatchSink* sink) {
  std::unique_ptr<obs::TraceContext> trace;
  std::optional<obs::PlanProfiler> trace_profiler;
  if (tracer_.enabled()) {
    trace = std::make_unique<obs::TraceContext>(
        tracer_.NextQueryId(), obs::ScopedSessionLabel::Current(),
        std::string(sql));
    // Tracing wants per-operator spans even when the caller did not
    // ask for EXPLAIN ANALYZE; the profiler must outlive the plan,
    // which RunQuery's scope guarantees.
    if (profile == nullptr) {
      trace_profiler.emplace();
      profile = &*trace_profiler;
    }
  }
  Result<QueryOutcome> outcome = RunQuery(sql, profile, trace.get(), sink);
  if (trace != nullptr) tracer_.Collect(trace->Finish());
  if (outcome.ok()) {
    obs::RecordQueryTelemetry(outcome->metrics);
  } else {
    static obs::Counter* failures =
        obs::MetricsRegistry::Global().GetCounter(
            "nodb_queries_failed_total",
            "Queries that returned an error status");
    failures->Add(1);
  }
  return outcome;
}

Result<QueryOutcome> NoDbEngine::RunQuery(std::string_view sql,
                                          obs::PlanProfiler* profile,
                                          obs::TraceContext* trace,
                                          BatchSink* sink) {
  Stopwatch watch;
  QueryOutcome outcome;
  outcome.metrics.sql = std::string(sql);
  obs::ScopedSpan root_span(trace, "query.execute");

  int64_t phase_start = watch.ElapsedNanos();
  obs::ScopedSpan parse_span(trace, "query.parse");
  NODB_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  parse_span.Close();
  outcome.metrics.parse_ns = watch.ElapsedNanos() - phase_start;

  phase_start = watch.ElapsedNanos();
  obs::ScopedSpan plan_span(trace, "query.plan");
  // On-the-fly statistics feed the planner's predicate ordering. The
  // estimator holds collector pointers, which stay valid for the
  // engine's lifetime (states are never erased, stats reset in place).
  StatsSelectivityEstimator estimator;
  bool use_stats;
  {
    MutexLock lock(states_mu_);
    use_stats = flags_.stats;
    if (use_stats) {
      for (const auto& [table, state] : states_) {
        estimator.Register(table, &state->stats(), state->info().schema);
      }
    }
  }
  PlannerOptions options;
  options.stats = use_stats ? &estimator : nullptr;
  options.profile = profile;

  Factory factory(this, &outcome.metrics.scan);
  NODB_ASSIGN_OR_RETURN(OperatorPtr plan,
                        PlanSelect(stmt, &factory, options));
  plan_span.Close();
  outcome.metrics.plan_ns = watch.ElapsedNanos() - phase_start;

  phase_start = watch.ElapsedNanos();
  obs::ScopedSpan drain_span(trace, "query.drain");
  // Anchor for the synthetic per-category and per-operator spans
  // below: taken after the drain span opened, so every start stamp in
  // the trace stays non-decreasing.
  int64_t drain_anchor_ns = obs::TraceNowNs();
  NODB_ASSIGN_OR_RETURN(outcome.result,
                        QueryResult::Drain(plan.get(), sink));
  drain_span.Close();
  outcome.metrics.drain_ns = watch.ElapsedNanos() - phase_start;

  if (trace != nullptr) {
    // The scan cost categories are accumulated per-row inside the scan
    // and only become spans here, as aggregates over the drain phase.
    const ScanMetrics& scan = outcome.metrics.scan;
    auto emit = [&](const char* name, int64_t ns) {
      if (ns > 0) trace->EmitSpan(name, drain_anchor_ns, ns);
    };
    emit("scan.io", scan.io_ns);
    emit("scan.locate", scan.parsing_ns);
    emit("scan.tokenize", scan.tokenize_ns);
    emit("scan.convert", scan.convert_ns);
    emit("scan.maintain", scan.nodb_ns);
    emit("scan.filter", scan.filter_ns);
    if (profile != nullptr) {
      profile->EmitExecSpans(trace, drain_anchor_ns);
    }
  }
  root_span.Close();

  outcome.metrics.total_ns = watch.ElapsedNanos();
  {
    MutexLock lock(totals_mu_);
    totals_.AddQuery(outcome.metrics);
  }
  // Paper-style adaptive loading: once the query is answered, promote
  // whatever it made hot in the background.
  SchedulePromotions(trace == nullptr ? 0 : trace->id());
  return outcome;
}

void NoDbEngine::SchedulePromotions(uint64_t triggered_by) {
  // Background passes promote on behalf of whoever made the column hot:
  // the triggering thread's tenant tag travels into the task so the
  // store attributes the promoted bytes to that tenant's budget share.
  uint32_t tenant = obs::ScopedTenantLabel::CurrentId();
  std::vector<RawTableState*> states;
  {
    MutexLock lock(states_mu_);
    if (!flags_.store) return;
    states.reserve(states_.size());
    for (auto& [table, state] : states_) states.push_back(state.get());
  }
  for (RawTableState* state : states) {
    ComponentFlags flags = state->component_flags();
    // Store serving rides on the map (hybrid plans locate the raw
    // residue through it), so promotion does too.
    if (!flags.store || !flags.map) continue;
    std::vector<uint32_t> hot = HotAttributes(*state);
    if (!PromotionPending(*state, hot)) continue;
    if (!state->TryBeginPromotion(hot, state->map().known_rows())) {
      continue;  // a pass is in flight, or this target is already done
    }
    {
      MutexLock lock(promo_mu_);
      ++promo_pending_;
    }
    // The task deliberately does not keep the pool alive: the engine
    // owns pool lifetime, and a replaced pool drains its queue in its
    // destructor, so a queued pass always runs before teardown.
    ClientPool(1)->Submit([this, state, hot = std::move(hot), triggered_by,
                           tenant] {
      obs::ScopedTenantLabel tenant_label(tenant);
      int64_t start_ns = obs::TraceNowNs();
      Status status = PromoteHotColumns(state, hot);
      // A failed pass (e.g. the file was rewritten underneath) leaves
      // the claim re-armed; the next query retries against the new
      // generation.
      state->EndPromotion(status.ok());
      if (tracer_.enabled()) {
        // Background work gets its own trace row so concurrent
        // timelines show maintenance beside the queries that caused
        // it.
        std::string label = "promote " + state->info().name;
        if (triggered_by != 0) {
          label += " (triggered by q" + std::to_string(triggered_by) + ")";
        }
        obs::TraceContext ctx(tracer_.NextQueryId(), "background",
                              std::move(label));
        ctx.EmitSpan("promoter.pass", start_ns,
                     obs::TraceNowNs() - start_ns);
        tracer_.Collect(ctx.Finish());
      }
      MutexLock lock(promo_mu_);
      --promo_pending_;
      promo_cv_.notify_all();
    });
  }
}

void NoDbEngine::WaitForPromotions() {
  MutexLock lock(promo_mu_);
  while (promo_pending_ != 0) lock.Wait(promo_cv_);
}

std::shared_ptr<ThreadPool> NoDbEngine::ClientPool(uint32_t threads) {
  MutexLock lock(pool_mu_);
  if (client_pool_ == nullptr || client_pool_->num_threads() < threads) {
    // Replace rather than grow: a batch still running on the old pool
    // keeps it alive through its own shared_ptr.
    client_pool_ = std::make_shared<ThreadPool>(threads);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    ThreadPoolMetrics metrics;
    metrics.queue_depth = registry.GetGauge(
        "nodb_pool_queue_depth",
        "Client-pool tasks queued or running (zero when idle)");
    metrics.task_wait_ns = registry.GetHistogram(
        "nodb_pool_task_wait_ns", "Client-pool submit-to-start latency");
    metrics.task_run_ns = registry.GetHistogram(
        "nodb_pool_task_run_ns", "Client-pool task execution time");
    metrics.tasks_total = registry.GetCounter(
        "nodb_pool_tasks_total", "Tasks executed by the client pool");
    client_pool_->SetMetrics(metrics);
  }
  return client_pool_;
}

ConcurrentBatchOutcome NoDbEngine::ExecuteConcurrent(
    const std::vector<std::string>& sqls, uint32_t clients,
    const QueryCancelFlag* cancel) {
  ConcurrentBatchOutcome out;
  if (sqls.empty()) return out;
  uint32_t want =
      clients == 0 ? static_cast<uint32_t>(ThreadPool::DefaultThreadCount())
                   : clients;
  out.clients = static_cast<uint32_t>(
      std::min<size_t>(std::max<uint32_t>(1, want), sqls.size()));
  out.reports.resize(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    out.reports[i].index = i;
    out.reports[i].sql = sqls[i];
  }

  std::shared_ptr<ThreadPool> pool = ClientPool(out.clients);
  std::atomic<size_t> next{0};
  Stopwatch shot;
  {
    TaskGroup group(pool.get());
    for (uint32_t c = 0; c < out.clients; ++c) {
      group.Submit([this, c, &sqls, &next, &shot, &out, cancel] {
        // Each worker is one client session pulling queries from the
        // batch — the shape of N users sharing one engine.
        QuerySession session(this, "client-" + std::to_string(c));
        size_t i;
        while ((i = next.fetch_add(1)) < sqls.size()) {
          ConcurrentQueryReport& report = out.reports[i];
          report.client = session.client_id();
          report.start_ns = shot.ElapsedNanos();
          Result<QueryOutcome> result =
              session.ExecuteStreaming(sqls[i], nullptr, cancel);
          report.finish_ns = shot.ElapsedNanos();
          if (result.ok()) {
            report.result = std::move(result->result);
            report.metrics = std::move(result->metrics);
          } else {
            report.status = result.status();
          }
        }
      });
    }
    group.Wait();
  }
  out.wall_ns = shot.ElapsedNanos();
  return out;
}

Result<std::string> NoDbEngine::Explain(std::string_view sql) {
  StatsSelectivityEstimator estimator;
  bool use_stats;
  {
    MutexLock lock(states_mu_);
    use_stats = flags_.stats;
    if (use_stats) {
      for (const auto& [table, state] : states_) {
        estimator.Register(table, &state->stats(), state->info().schema);
      }
    }
  }
  std::string text;
  PlannerOptions options;
  options.stats = use_stats ? &estimator : nullptr;
  options.explain = &text;
  ScanMetrics scratch;
  Factory factory(this, &scratch);
  NODB_RETURN_NOT_OK(PlanSql(sql, &factory, options).status());
  return text;
}

void NoDbEngine::ApplyComponentFlagsLocked() {
  for (auto& [name, state] : states_) {
    state->SetComponentFlags(flags_.map, flags_.cache, flags_.stats,
                             flags_.store);
  }
}

void NoDbEngine::SetPositionalMapEnabled(bool enabled) {
  MutexLock lock(states_mu_);
  flags_.map = enabled;
  ApplyComponentFlagsLocked();
}

void NoDbEngine::SetCacheEnabled(bool enabled) {
  MutexLock lock(states_mu_);
  flags_.cache = enabled;
  ApplyComponentFlagsLocked();
}

void NoDbEngine::SetStatisticsEnabled(bool enabled) {
  MutexLock lock(states_mu_);
  flags_.stats = enabled;
  ApplyComponentFlagsLocked();
}

void NoDbEngine::SetStoreEnabled(bool enabled) {
  MutexLock lock(states_mu_);
  flags_.store = enabled;
  ApplyComponentFlagsLocked();
}

namespace {

/// True when `state` holds anything a snapshot could usefully persist.
/// Cold states must never be saved: freezing empty structures would
/// atomically clobber a previous process's populated sidecar — e.g.
/// under kAuto when recovery degraded for a transient reason (raw file
/// briefly unreadable, newer-version sidecar) and no queries ran
/// before teardown.
bool HasAdaptiveState(const RawTableState& state) {
  return state.map().known_rows() > 0 || state.map().rows_complete() ||
         state.store().num_segments() > 0 ||
         state.zones().num_entries() > 0 ||
         !state.stats().CoveredAttributes().empty() ||
         state.recovery().any_recovered();
}

}  // namespace

Status NoDbEngine::SaveSnapshot(const std::string& table) {
  if (config_.snapshot_mode == SnapshotMode::kOff) {
    return Status::InvalidArgument(
        "snapshots disabled (NoDbConfig::snapshot_mode = kOff)");
  }
  // Only a table with live adaptive state is saved: creating a cold
  // state here would freeze empty structures and clobber a previous,
  // fully populated sidecar from an earlier process.
  RawTableState* state = nullptr;
  {
    MutexLock lock(states_mu_);
    auto it = states_.find(table);
    if (it != states_.end()) state = it->second.get();
  }
  if (state == nullptr || !HasAdaptiveState(*state)) {
    return Status::NotFound("no adaptive state for '" + table +
                            "' to snapshot; query it first");
  }
  // Let in-flight background promotions land: the saved store should
  // be the one the next query would have seen.
  WaitForPromotions();
  int64_t start_ns = obs::TraceNowNs();
  Status status = persist::WriteSnapshot(
      *state, persist::SnapshotPathFor(state->info(),
                                       config_.snapshot_path));
  if (tracer_.enabled()) {
    obs::TraceContext ctx(tracer_.NextQueryId(), "background",
                          "snapshot save " + table);
    ctx.EmitSpan("persist.save", start_ns, obs::TraceNowNs() - start_ns);
    tracer_.Collect(ctx.Finish());
  }
  return status;
}

Status NoDbEngine::SaveAllSnapshots() {
  if (config_.snapshot_mode == SnapshotMode::kOff) {
    return Status::InvalidArgument(
        "snapshots disabled (NoDbConfig::snapshot_mode = kOff)");
  }
  WaitForPromotions();
  std::vector<RawTableState*> states;
  {
    MutexLock lock(states_mu_);
    states.reserve(states_.size());
    for (auto& [table, state] : states_) states.push_back(state.get());
  }
  Status first_error = Status::OK();
  for (RawTableState* state : states) {
    if (!HasAdaptiveState(*state)) continue;  // nothing worth saving
    Status s = persist::WriteSnapshot(
        *state, persist::SnapshotPathFor(state->info(),
                                         config_.snapshot_path));
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Result<persist::RecoveryReport> NoDbEngine::LoadSnapshot(
    const std::string& table) {
  if (config_.snapshot_mode == SnapshotMode::kOff) {
    return Status::InvalidArgument(
        "snapshots disabled (NoDbConfig::snapshot_mode = kOff)");
  }
  NODB_ASSIGN_OR_RETURN(RawTableState * state, GetOrCreateState(table));
  persist::RecoveryReport prior = state->recovery();
  if (prior.any_recovered()) {
    // The live structures already came from a snapshot (a kAuto open,
    // or an earlier explicit load): re-reading the sidecar would only
    // be refused by them. Report the recovery that actually happened.
    return prior;
  }
  int64_t start_ns = obs::TraceNowNs();
  Result<persist::RecoveryReport> report = persist::LoadSnapshot(
      state,
      persist::SnapshotPathFor(state->info(), config_.snapshot_path));
  if (tracer_.enabled()) {
    obs::TraceContext ctx(tracer_.NextQueryId(), "background",
                          "snapshot load " + table);
    ctx.EmitSpan("persist.load", start_ns, obs::TraceNowNs() - start_ns);
    tracer_.Collect(ctx.Finish());
  }
  return report;
}

const RawTableState* NoDbEngine::table_state(
    const std::string& table) const {
  MutexLock lock(states_mu_);
  auto it = states_.find(table);
  return it == states_.end() ? nullptr : it->second.get();
}

Result<FileChange> NoDbEngine::RefreshTable(const std::string& table) {
  RawTableState* state = nullptr;
  {
    MutexLock lock(states_mu_);
    auto it = states_.find(table);
    if (it != states_.end()) state = it->second.get();
  }
  if (state == nullptr) {
    // First touch: fresh state reflects the file as it is now.
    NODB_RETURN_NOT_OK(GetOrCreateState(table).status());
    return FileChange::kUnchanged;
  }
  return state->CheckForUpdates();
}

Status NoDbEngine::ReplaceTable(const RawTableInfo& info) {
  NODB_RETURN_NOT_OK(catalog_.ReplaceTable(info));
  RawTableState* state = nullptr;
  {
    MutexLock lock(states_mu_);
    auto it = states_.find(info.name);
    if (it != states_.end()) state = it->second.get();
  }
  if (state != nullptr) {
    NODB_RETURN_NOT_OK(state->ReplaceFile(info));
  }
  return Status::OK();
}

}  // namespace nodb
