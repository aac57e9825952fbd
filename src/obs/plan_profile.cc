#include "obs/plan_profile.h"

#include <algorithm>
#include <cstdio>

#include "monitor/query_metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace nodb {
namespace obs {

namespace {

/// The timing shim around every profiled operator: inclusive wall
/// time of Open()/Next() plus batch/row counts, with plain integer
/// accumulation (one query = one thread).
class AnalyzeOperator final : public ExecOperator {
 public:
  AnalyzeOperator(OperatorPtr child, PlanProfiler::Node* node)
      : child_(std::move(child)), node_(node) {}

  Status Open() override {
    Stopwatch watch;
    Status status = child_->Open();
    node_->open_ns += watch.ElapsedNanos();
    return status;
  }

  Result<BatchPtr> Next() override {
    Stopwatch watch;
    Result<BatchPtr> batch = child_->Next();
    node_->next_ns += watch.ElapsedNanos();
    if (batch.ok() && *batch != nullptr) {
      ++node_->batches;
      node_->rows += (*batch)->num_rows();
    }
    return batch;
  }

  std::shared_ptr<Schema> output_schema() const override {
    return child_->output_schema();
  }

 private:
  OperatorPtr child_;
  PlanProfiler::Node* node_;
};

}  // namespace

int64_t PlanProfiler::Node::SelfNs() const {
  int64_t self = TotalNs();
  for (const Node* child : children) self -= child->TotalNs();
  return std::max<int64_t>(0, self);
}

OperatorPtr PlanProfiler::Wrap(OperatorPtr op, std::string kind,
                               std::string label, size_t arity) {
  storage_.emplace_back();
  Node* node = &storage_.back();
  node->kind = std::move(kind);
  node->label = std::move(label);
  size_t take = std::min(arity, roots_.size());
  for (size_t i = 0; i < take; ++i) {
    // Pop the most recent subtree roots; reverse so children read in
    // build order (probe before build side for joins).
    node->children.insert(node->children.begin(), roots_.back());
    roots_.pop_back();
  }
  roots_.push_back(node);
  order_.push_back(node);
  return std::make_unique<AnalyzeOperator>(std::move(op), node);
}

void PlanProfiler::EmitExecSpans(TraceContext* ctx,
                                 int64_t start_ns) const {
  if (ctx == nullptr) return;
  for (const Node* node : order_) {
    ctx->EmitSpan("exec." + node->kind, start_ns, node->TotalNs());
  }
}

int64_t ScanOtherNs(const PlanProfiler& profiler, const ScanMetrics& scan) {
  int64_t self = 0;
  for (const PlanProfiler::Node* node : profiler.nodes()) {
    if (node->kind == "scan") self += node->SelfNs();
  }
  return std::max<int64_t>(0, self - scan.TotalScanNs());
}

std::string RenderAnalyze(const PlanProfiler& profiler,
                          const QueryMetrics& metrics) {
  std::string out;
  char line[320];
  for (const PlanProfiler::Node* node : profiler.nodes()) {
    std::snprintf(line, sizeof(line),
                  "%-52s time %10s  self %10s  rows %10llu  batches %llu\n",
                  node->label.c_str(),
                  FormatNanos(node->TotalNs()).c_str(),
                  FormatNanos(node->SelfNs()).c_str(),
                  static_cast<unsigned long long>(node->rows),
                  static_cast<unsigned long long>(node->batches));
    out += line;
  }

  const PlanProfiler::Node* root = profiler.root();
  int64_t operators_ns = root == nullptr ? 0 : root->TotalNs();
  // Output = materializing the drained batches into the result,
  // outside the root operator.
  int64_t output_ns =
      std::max<int64_t>(0, metrics.drain_ns - operators_ns);
  int64_t accounted =
      metrics.parse_ns + metrics.plan_ns + metrics.drain_ns;
  double coverage =
      metrics.total_ns <= 0
          ? 0.0
          : 100.0 * static_cast<double>(accounted) /
                static_cast<double>(metrics.total_ns);
  std::snprintf(line, sizeof(line),
                "parse %s | plan %s | execute %s (operators %s + "
                "output %s) | total %s\n",
                FormatNanos(metrics.parse_ns).c_str(),
                FormatNanos(metrics.plan_ns).c_str(),
                FormatNanos(metrics.drain_ns).c_str(),
                FormatNanos(operators_ns).c_str(),
                FormatNanos(output_ns).c_str(),
                FormatNanos(metrics.total_ns).c_str());
  out += line;
  const ScanMetrics& s = metrics.scan;
  std::snprintf(line, sizeof(line),
                "accounted %.1f%% of wall time | rows store/cache/raw "
                "%llu/%llu/%llu | zone-skipped blocks %llu\n",
                coverage,
                static_cast<unsigned long long>(s.rows_from_store),
                static_cast<unsigned long long>(s.rows_from_cache),
                static_cast<unsigned long long>(s.rows_from_raw),
                static_cast<unsigned long long>(s.zone_skipped_blocks));
  out += line;
  std::snprintf(line, sizeof(line),
                "scan io %s | locate %s | tokenize %s | convert %s | "
                "maintain %s | other %s\n",
                FormatNanos(s.io_ns).c_str(),
                FormatNanos(s.parsing_ns).c_str(),
                FormatNanos(s.tokenize_ns).c_str(),
                FormatNanos(s.convert_ns).c_str(),
                FormatNanos(s.nodb_ns).c_str(),
                FormatNanos(ScanOtherNs(profiler, s)).c_str());
  out += line;
  return out;
}

}  // namespace obs
}  // namespace nodb
