#include "obs/metrics.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "monitor/query_metrics.h"

namespace nodb {
namespace obs {

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard % Counter::kShards;
}

void LatencyHistogram::Record(int64_t ns) {
  uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  Shard& shard = shards_[ThisThreadShard() % kShards];
  shard.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

size_t LatencyHistogram::BucketIndex(uint64_t v) {
  if (v < 4) return static_cast<size_t>(v);  // exact tiny buckets
  int hi = 63 - __builtin_clzll(v);
  size_t sub = static_cast<size_t>((v >> (hi - 2)) & 3);
  size_t index = static_cast<size_t>(hi) * 4 + sub;
  return index < kBuckets ? index : kBuckets - 1;
}

uint64_t LatencyHistogram::BucketUpperBound(size_t index) {
  // Values below 4 get exact buckets, and BucketIndex jumps straight
  // from index 3 to index 8 (hi >= 2), so indices 4-7 are unreachable
  // placeholders: answer 3 for them, which keeps the shift below
  // well-defined (hi - 2 would underflow for hi == 1).
  if (index < 8) return index < 4 ? static_cast<uint64_t>(index) : 3;
  size_t hi = index / 4;
  size_t sub = index % 4;
  if (hi >= 63) return UINT64_MAX;
  // Largest value whose (hi, sub) decomposition lands in this bucket.
  return (uint64_t{1} << hi) +
         (static_cast<uint64_t>(sub + 1) << (hi - 2)) - 1;
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  uint64_t buckets[kBuckets] = {};
  HistogramSnapshot snap;
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      buckets[b] += n;
      snap.count += n;
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  auto quantile = [&](double q) {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(
                                                  snap.count));
    if (rank >= snap.count) rank = snap.count - 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) {
        uint64_t upper = BucketUpperBound(b);
        return upper < snap.max ? upper : snap.max;
      }
    }
    return snap.max;
  };
  snap.p50 = quantile(0.50);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, Entry<Counter>{std::make_unique<Counter>(),
                                           help})
             .first;
  }
  return it->second.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(name,
                      Entry<Gauge>{std::make_unique<Gauge>(), help})
             .first;
  }
  return it->second.metric.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                const std::string& help) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, Entry<LatencyHistogram>{
                                std::make_unique<LatencyHistogram>(),
                                help})
             .first;
  }
  return it->second.metric.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, entry] : counters_) {
    if (!entry.help.empty()) {
      out += "# HELP " + name + " " + entry.help + "\n";
    }
    out += "# TYPE " + name + " counter\n";
    std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n", name.c_str(),
                  entry.metric->Value());
    out += line;
  }
  for (const auto& [name, entry] : gauges_) {
    if (!entry.help.empty()) {
      out += "# HELP " + name + " " + entry.help + "\n";
    }
    out += "# TYPE " + name + " gauge\n";
    std::snprintf(line, sizeof(line), "%s %" PRId64 "\n", name.c_str(),
                  entry.metric->Value());
    out += line;
  }
  for (const auto& [name, entry] : histograms_) {
    if (!entry.help.empty()) {
      out += "# HELP " + name + " " + entry.help + "\n";
    }
    out += "# TYPE " + name + " summary\n";
    HistogramSnapshot snap = entry.metric->Snapshot();
    std::snprintf(line, sizeof(line),
                  "%s{quantile=\"0.5\"} %" PRIu64 "\n", name.c_str(),
                  snap.p50);
    out += line;
    std::snprintf(line, sizeof(line),
                  "%s{quantile=\"0.95\"} %" PRIu64 "\n", name.c_str(),
                  snap.p95);
    out += line;
    std::snprintf(line, sizeof(line),
                  "%s{quantile=\"0.99\"} %" PRIu64 "\n", name.c_str(),
                  snap.p99);
    out += line;
    std::snprintf(line, sizeof(line), "%s_sum %" PRIu64 "\n",
                  name.c_str(), snap.sum);
    out += line;
    std::snprintf(line, sizeof(line), "%s_count %" PRIu64 "\n",
                  name.c_str(), snap.count);
    out += line;
    std::snprintf(line, sizeof(line), "%s_max %" PRIu64 "\n",
                  name.c_str(), snap.max);
    out += line;
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  MutexLock lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, entry] : counters_) {
    std::snprintf(line, sizeof(line), "%-44s %20" PRIu64 "\n",
                  name.c_str(), entry.metric->Value());
    out += line;
  }
  for (const auto& [name, entry] : gauges_) {
    std::snprintf(line, sizeof(line), "%-44s %20" PRId64 "\n",
                  name.c_str(), entry.metric->Value());
    out += line;
  }
  for (const auto& [name, entry] : histograms_) {
    HistogramSnapshot snap = entry.metric->Snapshot();
    std::snprintf(line, sizeof(line),
                  "%-44s count %" PRIu64 " p50 %" PRIu64 " p95 %" PRIu64
                  " p99 %" PRIu64 " max %" PRIu64 "\n",
                  name.c_str(), snap.count, snap.p50, snap.p95, snap.p99,
                  snap.max);
    out += line;
  }
  return out;
}

void RecordQueryTelemetry(const QueryMetrics& metrics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Handles resolve once; every later query is pure atomic adds.
  static Counter* queries =
      reg.GetCounter("nodb_queries_total", "queries executed");
  static LatencyHistogram* latency = reg.GetHistogram(
      "nodb_query_latency_ns", "end-to-end query latency");
  static const std::array<Counter*, std::size(kScanFields)> scan_counters =
      [&reg] {
        std::array<Counter*, std::size(kScanFields)> out{};
        for (size_t i = 0; i < out.size(); ++i) {
          const ScanField& f = kScanFields[i];
          if (f.counter != nullptr) out[i] = reg.GetCounter(f.counter, f.help);
        }
        return out;
      }();

  queries->Add(1);
  latency->Record(metrics.total_ns);
  for (size_t i = 0; i < scan_counters.size(); ++i) {
    if (scan_counters[i] != nullptr) {
      scan_counters[i]->Add(kScanFields[i].NonNegative(metrics.scan));
    }
  }
}

}  // namespace obs
}  // namespace nodb
