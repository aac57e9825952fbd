#include "monitor/panel.h"

#include <algorithm>
#include <cstdio>

#include "obs/plan_profile.h"
#include "util/string_util.h"

namespace nodb {

namespace {

/// One storage tier's line: utilization, bytes vs budget and counters.
std::string TierLine(const char* label, const SegmentStore& tier) {
  return std::string(label) + MonitorPanel::Bar(tier.utilization()) + "  " +
         FormatBytes(tier.bytes_used()) + " / " +
         FormatBytes(tier.budget_bytes()) + ", " +
         std::to_string(tier.num_segments()) + " segments, " +
         std::to_string(tier.promotions()) + " admitted, " +
         std::to_string(tier.evictions()) + " evicted, hits " +
         std::to_string(tier.hits()) + " / misses " +
         std::to_string(tier.misses()) + "\n";
}

}  // namespace

std::string MonitorPanel::Bar(double fraction, size_t width) {
  if (fraction < 0) fraction = 0;
  double shown = std::min(fraction, 1.0);
  size_t filled = static_cast<size_t>(shown * width + 0.5);
  std::string bar = "[";
  bar.append(filled, '#');
  bar.append(width - filled, '.');
  bar += "]";
  char pct[16];
  std::snprintf(pct, sizeof(pct), " %5.1f%%", fraction * 100.0);
  bar += pct;
  return bar;
}

std::string MonitorPanel::RenderTableState(const RawTableState& state) {
  std::string out;
  out += "=== PostgresRaw monitoring: table '" + state.info().name +
         "' ===\n";
  const PositionalMap& map = state.map();

  out += "positional map  " + Bar(map.utilization()) + "  " +
         FormatBytes(map.bytes_used()) + " / " +
         FormatBytes(map.budget_bytes()) + ", " +
         std::to_string(map.num_chunks()) + " chunks, " +
         std::to_string(map.evictions()) + " evictions\n";
  out += TierLine("cache           ", state.cache());
  out += TierLine("shadow store    ", state.store());
  out += "tuple index     " + std::to_string(map.known_rows()) +
         " rows known" +
         std::string(map.rows_complete() ? " (complete)" : " (partial)") +
         "\n";

  const auto& counts = state.attribute_access_counts();
  out += "attribute usage / positional-map coverage:\n";
  for (size_t a = 0; a < counts.size(); ++a) {
    if (counts[a] == 0 && map.CoverageFraction(static_cast<uint32_t>(a)) ==
                              0.0) {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-16s accesses %6llu   map %s\n",
                  state.info().schema->field(a).name.c_str(),
                  static_cast<unsigned long long>(counts[a]),
                  Bar(map.CoverageFraction(static_cast<uint32_t>(a)), 20)
                      .c_str());
    out += line;
  }
  const auto covered = state.stats().CoveredAttributes();
  out += "statistics on " + std::to_string(covered.size()) +
         " attribute(s)\n";
  return out;
}

std::string MonitorPanel::RenderBreakdown(const std::string& label,
                                          const QueryMetrics& metrics) {
  // The derived "Processing" category is total − scan categories, which
  // goes negative when per-category timers overlap a tiny query's wall
  // time (each category is measured independently, so their sum can
  // exceed the wall clock by a few timer quanta). processing_ns()
  // clamps it at zero, so no negative duration is rendered.
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s total %10s | proc %10s | ",
                label.c_str(), FormatNanos(metrics.total_ns).c_str(),
                FormatNanos(metrics.processing_ns()).c_str());
  return line + obs::FormatScanCategories(metrics.scan, 10) + " | " +
         obs::FormatScanLabels(metrics.scan) + "\n";
}

std::string MonitorPanel::RenderStorageTiers(const RawTableState& state) {
  const PositionalMap& map = state.map();
  const SegmentStore& store = state.store();
  const uint64_t known = map.known_rows();

  std::string out;
  out += "=== storage tiers: table '" + state.info().name + "' ===\n";
  out += "raw file        " + state.info().path + "\n";
  out += "positional map  " + FormatBytes(map.bytes_used()) + " / " +
         FormatBytes(map.budget_bytes()) + ", " +
         std::to_string(map.num_chunks()) + " chunks, " +
         std::to_string(known) + " rows known" +
         (map.rows_complete() ? " (complete)" : " (partial)") + "\n";
  out += TierLine("raw cache       ", state.cache());
  out += TierLine("shadow store    ", store);
  out += "zone maps       " + std::to_string(state.zones().num_entries()) +
         " (attribute, block) summaries\n";

  // Recovered-vs-rebuilt: what a persisted snapshot restored at open
  // vs what queries in this process built from the raw file.
  const persist::RecoveryReport recovery = state.recovery();
  if (recovery.attempted && recovery.any_recovered()) {
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "recovered       %llu rows, %llu map chunks, %llu zone entries, "
        "%llu store segments%s [%s]\n",
        static_cast<unsigned long long>(recovery.rows_recovered),
        static_cast<unsigned long long>(recovery.chunks_recovered),
        static_cast<unsigned long long>(recovery.zone_entries_recovered),
        static_cast<unsigned long long>(
            recovery.store_segments_recovered),
        recovery.stats_recovered ? ", stats" : "",
        recovery.detail.c_str());
    out += line;
  } else if (!recovery.detail.empty()) {
    out += "recovered       nothing (" + recovery.detail + ")\n";
  } else {
    out += "recovered       nothing (built by queries this process)\n";
  }

  const std::vector<uint32_t> promoted = store.MaterializedAttributes();
  const std::vector<uint64_t> heat = state.stats().access_heat_counts();
  out += "promoted columns (" + std::to_string(promoted.size()) + "):\n";
  for (uint32_t a : promoted) {
    double coverage =
        known == 0 ? 0.0
                   : static_cast<double>(store.rows_materialized(a)) /
                         static_cast<double>(known);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-16s heat %6llu   store %s\n",
                  state.info().schema->field(a).name.c_str(),
                  static_cast<unsigned long long>(
                      a < heat.size() ? heat[a] : 0),
                  Bar(coverage, 20).c_str());
    out += line;
  }
  return out;
}

std::string MonitorPanel::RenderConcurrentBatch(
    const ConcurrentBatchOutcome& batch) {
  std::string out;
  out += "=== concurrent batch: " + std::to_string(batch.reports.size()) +
         " queries on " + std::to_string(batch.clients) + " client(s) ===\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "wall %s | %.1f queries/s | peak in flight %u | "
                "failures %llu\n",
                FormatNanos(batch.wall_ns).c_str(),
                batch.queries_per_second(), batch.peak_in_flight(),
                static_cast<unsigned long long>(batch.failures()));
  out += line;
  for (const ConcurrentQueryReport& report : batch.reports) {
    std::snprintf(line, sizeof(line), "q%-3zu %-10s [%s .. %s]  ",
                  report.index, report.client.c_str(),
                  FormatNanos(report.start_ns).c_str(),
                  FormatNanos(report.finish_ns).c_str());
    out += line;
    if (!report.status.ok()) {
      out += "FAILED: " + report.status.ToString() + "\n";
      continue;
    }
    out += RenderBreakdown(report.sql.substr(0, 24), report.metrics);
  }
  return out;
}

namespace {

/// The CSV column of a field: the short name, `_ns` added for a time.
template <typename Record>
std::string CsvColumn(const MetricField<Record>& f) {
  return std::string(f.name) + (f.kind == MetricKind::kTime ? "_ns" : "");
}

/// A field's value in the CSV: a time signed, a counter unsigned.
template <typename Record>
std::string CsvValue(const MetricField<Record>& f, const Record& record) {
  return f.ns != nullptr ? std::to_string(record.*f.ns)
                         : std::to_string(record.*f.count);
}

}  // namespace

std::string MonitorPanel::BreakdownCsvHeader() {
  std::string out = "label";
  for (const QueryField& f : kQueryFields) out += "," + CsvColumn(f);
  out += ",processing_ns";
  for (const ScanField& f : kScanFields) out += "," + CsvColumn(f);
  return out;
}

std::string MonitorPanel::BreakdownCsvRow(const std::string& label,
                                          const QueryMetrics& metrics) {
  std::string out = label;
  for (const QueryField& f : kQueryFields) out += "," + CsvValue(f, metrics);
  out += "," + std::to_string(metrics.processing_ns());
  for (const ScanField& f : kScanFields) {
    out += "," + CsvValue(f, metrics.scan);
  }
  return out;
}

std::string MonitorPanel::RenderServer(const server::ServerStats& stats) {
  std::string out = "=== server front end ===\n";
  if (stats.draining) out += "state           DRAINING\n";
  out += "connections     " + std::to_string(stats.connections) + "\n";
  double load = stats.max_in_flight == 0
                    ? 0.0
                    : static_cast<double>(stats.in_flight) /
                          static_cast<double>(stats.max_in_flight);
  out += "in flight       " + Bar(load) + "  " +
         std::to_string(stats.in_flight) + " / " +
         std::to_string(stats.max_in_flight) + ", " +
         std::to_string(stats.queued) + " queued\n";
  out += "admission       admitted " + std::to_string(stats.admitted_total) +
         " / rejected " + std::to_string(stats.rejected_total) +
         " (queue timeouts " + std::to_string(stats.queue_timeouts_total) +
         ")\n";
  if (!stats.tenants.empty()) out += "tenants:\n";
  for (const server::TenantAdmissionStats& t : stats.tenants) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-16s in flight %2u   rows served %10llu   "
                  "reserved %s   rejected %llu\n",
                  t.name.c_str(), t.in_flight,
                  static_cast<unsigned long long>(t.rows_served),
                  FormatBytes(t.reserved_bytes).c_str(),
                  static_cast<unsigned long long>(t.rejected_total));
    out += line;
  }
  return out;
}

}  // namespace nodb
