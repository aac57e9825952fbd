#include "monitor/panel.h"

#include <algorithm>
#include <cstdio>

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
  // exceed the wall clock by a few timer quanta). Clamp at zero here —
  // never render a negative duration or bar — independent of whatever
  // the metrics source did.
  int64_t processing =
      std::max<int64_t>(0, metrics.total_ns - metrics.scan.TotalScanNs());
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "%-24s total %10s | proc %10s | io %10s | convert %10s | "
      "parse %10s | tokenize %10s | nodb %10s | filter %10s | "
      "rows store/cache/raw "
      "%llu/%llu/%llu | skipped blocks %llu | parse p1/p2 %llu/%llu\n",
      label.c_str(), FormatNanos(metrics.total_ns).c_str(),
      FormatNanos(processing).c_str(),
      FormatNanos(metrics.scan.io_ns).c_str(),
      FormatNanos(metrics.scan.convert_ns).c_str(),
      FormatNanos(metrics.scan.parsing_ns).c_str(),
      FormatNanos(metrics.scan.tokenize_ns).c_str(),
      FormatNanos(metrics.scan.nodb_ns).c_str(),
      FormatNanos(metrics.scan.filter_ns).c_str(),
      static_cast<unsigned long long>(metrics.scan.rows_from_store),
      static_cast<unsigned long long>(metrics.scan.rows_from_cache),
      static_cast<unsigned long long>(metrics.scan.rows_from_raw),
      static_cast<unsigned long long>(metrics.scan.zone_skipped_blocks),
      static_cast<unsigned long long>(
          metrics.scan.pushdown_phase1_fields),
      static_cast<unsigned long long>(
          metrics.scan.pushdown_phase2_fields));
  return line;
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

std::string MonitorPanel::BreakdownCsvHeader() {
  return "label,total_ns,processing_ns,io_ns,convert_ns,parsing_ns,"
         "tokenize_ns,nodb_ns,rows,bytes_read,cache_hits,cache_misses,"
         "map_exact,map_anchor,map_blind,store_hits,rows_store,"
         "rows_cache,rows_raw,zone_skipped_blocks,zone_skipped_rows,"
         "pushdown_pruned,pushdown_p1_fields,pushdown_p2_fields,"
         "scans_recovered_map,scans_recovered_store,filter_ns";
}

std::string MonitorPanel::BreakdownCsvRow(const std::string& label,
                                          const QueryMetrics& metrics) {
  char line[512];
  const ScanMetrics& s = metrics.scan;
  std::snprintf(line, sizeof(line),
                "%s,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%llu,%llu,%llu,"
                "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                "%llu,%llu,%llu,%llu,%lld",
                label.c_str(), static_cast<long long>(metrics.total_ns),
                static_cast<long long>(metrics.processing_ns()),
                static_cast<long long>(s.io_ns),
                static_cast<long long>(s.convert_ns),
                static_cast<long long>(s.parsing_ns),
                static_cast<long long>(s.tokenize_ns),
                static_cast<long long>(s.nodb_ns),
                static_cast<unsigned long long>(s.rows_scanned),
                static_cast<unsigned long long>(s.bytes_read),
                static_cast<unsigned long long>(s.cache_block_hits),
                static_cast<unsigned long long>(s.cache_block_misses),
                static_cast<unsigned long long>(s.map_exact_probes),
                static_cast<unsigned long long>(s.map_anchor_probes),
                static_cast<unsigned long long>(s.map_blind_rows),
                static_cast<unsigned long long>(s.store_block_hits),
                static_cast<unsigned long long>(s.rows_from_store),
                static_cast<unsigned long long>(s.rows_from_cache),
                static_cast<unsigned long long>(s.rows_from_raw),
                static_cast<unsigned long long>(s.zone_skipped_blocks),
                static_cast<unsigned long long>(s.zone_skipped_rows),
                static_cast<unsigned long long>(s.pushdown_rows_pruned),
                static_cast<unsigned long long>(s.pushdown_phase1_fields),
                static_cast<unsigned long long>(s.pushdown_phase2_fields),
                static_cast<unsigned long long>(
                    s.scans_using_recovered_map),
                static_cast<unsigned long long>(
                    s.scans_using_recovered_store),
                static_cast<long long>(s.filter_ns));
  return line;
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
