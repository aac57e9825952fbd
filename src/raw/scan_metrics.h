#ifndef NODB_RAW_SCAN_METRICS_H_
#define NODB_RAW_SCAN_METRICS_H_

#include <cstdint>

namespace nodb {

/// Cost breakdown of one raw scan, in the categories of the demo's
/// Query Execution Breakdown panel (Figure 3).
///
/// Category mapping:
///  - io_ns:       physical pread() time (BufferedReader accounting)
///  - parsing_ns:  row finding only — the newline kernel over each
///                 read window past the positional map's frontier
///                 (every window, with the map off) and publishing its
///                 rows; map-known rows cost none, so a warm scan is 0
///  - tokenize_ns: delimiter scanning inside tuples (CsvTokenizer)
///  - convert_ns:  text -> binary conversion (ValueParser) and the
///                 gathers that form output columns
///  - nodb_ns:     positional map / cache / statistics / zone-map
///                 lookups and maintenance — the overhead *added* by
///                 the NoDB auxiliary structures
///  - filter_ns:   pushed-predicate evaluation (EvaluatePushdown), with
///                 the copies that assemble a raw run's predicate
///                 columns and, on a store-served block, the gather of
///                 the passing rows
///
/// The scan times whole passes, not rows: each category is one timer
/// per pass over a batch of rows — up to a block, fewer when the block
/// outgrows the read buffer or the span scratch (a row-finding window,
/// the tokenize pass, the convert pass, ...) — with the I/O that happened
/// inside the pass subtracted so the categories stay disjoint.
///
/// What the six miss inside the scan itself (batch assembly, map-served
/// row location, the timers' cost) is EXPLAIN ANALYZE's derived
/// `other`: the scan node's self time
/// minus TotalScanNs() (obs::ScanOtherNs). "Processing" (the rest of
/// the plan: filters, aggregates, joins, materialization) is derived
/// at the engine level as total − (io + parsing + tokenize + convert
/// + nodb + filter).
struct ScanMetrics {
  int64_t io_ns = 0;
  int64_t parsing_ns = 0;
  int64_t tokenize_ns = 0;
  int64_t convert_ns = 0;
  int64_t nodb_ns = 0;
  int64_t filter_ns = 0;

  uint64_t rows_scanned = 0;
  uint64_t bytes_read = 0;
  uint64_t fields_tokenized = 0;
  uint64_t fields_converted = 0;

  uint64_t cache_block_hits = 0;
  uint64_t cache_block_misses = 0;
  uint64_t map_exact_probes = 0;   ///< field span served by the map
  uint64_t map_anchor_probes = 0;  ///< partial help: jumped mid-tuple
  uint64_t map_blind_rows = 0;     ///< tokenized from byte 0 of the row

  /// Storage-tier attribution: every scanned row lands in exactly one
  /// bucket. `rows_from_store`: all needed columns came from a shadow-
  /// store block (no row location, tokenizing or parsing at all).
  /// `rows_from_cache`: every needed column was a cache-tier segment hit
  /// (rows located, nothing tokenized; includes empty projections).
  /// `rows_from_raw`: at least one column was tokenized/parsed from
  /// the raw bytes.
  uint64_t store_block_hits = 0;   ///< whole blocks served by the store
  uint64_t rows_from_store = 0;
  uint64_t rows_from_cache = 0;
  uint64_t rows_from_raw = 0;

  /// Predicate pushdown + zone maps. Zone-skipped rows were never
  /// located, tokenized or parsed (they are *not* in rows_scanned);
  /// pruned rows were examined in phase 1 and dropped by a pushed
  /// predicate before any phase-2 parsing. Field counters split the
  /// two-phase parse: phase 1 converts predicate columns for every
  /// examined row, phase 2 converts the remaining projection columns
  /// for qualifying rows only.
  uint64_t zone_skipped_blocks = 0;
  uint64_t zone_skipped_rows = 0;
  uint64_t pushdown_rows_pruned = 0;
  uint64_t pushdown_phase1_fields = 0;
  uint64_t pushdown_phase2_fields = 0;

  /// Recovered-vs-rebuilt provenance (persist/): scans that opened
  /// over a positional map / shadow store restored from a persisted
  /// snapshot rather than built by queries in this process. Lets
  /// benches prove a warm restart served from recovered state (e.g.
  /// recovered store + zero tokenized fields = no phase-1 parsing).
  uint64_t scans_using_recovered_map = 0;
  uint64_t scans_using_recovered_store = 0;

  void Add(const ScanMetrics& other) {
    io_ns += other.io_ns;
    parsing_ns += other.parsing_ns;
    tokenize_ns += other.tokenize_ns;
    convert_ns += other.convert_ns;
    nodb_ns += other.nodb_ns;
    filter_ns += other.filter_ns;
    rows_scanned += other.rows_scanned;
    bytes_read += other.bytes_read;
    fields_tokenized += other.fields_tokenized;
    fields_converted += other.fields_converted;
    cache_block_hits += other.cache_block_hits;
    cache_block_misses += other.cache_block_misses;
    map_exact_probes += other.map_exact_probes;
    map_anchor_probes += other.map_anchor_probes;
    map_blind_rows += other.map_blind_rows;
    store_block_hits += other.store_block_hits;
    rows_from_store += other.rows_from_store;
    rows_from_cache += other.rows_from_cache;
    rows_from_raw += other.rows_from_raw;
    zone_skipped_blocks += other.zone_skipped_blocks;
    zone_skipped_rows += other.zone_skipped_rows;
    pushdown_rows_pruned += other.pushdown_rows_pruned;
    pushdown_phase1_fields += other.pushdown_phase1_fields;
    pushdown_phase2_fields += other.pushdown_phase2_fields;
    scans_using_recovered_map += other.scans_using_recovered_map;
    scans_using_recovered_store += other.scans_using_recovered_store;
  }

  int64_t TotalScanNs() const {
    return io_ns + parsing_ns + tokenize_ns + convert_ns + nodb_ns +
           filter_ns;
  }
};

}  // namespace nodb

#endif  // NODB_RAW_SCAN_METRICS_H_
