#ifndef NODB_RAW_SCAN_METRICS_H_
#define NODB_RAW_SCAN_METRICS_H_

#include <cstdint>
#include <iterator>

namespace nodb {

/// Cost breakdown of one raw scan, in the categories of the demo's
/// Query Execution Breakdown panel (Figure 3).
///
/// Category mapping (member, then the short name every surface shows —
/// see kScanFields):
///  - io_ns:       io; physical pread() time (BufferedReader accounting)
///  - parsing_ns:  locate; row finding only — the newline kernel over each
///                 read window past the positional map's frontier
///                 (every window, with the map off) and publishing its
///                 rows; map-known rows cost none, so a warm scan is 0
///  - tokenize_ns: tokenize; delimiter scanning inside tuples (CsvTokenizer)
///  - convert_ns:  convert; text -> binary conversion (ValueParser) and the
///                 gathers that form output columns
///  - nodb_ns:     maintain; positional map / cache / statistics / zone-map
///                 lookups and maintenance — the overhead *added* by
///                 the NoDB auxiliary structures
///  - filter_ns:   filter; pushed-predicate evaluation (EvaluatePushdown), with
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
/// at the engine level as total − TotalScanNs().
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

  /// Field-wise sum over kScanFields.
  void Add(const ScanMetrics& other);
  /// The six time categories summed.
  int64_t TotalScanNs() const;
};

/// What a per-query metric is, for the surfaces that render it.
enum class MetricKind : uint8_t {
  kTime,   ///< a duration in ns; in ScanMetrics, one of the six categories
  kTier,   ///< rows one storage tier served; the tiers sum to rows_scanned
  kCount,  ///< any other counter
};

/// One field of a per-query metrics record. kScanFields and
/// kQueryFields (monitor/query_metrics.h) are the only lists of the
/// fields: Add, TotalScanNs, RESULT_DONE's metrics block, the /metrics
/// counters, the breakdown CSV, the panel row, EXPLAIN ANALYZE's footer
/// and the `scan.<name>` trace spans all loop over them, in table order.
template <typename Record>
struct MetricField {
  /// A time.
  constexpr MetricField(const char* name, int64_t Record::*member,
                        const char* counter = nullptr,
                        const char* help = nullptr)
      : name(name), kind(MetricKind::kTime), ns(member), counter(counter),
        help(help) {}
  /// A counter; a tier when `kind` says so.
  constexpr MetricField(const char* name, uint64_t Record::*member,
                        const char* counter = nullptr,
                        const char* help = nullptr,
                        const char* label = nullptr,
                        MetricKind kind = MetricKind::kCount)
      : name(name), kind(kind), count(member), label(label),
        counter(counter), help(help) {}

  /// Short name: the category in the panel, EXPLAIN and the trace, the
  /// stem of the CSV column (`<name>_ns` for a time).
  const char* name;
  MetricKind kind;
  int64_t Record::*ns = nullptr;      ///< the member of a kTime field
  uint64_t Record::*count = nullptr;  ///< the member of any other field
  /// The one-line footers (panel row, EXPLAIN ANALYZE) show the tiers
  /// as one `rows a/b/c` group under these labels, and any other
  /// labelled field as `| <label> <value>`; nullptr leaves it out.
  const char* label = nullptr;
  /// The `/metrics` counter this field feeds, or nullptr.
  const char* counter = nullptr;
  const char* help = nullptr;

  /// The field as one 8-byte word (a time's two's-complement bits):
  /// what RESULT_DONE carries.
  uint64_t Word(const Record& r) const {
    return ns != nullptr ? static_cast<uint64_t>(r.*ns) : r.*count;
  }
  void SetWord(Record* r, uint64_t word) const {
    if (ns != nullptr) {
      r->*ns = static_cast<int64_t>(word);
    } else {
      r->*count = word;
    }
  }
  /// The value with a negative duration clamped to 0, for counters
  /// that only grow.
  uint64_t NonNegative(const Record& r) const {
    return ns != nullptr && r.*ns < 0 ? 0 : Word(r);
  }
};

using ScanField = MetricField<ScanMetrics>;

/// Every ScanMetrics field, in RESULT_DONE order: a new field is
/// appended at the end.
inline constexpr ScanField kScanFields[] = {
    {"io", &ScanMetrics::io_ns, "nodb_scan_io_ns_total", "scan I/O time"},
    {"locate", &ScanMetrics::parsing_ns, "nodb_scan_locate_ns_total",
     "tuple-boundary location time"},
    {"tokenize", &ScanMetrics::tokenize_ns, "nodb_scan_tokenize_ns_total",
     "tokenizing time"},
    {"convert", &ScanMetrics::convert_ns, "nodb_scan_convert_ns_total",
     "text-to-binary conversion time"},
    {"maintain", &ScanMetrics::nodb_ns, "nodb_scan_maintain_ns_total",
     "positional map / cache / statistics maintenance time"},
    {"filter", &ScanMetrics::filter_ns, "nodb_scan_filter_ns_total",
     "pushed-predicate evaluation time"},
    {"rows_scanned", &ScanMetrics::rows_scanned, "nodb_scan_rows_total",
     "rows scanned"},
    {"bytes_read", &ScanMetrics::bytes_read, "nodb_scan_bytes_read_total",
     "raw bytes read"},
    {"fields_tokenized", &ScanMetrics::fields_tokenized},
    {"fields_converted", &ScanMetrics::fields_converted},
    {"cache_block_hits", &ScanMetrics::cache_block_hits,
     "nodb_cache_block_hits_total", "cache block hits during scans"},
    {"cache_block_misses", &ScanMetrics::cache_block_misses,
     "nodb_cache_block_misses_total", "cache block misses during scans"},
    {"map_exact_probes", &ScanMetrics::map_exact_probes},
    {"map_anchor_probes", &ScanMetrics::map_anchor_probes},
    {"map_blind_rows", &ScanMetrics::map_blind_rows},
    {"store_block_hits", &ScanMetrics::store_block_hits},
    {"rows_from_store", &ScanMetrics::rows_from_store,
     "nodb_scan_rows_from_store_total", "rows served by the store", "store",
     MetricKind::kTier},
    {"rows_from_cache", &ScanMetrics::rows_from_cache,
     "nodb_scan_rows_from_cache_total", "rows served by the cache", "cache",
     MetricKind::kTier},
    {"rows_from_raw", &ScanMetrics::rows_from_raw,
     "nodb_scan_rows_from_raw_total", "rows parsed from raw bytes", "raw",
     MetricKind::kTier},
    {"zone_skipped_blocks", &ScanMetrics::zone_skipped_blocks, nullptr,
     nullptr, "zone-skipped blocks"},
    {"zone_skipped_rows", &ScanMetrics::zone_skipped_rows,
     "nodb_scan_zone_skipped_rows_total", "rows skipped by zone maps"},
    {"pushdown_rows_pruned", &ScanMetrics::pushdown_rows_pruned,
     "nodb_scan_pushdown_pruned_rows_total",
     "rows dropped by pushed predicates before phase-2 parsing"},
    {"pushdown_phase1_fields", &ScanMetrics::pushdown_phase1_fields},
    {"pushdown_phase2_fields", &ScanMetrics::pushdown_phase2_fields},
    {"scans_using_recovered_map", &ScanMetrics::scans_using_recovered_map},
    {"scans_using_recovered_store", &ScanMetrics::scans_using_recovered_store},
};

// Every member is one 8-byte word, so a member missing from the table
// fails here.
static_assert(sizeof(ScanMetrics) ==
                  std::size(kScanFields) * sizeof(uint64_t),
              "every ScanMetrics field needs a kScanFields entry");

inline void ScanMetrics::Add(const ScanMetrics& other) {
  // Two's-complement words add as the signed times would.
  for (const ScanField& f : kScanFields) {
    f.SetWord(this, f.Word(*this) + f.Word(other));
  }
}

inline int64_t ScanMetrics::TotalScanNs() const {
  int64_t total = 0;
  for (const ScanField& f : kScanFields) {
    if (f.kind == MetricKind::kTime) total += this->*f.ns;
  }
  return total;
}

}  // namespace nodb

#endif  // NODB_RAW_SCAN_METRICS_H_
