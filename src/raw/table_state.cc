#include "raw/table_state.h"

#include "obs/metrics.h"

namespace nodb {

RawTableState::RawTableState(RawTableInfo info, const NoDbConfig& config)
    : info_(std::move(info)),
      config_(config),
      flags_{config.enable_positional_map, config.enable_cache,
             config.enable_statistics, config.enable_store},
      access_counts_(info_.schema->num_fields(), 0),
      map_(config.positional_map_budget, config.rows_per_block,
           config.max_covering_chunks),
      cache_(config.cache_budget,
             obs::MetricsRegistry::Global().GetCounter(
                 "nodb_cache_insertions_total",
                 "Segments inserted into a table's cache tier"),
             obs::MetricsRegistry::Global().GetCounter(
                 "nodb_cache_evictions_total",
                 "Segments evicted from a cache tier by its budget")),
      stats_(info_.schema),
      store_(config.store_budget,
             obs::MetricsRegistry::Global().GetCounter(
                 "nodb_store_promotions_total",
                 "Column segments promoted into a shadow store"),
             obs::MetricsRegistry::Global().GetCounter(
                 "nodb_store_evictions_total",
                 "Column segments evicted from a shadow store by its "
                 "budget")) {}

Status RawTableState::Open() {
  MutexLock lock(mu_);
  return OpenLocked();
}

Status RawTableState::OpenLocked() {
  NODB_ASSIGN_OR_RETURN(auto file, OpenRandomAccessFile(info_.path));
  file_ = std::shared_ptr<RandomAccessFile>(std::move(file));
  NODB_ASSIGN_OR_RETURN(signature_, FileSignature::Capture(info_.path));
  return Status::OK();
}

Result<FileChange> RawTableState::CheckForUpdates() {
  MutexLock lock(mu_);
  if (file_ == nullptr) {
    NODB_RETURN_NOT_OK(OpenLocked());
    return FileChange::kUnchanged;
  }
  NODB_ASSIGN_OR_RETURN(FileChange change, signature_.Compare());
  if (change == FileChange::kUnchanged) return change;

  if (change == FileChange::kAppended) {
    // Appends keep every structure valid for the old byte range *if*
    // the old content was newline-terminated (otherwise the final old
    // tuple was extended in place and positions after it shifted).
    bool clean_append = false;
    if (signature_.size() > 0) {
      char last;
      Slice got;
      Status s =
          file_->Read(signature_.size() - 1, 1, &last, &got);
      clean_append = s.ok() && got.size() == 1 && got[0] == '\n';
    }
    if (clean_append) {
      // Reopen discovery before the frontier drop: tail admission
      // requires a complete row index, so a concurrent scan cannot
      // re-admit the stale tail after the drop.
      map_.ReopenForAppend();
      DropFrontierBlock();
      promoted_rows_ = UINT64_MAX;  // re-arm the background promoter
    } else {
      change = FileChange::kRewritten;
    }
  }
  if (change == FileChange::kRewritten) {
    InvalidateAllLocked();
  }
  // Reopen: the inode may have been replaced (editors rewrite files).
  NODB_ASSIGN_OR_RETURN(auto file, OpenRandomAccessFile(info_.path));
  file_ = std::shared_ptr<RandomAccessFile>(std::move(file));
  NODB_ASSIGN_OR_RETURN(signature_, FileSignature::Capture(info_.path));
  return change;
}

Status RawTableState::ReplaceFile(const RawTableInfo& info) {
  MutexLock lock(mu_);
  info_ = info;
  InvalidateAllLocked();
  access_counts_.assign(info_.schema->num_fields(), 0);
  return OpenLocked();
}

void RawTableState::SetComponentFlags(bool map, bool cache, bool stats,
                                      bool store) {
  MutexLock lock(mu_);
  flags_ = ComponentFlags{map, cache, stats, store};
}

ComponentFlags RawTableState::component_flags() const {
  MutexLock lock(mu_);
  return flags_;
}

std::shared_ptr<RandomAccessFile> RawTableState::file() const {
  MutexLock lock(mu_);
  return file_;
}

void RawTableState::RecordAttributeAccess(
    const std::vector<uint32_t>& attrs) {
  {
    MutexLock lock(mu_);
    for (uint32_t a : attrs) {
      if (a < access_counts_.size()) ++access_counts_[a];
    }
  }
  // Promotion heat rides on the same signal (store/promoter.h).
  stats_.RecordAccessHeat(attrs);
}

std::vector<uint64_t> RawTableState::attribute_access_counts() const {
  MutexLock lock(mu_);
  return access_counts_;
}

bool RawTableState::TryBeginPromotion(std::vector<uint32_t> hot_attrs,
                                      uint64_t known_rows) {
  MutexLock lock(mu_);
  if (promotion_in_flight_) return false;
  if (promoted_rows_ == known_rows && promoted_hot_ == hot_attrs) {
    return false;  // the last completed pass already covered this
  }
  promotion_in_flight_ = true;
  staged_hot_ = std::move(hot_attrs);
  staged_rows_ = known_rows;
  return true;
}

void RawTableState::EndPromotion(bool completed) {
  MutexLock lock(mu_);
  promotion_in_flight_ = false;
  if (completed) {
    promoted_hot_ = std::move(staged_hot_);
    promoted_rows_ = staged_rows_;
  }
  staged_hot_.clear();
}

bool RawTableState::promotion_in_flight() const {
  MutexLock lock(mu_);
  return promotion_in_flight_;
}

FileSignature RawTableState::signature() const {
  MutexLock lock(mu_);
  return signature_;
}

void RawTableState::DropFrontierBlock() {
  // The block holding the index's old frontier gains appended rows, so
  // its store and cache segments and its zone summary no longer cover
  // it; earlier full blocks keep theirs (the tail is re-promoted by
  // heat once re-scanned). No generation bump: the surviving blocks
  // stay valid, and a stale producer racing the drop is fenced by the
  // scan's serve-time tail re-validation against the live row index
  // (RawScanOperator::CoversBlock).
  const uint64_t frontier = map_.known_rows() / config_.rows_per_block;
  store_.DropBlocksFrom(frontier);
  cache_.DropBlocksFrom(frontier);
  zones_.DropBlocksFrom(frontier);
}

persist::AdaptiveImage RawTableState::Freeze() const {
  persist::AdaptiveImage image;
  image.map = map_.ExportImage();
  image.stats = stats_.ExportImage();
  image.zones = zones_.ExportImage();
  image.store = store_.ExportImage();
  return image;
}

persist::RecoveryReport RawTableState::Thaw(persist::AdaptiveImage image,
                                            FileChange change,
                                            std::string detail) {
  persist::RecoveryReport report;
  report.attempted = true;
  report.change = change;
  report.detail = std::move(detail);
  const bool offered = image.map.has_value() || image.stats.has_value() ||
                       image.zones.has_value() || image.store.has_value();

  if (change == FileChange::kAppended && image.map.has_value()) {
    // Import the prefix index already reopened for discovery: even a
    // brief window where a complete-looking prefix-only index is
    // published would let a concurrent scan terminate at the old
    // frontier and silently miss every appended row.
    image.map->rows_complete = false;
  }
  if (image.map.has_value() && map_.ImportImage(std::move(*image.map))) {
    report.map_recovered = true;
    report.rows_recovered = map_.known_rows();
    report.chunks_recovered = map_.num_chunks();
  }
  if (image.stats.has_value() &&
      stats_.ImportImage(std::move(*image.stats))) {
    report.stats_recovered = true;
  }
  if (image.zones.has_value() &&
      zones_.ImportImage(std::move(*image.zones))) {
    report.zones_recovered = true;
    report.zone_entries_recovered = zones_.num_entries();
  }
  if (image.store.has_value() && store_.ImportImage(*image.store)) {
    report.store_recovered = true;
    report.store_segments_recovered = store_.num_segments();
  }

  if (change == FileChange::kAppended && report.map_recovered) {
    // Mirror CheckForUpdates' clean-append path: the index was already
    // imported reopened (above), so only the frontier block is dropped.
    //
    // Gated on the map actually having been recovered: when the import
    // was refused the live map already reflects the appended file, and
    // running the drop against it would discard valid live tail state;
    // when the map *section* was lost but store/zones recovered, the
    // old frontier is unknowable — the serve-time tail re-validation
    // against the live row index already rejects the one
    // possibly-stale frontier-block entry.
    DropFrontierBlock();
    if (report.store_recovered) {
      report.store_segments_recovered = store_.num_segments();
    }
    if (report.zones_recovered) {
      report.zone_entries_recovered = zones_.num_entries();
    }
  }

  if (offered && !report.any_recovered()) {
    // Every import refused: the structures are already live (queries
    // beat the thaw to them) — live state always wins.
    report.detail = "live adaptive state retained; snapshot ignored";
  }

  RecordRecovery(report);
  return report;
}

persist::RecoveryReport RawTableState::recovery() const {
  MutexLock lock(mu_);
  return recovery_;
}

void RawTableState::RecordRecovery(persist::RecoveryReport report) {
  MutexLock lock(mu_);
  if (!report.any_recovered() && recovery_.any_recovered()) {
    // A later attempt that recovered nothing (typically a re-load onto
    // the now-warm structures) must not erase the truthful provenance
    // of the recovery those structures actually came from — the panel
    // line and the scans' recovered counters keep reporting it until
    // the structures themselves are invalidated.
    return;
  }
  recovery_ = std::move(report);
}

void RawTableState::InvalidateAllLocked() {
  // Each Clear() bumps the component's generation tag, so an in-flight
  // scan that parsed the *old* file cannot inject stale blocks into the
  // rebuilt structures (Promote/Observe compare tags and drop).
  map_.Clear();
  cache_.Clear();
  stats_.Clear();
  store_.Clear();
  zones_.Clear();
  promoted_hot_.clear();
  promoted_rows_ = UINT64_MAX;
  // Recovered state just got dropped with everything else; stop
  // reporting it (scans over the new generation rebuild from cold).
  recovery_ = persist::RecoveryReport{};
}

}  // namespace nodb
