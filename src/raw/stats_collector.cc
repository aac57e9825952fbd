#include "raw/stats_collector.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "obs/tenant.h"
#include "util/hash.h"

namespace nodb {

AttributeStats::AttributeStats(DataType type) : type_(type) {
  numeric_sample_.reserve(kReservoirSize);
  if (type == DataType::kString) string_sample_.reserve(kReservoirSize);
}

uint64_t AttributeStats::DrawSlot() {
  // Lemire's multiply-shift: the high word of x * n is uniform in
  // [0, n) once the rare low words below 2^64 mod n are redrawn.
  using U128 = unsigned __int128;
  const uint64_t n = sampled_stream_;
  U128 m = static_cast<U128>(rng_.NextUint64()) * n;
  if (static_cast<uint64_t>(m) < n) {
    const uint64_t reject = (0 - n) % n;
    while (static_cast<uint64_t>(m) < reject) {
      m = static_cast<U128>(rng_.NextUint64()) * n;
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

void AttributeStats::Sample(double numeric, std::string_view text) {
  ++sampled_stream_;
  if (type_ == DataType::kString) {
    if (string_sample_.size() < kReservoirSize) {
      string_sample_.emplace_back(text);
    } else {
      uint64_t j = DrawSlot();
      if (j < kReservoirSize) string_sample_[j].assign(text);
    }
    return;
  }
  if (numeric_sample_.size() < kReservoirSize) {
    numeric_sample_.push_back(numeric);
  } else {
    uint64_t j = DrawSlot();
    if (j < kReservoirSize) numeric_sample_[j] = numeric;
  }
}

void AttributeStats::Reset() {
  MutexLock lock(mu_);
  count_ = 0;
  nulls_ = 0;
  min_.reset();
  max_.reset();
  kmv_.clear();
  numeric_sample_.clear();
  string_sample_.clear();
  sampled_stream_ = 0;
}

void AttributeStats::Observe(const ColumnVector& column) {
  // Hash the segment before taking the lock: one typed loop per type,
  // with the hash functions the persisted sketches were built with.
  const size_t n = column.size();
  const uint8_t* valid = column.validity();
  std::vector<uint64_t> hashes;
  hashes.reserve(n);
  std::vector<double> numeric;
  switch (type_) {
    case DataType::kString:
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) continue;
        std::string_view s = column.GetString(i);
        hashes.push_back(Fnv1a64(s.data(), s.size()));
      }
      break;
    case DataType::kDouble:
    case DataType::kInt64:
    case DataType::kDate:
      numeric.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) continue;
        numeric.push_back(column.GetNumeric(i));
      }
      for (double v : numeric) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(v));
        hashes.push_back(MixHash64(bits));
      }
      break;
  }

  MutexLock lock(mu_);
  count_ += n;
  nulls_ += n - hashes.size();
  if (type_ == DataType::kString) {
    for (size_t i = 0; i < n; ++i) {
      if (valid[i]) Sample(0, column.GetString(i));
    }
  } else if (!numeric.empty()) {
    // The running rule, value by value: a NaN seen first sticks, a NaN
    // seen later never replaces a bound.
    bool has_min = min_.has_value();
    bool has_max = max_.has_value();
    double lo = min_.value_or(0);
    double hi = max_.value_or(0);
    for (double v : numeric) {
      if (!has_min || v < lo) lo = v;
      if (!has_max || v > hi) hi = v;
      has_min = has_max = true;
      Sample(v, {});
    }
    min_ = lo;
    max_ = hi;
  }
  MergeHashes(&hashes);
}

void AttributeStats::MergeHashes(std::vector<uint64_t>* hashes) {
  // Only hashes below the current k-th smallest can enter a full
  // sketch.
  const bool full = kmv_.size() >= kKmvSize;
  const uint64_t kth = full ? kmv_.back() : UINT64_MAX;
  size_t kept = 0;
  for (uint64_t h : *hashes) {
    if (!full || h < kth) (*hashes)[kept++] = h;
  }
  hashes->resize(kept);
  if (kept == 0) return;

  // Deduplicate by open addressing (the hashes are already mixed, so
  // their low bits index the table); 0 marks an empty slot.
  size_t slots = 16;
  while (slots < 2 * kept) slots *= 2;
  std::vector<uint64_t> dedup(slots, 0);
  bool has_zero = false;
  size_t unique = 0;
  for (size_t i = 0; i < kept; ++i) {
    const uint64_t h = (*hashes)[i];
    if (h == 0) {
      if (!has_zero) (*hashes)[unique++] = 0;
      has_zero = true;
      continue;
    }
    size_t s = h & (slots - 1);
    while (dedup[s] != 0 && dedup[s] != h) s = (s + 1) & (slots - 1);
    if (dedup[s] == h) continue;
    dedup[s] = h;
    (*hashes)[unique++] = h;
  }
  hashes->resize(unique);
  if (hashes->size() > kKmvSize) {
    std::nth_element(hashes->begin(), hashes->begin() + kKmvSize,
                     hashes->end());
    hashes->resize(kKmvSize);
  }
  std::sort(hashes->begin(), hashes->end());

  std::vector<uint64_t> merged;
  merged.reserve(kmv_.size() + hashes->size());
  std::set_union(kmv_.begin(), kmv_.end(), hashes->begin(), hashes->end(),
                 std::back_inserter(merged));
  if (merged.size() > kKmvSize) merged.resize(kKmvSize);
  kmv_ = std::move(merged);
}

double AttributeStats::EstimateDistinct() const {
  MutexLock lock(mu_);
  return EstimateDistinctLocked();
}

double AttributeStats::EstimateDistinctLocked() const {
  if (kmv_.empty()) return 0;
  if (kmv_.size() < kKmvSize) return static_cast<double>(kmv_.size());
  // Standard KMV estimator: (k-1) / normalized kth-minimum. Degenerate
  // sketches (kth-minimum of 0 or denormal) would divide by zero or
  // blow up to inf; fall back on the sketch size, which is a valid
  // lower bound.
  double kth = static_cast<double>(kmv_.back()) /
               static_cast<double>(UINT64_MAX);
  if (kth <= 0) return static_cast<double>(kmv_.size());
  double estimate = (static_cast<double>(kKmvSize) - 1.0) / kth;
  if (!std::isfinite(estimate)) return static_cast<double>(kmv_.size());
  return estimate;
}

AttributeStats::Image AttributeStats::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  image.count = count_;
  image.nulls = nulls_;
  image.has_min = min_.has_value();
  image.min = min_.value_or(0);
  image.has_max = max_.has_value();
  image.max = max_.value_or(0);
  image.kmv = kmv_;
  image.numeric_sample = numeric_sample_;
  image.string_sample = string_sample_;
  image.sampled_stream = sampled_stream_;
  return image;
}

bool AttributeStats::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (count_ != 0) return false;  // observed since: live wins
  count_ = image.count;
  nulls_ = image.nulls;
  if (image.has_min) min_ = image.min;
  if (image.has_max) max_ = image.max;
  kmv_ = std::move(image.kmv);
  std::sort(kmv_.begin(), kmv_.end());
  kmv_.erase(std::unique(kmv_.begin(), kmv_.end()), kmv_.end());
  if (kmv_.size() > kKmvSize) kmv_.resize(kKmvSize);
  numeric_sample_ = std::move(image.numeric_sample);
  if (numeric_sample_.size() > kReservoirSize) {
    numeric_sample_.resize(kReservoirSize);
  }
  string_sample_ = std::move(image.string_sample);
  if (string_sample_.size() > kReservoirSize) {
    string_sample_.resize(kReservoirSize);
  }
  sampled_stream_ = image.sampled_stream;
  return true;
}

std::optional<double> AttributeStats::EstimateCompareSelectivity(
    CompareOp op, const Value& literal) const {
  MutexLock lock(mu_);
  if (type_ == DataType::kString) {
    if (!literal.is_string() || string_sample_.empty()) return std::nullopt;
    const std::string& lit = literal.str();
    size_t pass = 0;
    for (const auto& s : string_sample_) {
      int cmp = s.compare(lit);
      bool ok = false;
      switch (op) {
        case CompareOp::kEq:
          ok = cmp == 0;
          break;
        case CompareOp::kNe:
          ok = cmp != 0;
          break;
        case CompareOp::kLt:
          ok = cmp < 0;
          break;
        case CompareOp::kLe:
          ok = cmp <= 0;
          break;
        case CompareOp::kGt:
          ok = cmp > 0;
          break;
        case CompareOp::kGe:
          ok = cmp >= 0;
          break;
      }
      if (ok) ++pass;
    }
    return static_cast<double>(pass) / string_sample_.size();
  }
  if (literal.is_null() || literal.is_string() || numeric_sample_.empty()) {
    return std::nullopt;
  }
  double lit = literal.AsDouble();
  size_t pass = 0;
  for (double v : numeric_sample_) {
    bool ok = false;
    switch (op) {
      case CompareOp::kEq:
        ok = v == lit;
        break;
      case CompareOp::kNe:
        ok = v != lit;
        break;
      case CompareOp::kLt:
        ok = v < lit;
        break;
      case CompareOp::kLe:
        ok = v <= lit;
        break;
      case CompareOp::kGt:
        ok = v > lit;
        break;
      case CompareOp::kGe:
        ok = v >= lit;
        break;
    }
    if (ok) ++pass;
  }
  double frac = static_cast<double>(pass) / numeric_sample_.size();
  if (op == CompareOp::kEq && pass == 0) {
    // Equality that misses the sample: fall back on 1/NDV. A
    // degenerate sketch (no distinct values observed, e.g. an all-NULL
    // column whose sample is somehow non-empty) must not divide by
    // zero or return inf — keep the sample fraction instead.
    double ndv = EstimateDistinctLocked();
    if (ndv > 0 && std::isfinite(1.0 / ndv)) return 1.0 / ndv;
    return frac;
  }
  return frac;
}

std::optional<double> AttributeStats::EstimateLikeSelectivity(
    std::string_view pattern, bool negated) const {
  MutexLock lock(mu_);
  if (string_sample_.empty()) return std::nullopt;
  size_t pass = 0;
  for (const auto& s : string_sample_) {
    if (LikeExpr::Match(s, pattern) != negated) ++pass;
  }
  return static_cast<double>(pass) / string_sample_.size();
}

std::vector<uint64_t> AttributeStats::SampleHistogram(size_t buckets) const {
  MutexLock lock(mu_);
  std::vector<uint64_t> hist(buckets, 0);
  if (numeric_sample_.empty() || !min_ || !max_ || buckets == 0) {
    return hist;
  }
  double lo = *min_;
  double width = (*max_ - lo) / static_cast<double>(buckets);
  if (width <= 0) {
    hist[0] = numeric_sample_.size();
    return hist;
  }
  for (double v : numeric_sample_) {
    size_t b = static_cast<size_t>((v - lo) / width);
    if (b >= buckets) b = buckets - 1;
    ++hist[b];
  }
  return hist;
}

StatsCollector::StatsCollector(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)) {
  attrs_.resize(schema_->num_fields());
  heat_.assign(schema_->num_fields(), 0);
}

void StatsCollector::RecordAccessHeat(const std::vector<uint32_t>& attrs) {
  uint32_t tenant = obs::ScopedTenantLabel::CurrentId();
  MutexLock lock(mu_);
  std::vector<uint64_t>* slice = nullptr;
  for (uint32_t a : attrs) {
    if (a >= heat_.size()) continue;
    ++heat_[a];
    if (slice == nullptr) {
      slice = &tenant_heat_[tenant];
      if (slice->size() < heat_.size()) slice->resize(heat_.size(), 0);
    }
    ++(*slice)[a];
  }
}

uint64_t StatsCollector::access_heat(uint32_t attr) const {
  MutexLock lock(mu_);
  return attr < heat_.size() ? heat_[attr] : 0;
}

std::vector<uint64_t> StatsCollector::access_heat_counts() const {
  MutexLock lock(mu_);
  return heat_;
}

uint64_t StatsCollector::access_heat_for_tenant(uint32_t tenant,
                                                uint32_t attr) const {
  MutexLock lock(mu_);
  auto it = tenant_heat_.find(tenant);
  if (it == tenant_heat_.end() || attr >= it->second.size()) return 0;
  return it->second[attr];
}

std::vector<uint32_t> StatsCollector::HeatTenants() const {
  MutexLock lock(mu_);
  std::vector<uint32_t> out;
  out.reserve(tenant_heat_.size());
  for (const auto& [tenant, slice] : tenant_heat_) out.push_back(tenant);
  std::sort(out.begin(), out.end());
  return out;
}

void StatsCollector::ObserveBlock(uint32_t attr, uint64_t block,
                                  const ColumnVector& column) {
  uint64_t key = (static_cast<uint64_t>(attr) << 40) | block;
  AttributeStats* stats;
  {
    MutexLock lock(mu_);
    if (!observed_.insert(key).second) return;  // already folded in
    if (attrs_[attr] == nullptr) {
      attrs_[attr] =
          std::make_unique<AttributeStats>(schema_->field(attr).type);
    }
    stats = attrs_[attr].get();
  }
  // Fold outside the collector lock; the attribute's own mutex
  // serializes concurrent observers of the same attribute.
  stats->Observe(column);
}

bool StatsCollector::HasStats(uint32_t attr) const {
  AttributeStats* stats;
  {
    MutexLock lock(mu_);
    stats = attrs_[attr].get();
  }
  return stats != nullptr && stats->row_count() > 0;
}

std::vector<uint32_t> StatsCollector::CoveredAttributes() const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < attrs_.size(); ++i) {
    if (HasStats(i)) out.push_back(i);
  }
  return out;
}

void StatsCollector::Clear() {
  MutexLock lock(mu_);
  // Reset in place: estimators may still hold GetStats() pointers.
  for (auto& a : attrs_) {
    if (a != nullptr) a->Reset();
  }
  heat_.assign(heat_.size(), 0);
  tenant_heat_.clear();
  observed_.clear();
}

StatsCollector::Image StatsCollector::ExportImage() const {
  // Collect the slot pointers under the collector lock, then export
  // each sketch under its own lock (the ObserveBlock discipline).
  std::vector<AttributeStats*> slots;
  Image image;
  {
    MutexLock lock(mu_);
    slots.reserve(attrs_.size());
    for (const auto& a : attrs_) slots.push_back(a.get());
    image.heat = heat_;
    image.observed.assign(observed_.begin(), observed_.end());
  }
  // Key order, not hash-table order: the same state always exports
  // the same image, so a recovered table re-saves the same sidecar.
  std::sort(image.observed.begin(), image.observed.end());
  image.attrs.resize(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] != nullptr && slots[i]->row_count() > 0) {
      image.attrs[i] = slots[i]->ExportImage();
    }
  }
  return image;
}

bool StatsCollector::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (image.attrs.size() != attrs_.size()) return false;  // wrong schema
  if (!observed_.empty()) return false;  // already learning: live wins
  for (uint64_t h : heat_) {
    if (h != 0) return false;
  }
  for (size_t i = 0; i < image.attrs.size(); ++i) {
    if (!image.attrs[i].has_value()) continue;
    if (attrs_[i] == nullptr) {
      attrs_[i] =
          std::make_unique<AttributeStats>(schema_->field(i).type);
    }
    attrs_[i]->ImportImage(std::move(*image.attrs[i]));
  }
  if (image.heat.size() == heat_.size()) heat_ = std::move(image.heat);
  observed_.insert(image.observed.begin(), image.observed.end());
  return true;
}

void ZoneMaps::Observe(uint32_t attr, uint64_t block,
                       const ColumnVector& column, uint64_t generation) {
  if (column.type() == DataType::kString) return;
  Entry entry;
  entry.is_int = column.type() != DataType::kDouble;
  entry.rows = column.size();
  const size_t n = column.size();
  const uint8_t* valid = column.validity();
  bool first = true;
  if (entry.is_int) {
    const int64_t* v = column.int64_data();
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i]) {
        entry.has_null = true;
        continue;
      }
      if (first || v[i] < entry.min_i) entry.min_i = v[i];
      if (first || v[i] > entry.max_i) entry.max_i = v[i];
      first = false;
    }
    // The double view of int64 is monotone, so its bounds are the
    // int64 bounds converted.
    entry.non_null = !first;
    entry.min_d = static_cast<double>(entry.min_i);
    entry.max_d = static_cast<double>(entry.max_i);
  } else {
    const double* v = column.double_data();
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i]) {
        entry.has_null = true;
        continue;
      }
      entry.non_null = true;
      if (std::isnan(v[i])) {
        entry.unsafe = true;
        continue;
      }
      if (first || v[i] < entry.min_d) entry.min_d = v[i];
      if (first || v[i] > entry.max_d) entry.max_d = v[i];
      first = false;
    }
  }
  MutexLock lock(mu_);
  if (generation != generation_) return;  // parsed a rewritten file
  entries_.emplace(KeyOf(attr, block), entry);  // first install wins
}

std::optional<ZoneMaps::Entry> ZoneMaps::Get(uint32_t attr,
                                             uint64_t block) const {
  MutexLock lock(mu_);
  auto it = entries_.find(KeyOf(attr, block));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool ZoneMaps::Contains(uint32_t attr, uint64_t block) const {
  MutexLock lock(mu_);
  return entries_.find(KeyOf(attr, block)) != entries_.end();
}

uint64_t ZoneMaps::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

void ZoneMaps::DropBlocksFrom(uint64_t first_block) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if ((it->first & ((uint64_t{1} << 40) - 1)) >= first_block) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void ZoneMaps::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  ++generation_;
}

size_t ZoneMaps::num_entries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

ZoneMaps::Image ZoneMaps::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  image.entries.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Image::EntryImage ei;
    ei.attr = static_cast<uint32_t>(key >> 40);
    ei.block = key & ((uint64_t{1} << 40) - 1);
    ei.entry = entry;
    image.entries.push_back(ei);
  }
  // (attr, block) order, for the same reason as the observed keys.
  std::sort(image.entries.begin(), image.entries.end(),
            [](const Image::EntryImage& a, const Image::EntryImage& b) {
              return a.attr != b.attr ? a.attr < b.attr : a.block < b.block;
            });
  return image;
}

bool ZoneMaps::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (!entries_.empty()) return false;  // already summarizing: live wins
  for (const Image::EntryImage& ei : image.entries) {
    entries_.emplace(KeyOf(ei.attr, ei.block), ei.entry);
  }
  return true;
}

void StatsSelectivityEstimator::Register(const std::string& table,
                                         const StatsCollector* stats,
                                         std::shared_ptr<Schema> schema) {
  tables_[table] = TableEntry{stats, std::move(schema)};
}

namespace {

/// Selectivities are fractions; degenerate stats (empty samples,
/// zero-width ranges, broken sketches) must never leak NaN/inf into
/// the planner's ordering comparisons.
std::optional<double> ClampSelectivity(std::optional<double> sel) {
  if (!sel.has_value()) return sel;
  if (!std::isfinite(*sel)) return std::nullopt;
  return std::min(1.0, std::max(0.0, *sel));
}

}  // namespace

std::optional<double> StatsSelectivityEstimator::EstimateSelectivity(
    const std::string& table, const Expr& predicate) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return std::nullopt;
  const TableEntry& entry = it->second;

  auto stats_for = [&](const Expr& e) -> const AttributeStats* {
    const auto* ref = dynamic_cast<const ColumnRefExpr*>(&e);
    if (ref == nullptr) return nullptr;
    auto idx = entry.schema->FieldIndex(ref->name());
    if (!idx.ok()) {
      // Join-side conjuncts carry qualified display names ("alias.col");
      // retry with the bare column name against the table schema.
      size_t dot = ref->name().rfind('.');
      if (dot == std::string::npos) return nullptr;
      idx = entry.schema->FieldIndex(ref->name().substr(dot + 1));
      if (!idx.ok()) return nullptr;
    }
    if (!entry.stats->HasStats(static_cast<uint32_t>(*idx))) return nullptr;
    return entry.stats->GetStats(static_cast<uint32_t>(*idx));
  };

  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&predicate)) {
    const AttributeStats* stats = stats_for(*cmp->left());
    const Expr* literal_side = cmp->right().get();
    CompareOp op = cmp->op();
    if (stats == nullptr) {
      stats = stats_for(*cmp->right());
      literal_side = cmp->left().get();
      op = MirrorCompareOp(op);  // lit < col  ==  col > lit
    }
    if (stats == nullptr) return std::nullopt;
    const auto* lit = dynamic_cast<const LiteralExpr*>(literal_side);
    if (lit == nullptr) return std::nullopt;
    return ClampSelectivity(
        stats->EstimateCompareSelectivity(op, lit->value()));
  }

  if (const auto* like = dynamic_cast<const LikeExpr*>(&predicate)) {
    // LikeExpr does not expose its input publicly beyond CollectColumns;
    // resolve via collected column indices against the projected schema
    // is not possible here, so estimate only simple column LIKEs.
    (void)like;
    return std::nullopt;
  }

  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&predicate)) {
    (void)isnull;
    return std::nullopt;
  }

  // AND of estimable conjuncts: product (independence assumption).
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&predicate)) {
    if (logical->op() == LogicalOp::kAnd) {
      auto l = EstimateSelectivity(table, *logical->left());
      auto r = EstimateSelectivity(table, *logical->right());
      if (l && r) return ClampSelectivity(*l * *r);
      return ClampSelectivity(l ? l : r);
    }
    if (logical->op() == LogicalOp::kOr) {
      auto l = EstimateSelectivity(table, *logical->left());
      auto r = EstimateSelectivity(table, *logical->right());
      if (l && r) return ClampSelectivity(*l + *r - *l * *r);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace nodb
