#include "raw/stats_collector.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace nodb {

AttributeStats::AttributeStats(DataType type) : type_(type) {
  numeric_sample_.reserve(kReservoirSize);
  if (type == DataType::kString) string_sample_.reserve(kReservoirSize);
}

namespace {

/// A geometric proposal: probability `p` and 1 / log(1 - p).
struct Proposal {
  double p = 0;  ///< 0: not set yet
  double inv_log = 0;
};

/// Stream index (1-based) of the next value to enter a full reservoir
/// of `k` slots, `offered` values having been offered. Value number m
/// enters with probability k / m, independently of every other value
/// (Algorithm R), so the draw depends on k and `offered` alone. It is
/// drawn by thinning: a candidate comes a geometric skip away at a
/// bound p that no later value's probability exceeds, and is accepted
/// with probability (k / candidate) / p; a rejected candidate restarts
/// the draw there. `bound` carries p across the draws of one segment
/// and is tightened to k / (m + 1) once it overshoots that by 10%, so
/// a draw costs about one logarithm.
uint64_t NextReplacement(double k, uint64_t offered, Proposal* bound,
                         Random* rng) {
  uint64_t m = offered;
  for (;;) {
    const double next = k / static_cast<double>(m + 1);
    if (bound->p == 0 || bound->p > 1.1 * next) {
      bound->p = std::min(1.0, next);
      // log(1 - p), not the slower log1p(-p): the rounding of 1 - p
      // stays far below the sample's own noise for any stream length.
      bound->inv_log = 1.0 / std::log(1.0 - bound->p);
    }
    const double u = 1.0 - rng->NextDouble();  // (0, 1]: log(u) is finite
    const double skip = std::floor(std::log(u) * bound->inv_log);
    m += 1 + static_cast<uint64_t>(std::min(skip, 1e18));
    if (rng->NextDouble() * bound->p * static_cast<double>(m) < k) return m;
  }
}

/// How many of `sample` satisfy `v op lit`.
template <typename T>
size_t CountMatching(const std::vector<T>& sample, CompareOp op,
                     const T& lit) {
  size_t pass = 0;
  for (const T& v : sample) {
    switch (op) {
      case CompareOp::kEq:
        pass += v == lit;
        break;
      case CompareOp::kNe:
        pass += v != lit;
        break;
      case CompareOp::kLt:
        pass += v < lit;
        break;
      case CompareOp::kLe:
        pass += v <= lit;
        break;
      case CompareOp::kGt:
        pass += v > lit;
        break;
      case CompareOp::kGe:
        pass += v >= lit;
        break;
    }
  }
  return pass;
}

}  // namespace

void AttributeStats::Reset() {
  MutexLock lock(mu_);
  count_ = 0;
  numeric_sample_.clear();
  string_sample_.clear();
  sampled_stream_ = 0;
  next_replacement_ = 0;
}

void AttributeStats::Observe(const ColumnVector& column) {
  const size_t n = column.size();
  const uint8_t* valid = column.validity();
  const bool strings = type_ == DataType::kString;
  const bool has_null = std::memchr(valid, 0, n) != nullptr;
  MutexLock lock(mu_);
  count_ += n;
  uint64_t offered = sampled_stream_;
  size_t i = 0;
  // The first k values fill the reservoir.
  for (size_t held = strings ? string_sample_.size() : numeric_sample_.size();
       i < n && held < kReservoirSize; ++i) {
    if (!valid[i]) continue;
    ++offered;
    ++held;
    if (strings) {
      string_sample_.emplace_back(column.GetString(i));
    } else {
      numeric_sample_.push_back(column.GetNumeric(i));
    }
  }
  // Then only the drawn values replace a uniform slot; the valid rows
  // in between are counted, or skipped over when none is NULL.
  uint64_t next = next_replacement_;
  Proposal bound;
  while (i < n) {
    if (next == 0) {
      next = NextReplacement(kReservoirSize, offered, &bound, &rng_);
    }
    if (has_null) {
      while (i < n && offered < next) offered += valid[i++];
    } else {
      const uint64_t rows = std::min<uint64_t>(next - offered, n - i);
      i += rows;
      offered += rows;
    }
    if (offered < next) break;
    const size_t slot = rng_.Uniform(kReservoirSize);
    if (strings) {
      string_sample_[slot].assign(column.GetString(i - 1));
    } else {
      numeric_sample_[slot] = column.GetNumeric(i - 1);
    }
    next = 0;
  }
  sampled_stream_ = offered;
  next_replacement_ = next;
}

AttributeStats::Image AttributeStats::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  image.count = count_;
  image.numeric_sample = numeric_sample_;
  image.string_sample = string_sample_;
  image.sampled_stream = sampled_stream_;
  return image;
}

bool AttributeStats::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (count_ != 0) return false;  // observed since: live wins
  count_ = image.count;
  numeric_sample_ = std::move(image.numeric_sample);
  if (numeric_sample_.size() > kReservoirSize) {
    numeric_sample_.resize(kReservoirSize);
  }
  string_sample_ = std::move(image.string_sample);
  if (string_sample_.size() > kReservoirSize) {
    string_sample_.resize(kReservoirSize);
  }
  sampled_stream_ = image.sampled_stream;
  next_replacement_ = 0;
  return true;
}

std::optional<double> AttributeStats::EstimateCompareSelectivity(
    CompareOp op, const Value& literal) const {
  MutexLock lock(mu_);
  size_t pass;
  size_t size;
  if (type_ == DataType::kString) {
    if (!literal.is_string() || string_sample_.empty()) return std::nullopt;
    pass = CountMatching(string_sample_, op, literal.str());
    size = string_sample_.size();
  } else {
    if (literal.is_null() || literal.is_string() || numeric_sample_.empty()) {
      return std::nullopt;
    }
    pass = CountMatching(numeric_sample_, op, literal.AsDouble());
    size = numeric_sample_.size();
  }
  // An equality the sample misses is rarer than one sampled value, but
  // not impossible: half of one.
  if (op == CompareOp::kEq && pass == 0) return 0.5 / size;
  return static_cast<double>(pass) / size;
}

StatsCollector::StatsCollector(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)) {
  attrs_.resize(schema_->num_fields());
  heat_.assign(schema_->num_fields(), 0);
}

void StatsCollector::RecordAccessHeat(const std::vector<uint32_t>& attrs) {
  MutexLock lock(mu_);
  for (uint32_t a : attrs) {
    if (a < heat_.size()) ++heat_[a];
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
  observed_.clear();
}

StatsCollector::Image StatsCollector::ExportImage() const {
  // Collect the slot pointers under the collector lock, then export
  // each sample under its own lock (the ObserveBlock discipline).
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

/// Selectivities are fractions; degenerate stats (empty samples, NaN
/// values) must never leak NaN/inf into the planner's ordering
/// comparisons.
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
