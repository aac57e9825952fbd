#include "store/segment_store.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "obs/tenant.h"

namespace nodb {

std::shared_ptr<const ColumnVector> SegmentStore::Get(uint32_t attr,
                                                      uint64_t block) {
  MutexLock lock(mu_);
  auto it = entries_.find(Key{attr, block});
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.segment;
}

bool SegmentStore::Contains(uint32_t attr, uint64_t block) const {
  MutexLock lock(mu_);
  return entries_.find(Key{attr, block}) != entries_.end();
}

bool SegmentStore::GetBlock(
    const std::vector<uint32_t>& attrs, uint64_t block,
    std::vector<std::shared_ptr<const ColumnVector>>* out) {
  out->clear();
  MutexLock lock(mu_);
  out->reserve(attrs.size());
  std::vector<std::list<Key>::iterator> found;
  found.reserve(attrs.size());
  for (uint32_t attr : attrs) {
    auto it = entries_.find(Key{attr, block});
    if (it == entries_.end()) {
      out->clear();
      ++misses_;
      return false;
    }
    out->push_back(it->second.segment);
    found.push_back(it->second.lru_pos);
  }
  // All resident: the block will be served, refresh every segment.
  for (auto pos : found) lru_.splice(lru_.begin(), lru_, pos);
  ++hits_;
  return true;
}

void SegmentStore::Put(uint32_t attr, uint64_t block,
                       std::shared_ptr<const ColumnVector> segment,
                       uint64_t generation) {
  if (segment == nullptr) return;
  const size_t bytes = segment->MemoryUsage() + sizeof(Entry) + sizeof(Key);
  const size_t rows = segment->size();
  MutexLock lock(mu_);
  if (generation != generation_) return;  // parsed a rewritten file
  Key key{attr, block};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.segment->size() == rows) return;  // same bytes
    RemoveLocked(it);  // a grown tail block: never serve the old one
  }
  if (bytes > budget_bytes_) return;  // could never fit
  lru_.push_front(key);
  Entry entry;
  entry.segment = std::move(segment);
  entry.bytes = bytes;
  entry.owner = obs::ScopedTenantLabel::CurrentId();
  entry.lru_pos = lru_.begin();
  owner_bytes_[entry.owner] += bytes;
  entries_.emplace(key, std::move(entry));
  bytes_used_ += bytes;
  if (attr >= rows_.size()) rows_.resize(attr + 1, 0);
  rows_[attr] += rows;
  ++promotions_;
  if (admitted_ != nullptr) admitted_->Add(1);
  EvictOverBudget();
}

void SegmentStore::RemoveLocked(Map::iterator it) {
  bytes_used_ -= it->second.bytes;
  auto ob = owner_bytes_.find(it->second.owner);
  ob->second -= it->second.bytes;
  if (ob->second == 0) owner_bytes_.erase(ob);
  rows_[it->first.attr] -= it->second.segment->size();
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void SegmentStore::EvictOverBudget() {
  while (bytes_used_ > budget_bytes_ && lru_.size() > 1) {
    size_t share =
        budget_bytes_ / std::max<size_t>(size_t{1}, owner_bytes_.size());
    auto victim = entries_.find(lru_.back());
    for (auto pos = std::prev(lru_.end()); pos != lru_.begin(); --pos) {
      auto entry = entries_.find(*pos);
      if (owner_bytes_.at(entry->second.owner) > share) {
        victim = entry;
        break;
      }
    }
    RemoveLocked(victim);
    ++evictions_;
    if (evicted_ != nullptr) evicted_->Add(1);
  }
}

void SegmentStore::DropRange(uint64_t first_block, uint64_t end_block) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->first.block >= first_block && it->first.block < end_block) {
      RemoveLocked(it);
    }
    it = next;
  }
}

void SegmentStore::DropBlocksFrom(uint64_t first_block) {
  DropRange(first_block, UINT64_MAX);
}

void SegmentStore::DropBlock(uint64_t block) { DropRange(block, block + 1); }

void SegmentStore::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  lru_.clear();
  rows_.assign(rows_.size(), 0);
  owner_bytes_.clear();
  bytes_used_ = 0;
  ++generation_;
}

SegmentStore::Image SegmentStore::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  image.segments.reserve(entries_.size());
  for (const Key& key : lru_) {
    image.segments.push_back(Image::SegmentImage{
        key.attr, key.block, entries_.find(key)->second.segment});
  }
  return image;
}

bool SegmentStore::ImportImage(const Image& image) {
  if (num_segments() != 0) return false;  // already live: live wins
  const uint64_t gen = generation();
  for (auto it = image.segments.rbegin(); it != image.segments.rend();
       ++it) {
    Put(it->attr, it->block, it->segment, gen);
  }
  return true;
}

size_t SegmentStore::bytes_used_by(uint32_t owner) const {
  MutexLock lock(mu_);
  auto it = owner_bytes_.find(owner);
  return it == owner_bytes_.end() ? 0 : it->second;
}

uint64_t SegmentStore::rows_materialized(uint32_t attr) const {
  MutexLock lock(mu_);
  return attr < rows_.size() ? rows_[attr] : 0;
}

std::vector<uint32_t> SegmentStore::MaterializedAttributes() const {
  MutexLock lock(mu_);
  std::vector<uint32_t> out;
  for (uint32_t a = 0; a < rows_.size(); ++a) {
    if (rows_[a] > 0) out.push_back(a);
  }
  return out;
}

}  // namespace nodb
