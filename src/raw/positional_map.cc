#include "raw/positional_map.h"

#include <algorithm>

namespace nodb {

PositionalMap::PositionalMap(size_t budget_bytes, uint32_t rows_per_block,
                             uint32_t max_covering_chunks)
    : budget_bytes_(budget_bytes),
      rows_per_block_(rows_per_block == 0 ? 1 : rows_per_block),
      max_covering_chunks_(max_covering_chunks) {}

// -------------------------------------------------------- tuple index

uint64_t PositionalMap::known_rows() const {
  ReaderLock lock(mu_);
  return row_starts_.size();
}

bool PositionalMap::rows_complete() const {
  ReaderLock lock(mu_);
  return rows_complete_;
}

uint64_t PositionalMap::indexed_file_size() const {
  ReaderLock lock(mu_);
  return indexed_file_size_;
}

uint64_t PositionalMap::next_discovery_offset() const {
  ReaderLock lock(mu_);
  return next_discovery_offset_;
}

void PositionalMap::EnsureDiscoveryStartsAt(uint64_t offset) {
  WriterLock lock(mu_);
  if (row_starts_.empty() && !rows_complete_ &&
      next_discovery_offset_ < offset) {
    next_discovery_offset_ = offset;
  }
}

void PositionalMap::ReopenForAppend() {
  WriterLock lock(mu_);
  rows_complete_ = false;
}

PositionalMap::RowSnapshot PositionalMap::SnapshotRows(
    uint64_t first_row, uint32_t count,
    std::vector<uint64_t>* bounds) const {
  ReaderLock lock(mu_);
  RowSnapshot snap;
  snap.known_rows = row_starts_.size();
  snap.complete = rows_complete_;
  bounds->clear();
  if (first_row >= snap.known_rows || count == 0) return snap;

  uint64_t avail =
      std::min<uint64_t>(count, snap.known_rows - first_row);
  // The last published row's end is derivable only once the discovery
  // cursor moved past its start (it always has, unless the index was
  // hand-built row-starts-only).
  if (first_row + avail == snap.known_rows &&
      next_discovery_offset_ <= row_starts_.back()) {
    if (--avail == 0) return snap;
  }
  bounds->reserve(avail + 1);
  for (uint64_t i = 0; i < avail; ++i) {
    bounds->push_back(row_starts_[first_row + i]);
  }
  bounds->push_back(first_row + avail < snap.known_rows
                        ? row_starts_[first_row + avail]
                        : next_discovery_offset_);
  snap.rows = static_cast<uint32_t>(avail);
  return snap;
}

// ---------------------------------------------------------- discovery

PositionalMap::Discovery::Discovery(PositionalMap* map) : map_(map) {
  map_->discovery_mu_.Lock();
}

PositionalMap::Discovery::~Discovery() { map_->discovery_mu_.Unlock(); }

bool PositionalMap::Discovery::NeedsRow(uint64_t row, uint64_t* resume,
                                        uint64_t* frontier_row) const {
  ReaderLock lock(map_->mu_);
  const uint64_t known = map_->row_starts_.size();
  if (row < known) {
    if (row + 1 < known) return false;
    if (map_->next_discovery_offset_ > map_->row_starts_[row]) return false;
    *resume = map_->row_starts_[row];  // start known, end still missing
    *frontier_row = row;
    return true;
  }
  if (map_->rows_complete_) return false;
  *resume = map_->next_discovery_offset_;
  *frontier_row = known;
  return true;
}

void PositionalMap::Discovery::PublishRows(
    const std::vector<uint64_t>& starts, uint64_t next) {
  WriterLock lock(map_->mu_);
  std::vector<uint64_t>& index = map_->row_starts_;
  auto fresh = index.empty() ? starts.begin()
                             : std::upper_bound(starts.begin(), starts.end(),
                                                index.back());
  index.insert(index.end(), fresh, starts.end());
  map_->next_discovery_offset_ = std::max(map_->next_discovery_offset_, next);
}

void PositionalMap::Discovery::MarkComplete(uint64_t file_size) {
  WriterLock lock(map_->mu_);
  map_->rows_complete_ = true;
  map_->indexed_file_size_ = file_size;
}

// -------------------------------------------------------------- probe

PositionalMap::BlockPlan::Column PositionalMap::BlockPlan::Resolve(
    size_t i) const {
  Column column;
  const Source& src = sources_[i];
  if (src.chunk == nullptr) return column;  // anchor = attr 0 at offset 0
  column.stride = src.chunk->attrs.size() * 2;
  column.cells = src.chunk->data.data() + src.column * 2;
  column.rows = src.chunk->rows;
  column.exact = src.exact;
  // A chunk that knows (start, end) of an attribute *before* the
  // request offers the next attribute's start, one past that end: the
  // tightest anchor there is.
  column.anchor_attr = src.anchor_attr + 1;
  return column;
}

PositionalMap::BlockPlan PositionalMap::PrepareBlock(
    uint64_t first_row, const std::vector<uint32_t>& attrs) {
  WriterLock lock(mu_);
  BlockPlan plan;
  plan.block_first_row_ = BlockIndex(first_row) * rows_per_block_;
  plan.sources_.resize(attrs.size());

  auto it = blocks_.find(BlockIndex(first_row));
  if (it != blocks_.end()) {
    // Prefer a single chunk that covers the whole combination: this is
    // what a previous query with the same attribute set left behind,
    // and using it keeps chunks_used() == 1 so the distance policy
    // does not re-index a combination that already exists.
    for (const auto& chunk_ptr : it->second) {
      Chunk* chunk = chunk_ptr.get();
      bool covers_all = true;
      for (uint32_t want : attrs) {
        if (!std::binary_search(chunk->attrs.begin(), chunk->attrs.end(),
                                want)) {
          covers_all = false;
          break;
        }
      }
      if (!covers_all) continue;
      for (size_t i = 0; i < attrs.size(); ++i) {
        auto pos = std::lower_bound(chunk->attrs.begin(),
                                    chunk->attrs.end(), attrs[i]);
        BlockPlan::Source& src = plan.sources_[i];
        src.chunk = chunk_ptr;
        src.column = static_cast<uint32_t>(pos - chunk->attrs.begin());
        src.exact = true;
        src.anchor_attr = attrs[i];
      }
      Touch(chunk);
      plan.fully_covered_ = true;
      plan.chunks_used_ = 1;
      return plan;
    }
    for (const auto& chunk_ptr : it->second) {
      Chunk* chunk = chunk_ptr.get();
      bool used = false;
      for (size_t i = 0; i < attrs.size(); ++i) {
        uint32_t want = attrs[i];
        // Greatest chunk attribute <= want.
        auto pos = std::upper_bound(chunk->attrs.begin(),
                                    chunk->attrs.end(), want);
        if (pos == chunk->attrs.begin()) continue;
        --pos;
        uint32_t have = *pos;
        BlockPlan::Source& src = plan.sources_[i];
        bool better;
        if (src.chunk == nullptr) {
          better = true;
        } else if (src.exact) {
          better = false;
        } else {
          better = (have == want) || have > src.anchor_attr;
        }
        if (better) {
          src.chunk = chunk_ptr;
          src.column = static_cast<uint32_t>(pos - chunk->attrs.begin());
          src.exact = (have == want);
          src.anchor_attr = have;
          used = true;
        }
      }
      if (used) Touch(chunk);
    }
  }

  // Summaries for the distance policy.
  std::vector<const Chunk*> distinct;
  plan.fully_covered_ = true;
  for (const auto& src : plan.sources_) {
    if (!src.exact) plan.fully_covered_ = false;
    if (src.chunk != nullptr &&
        std::find(distinct.begin(), distinct.end(), src.chunk.get()) ==
            distinct.end()) {
      distinct.push_back(src.chunk.get());
    }
  }
  plan.chunks_used_ = static_cast<uint32_t>(distinct.size());
  return plan;
}

bool PositionalMap::ShouldIndexCombination(const BlockPlan& plan) const {
  if (!plan.fully_covered()) return true;
  return plan.chunks_used() > max_covering_chunks_;
}

// --------------------------------------------------- chunk population

void PositionalMap::ChunkBuilder::AddRow(const uint32_t* starts,
                                         const uint32_t* ends,
                                         const size_t* cols) {
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const size_t c = cols != nullptr ? cols[j] : j;
    data_.push_back(starts[c]);
    data_.push_back(ends[c]);
  }
  ++rows_;
}

PositionalMap::ChunkBuilder PositionalMap::StartChunk(
    uint64_t first_row, const std::vector<uint32_t>& attrs) {
  ChunkBuilder builder;
  builder.first_row_ = first_row;
  builder.attrs_ = attrs;
  builder.data_.reserve(static_cast<size_t>(rows_per_block_) *
                        attrs.size() * 2);
  return builder;
}

void PositionalMap::CommitChunk(ChunkBuilder builder) {
  if (builder.rows_ == 0) return;
  WriterLock lock(mu_);
  // Concurrent queries over the same cold block race to index the same
  // combination; both parsed identical bytes, so the first equal (or
  // wider) chunk wins and the duplicate is dropped.
  auto block_it = blocks_.find(BlockIndex(builder.first_row_));
  if (block_it != blocks_.end()) {
    for (const auto& existing : block_it->second) {
      if (existing->first_row == builder.first_row_ &&
          existing->attrs == builder.attrs_ &&
          existing->rows >= builder.rows_) {
        Touch(existing.get());
        return;
      }
    }
  }
  auto chunk = std::make_shared<Chunk>();
  chunk->first_row = builder.first_row_;
  chunk->attrs = std::move(builder.attrs_);
  chunk->data = std::move(builder.data_);
  chunk->rows = builder.rows_;
  chunk->bytes = chunk->data.capacity() * sizeof(uint32_t) +
                 chunk->attrs.capacity() * sizeof(uint32_t) +
                 sizeof(Chunk);
  bytes_used_ += chunk->bytes;
  ++num_chunks_;

  lru_.push_front(chunk.get());
  chunk->lru_pos = lru_.begin();
  blocks_[BlockIndex(chunk->first_row)].push_back(std::move(chunk));
  EvictOverBudget();
}

void PositionalMap::Touch(Chunk* chunk) {
  lru_.erase(chunk->lru_pos);
  lru_.push_front(chunk);
  chunk->lru_pos = lru_.begin();
}

void PositionalMap::EvictOverBudget() {
  while (bytes_used_ > budget_bytes_ && !lru_.empty()) {
    Chunk* victim = lru_.back();
    lru_.pop_back();
    bytes_used_ -= victim->bytes;
    --num_chunks_;
    ++evictions_;
    auto it = blocks_.find(BlockIndex(victim->first_row));
    NODB_CHECK(it != blocks_.end());
    auto& vec = it->second;
    for (auto cit = vec.begin(); cit != vec.end(); ++cit) {
      if (cit->get() == victim) {
        vec.erase(cit);  // in-flight BlockPlans still pin the chunk
        break;
      }
    }
    if (vec.empty()) blocks_.erase(it);
  }
}

// -------------------------------------------------------------- stats

size_t PositionalMap::bytes_used() const {
  ReaderLock lock(mu_);
  return bytes_used_;
}

double PositionalMap::utilization() const {
  ReaderLock lock(mu_);
  return budget_bytes_ == 0
             ? 0.0
             : static_cast<double>(bytes_used_) / budget_bytes_;
}

size_t PositionalMap::num_chunks() const {
  ReaderLock lock(mu_);
  return num_chunks_;
}

uint64_t PositionalMap::evictions() const {
  ReaderLock lock(mu_);
  return evictions_;
}

double PositionalMap::CoverageFraction(uint32_t attr) const {
  ReaderLock lock(mu_);
  if (row_starts_.empty()) return 0.0;
  uint64_t covered = 0;
  for (const auto& [block, chunks] : blocks_) {
    size_t best = 0;
    for (const auto& chunk : chunks) {
      if (std::binary_search(chunk->attrs.begin(), chunk->attrs.end(),
                             attr)) {
        best = std::max(best, chunk->rows);
      }
    }
    covered += best;
  }
  return static_cast<double>(covered) /
         static_cast<double>(row_starts_.size());
}

PositionalMap::Image PositionalMap::ExportImage() const {
  ReaderLock lock(mu_);
  Image image;
  image.row_starts = row_starts_;
  image.rows_complete = rows_complete_;
  image.indexed_file_size = indexed_file_size_;
  image.next_discovery_offset = next_discovery_offset_;
  image.chunks.reserve(num_chunks_);
  // LRU order, most recent first: if the importing map's budget is
  // smaller, the hottest chunks survive admission.
  for (const Chunk* chunk : lru_) {
    Image::ChunkImage ci;
    ci.first_row = chunk->first_row;
    ci.attrs = chunk->attrs;
    ci.data = chunk->data;
    image.chunks.push_back(std::move(ci));
  }
  return image;
}

bool PositionalMap::ImportImage(Image image) {
  WriterLock lock(mu_);
  if (!row_starts_.empty() || rows_complete_ || !blocks_.empty()) {
    return false;  // no longer cold: live state wins
  }
  // Sanity: the row index must be strictly ascending and the discovery
  // cursor past the last known row, or lookups would misbehave. A
  // checksummed section should never fail this; reject defensively.
  for (size_t i = 1; i < image.row_starts.size(); ++i) {
    if (image.row_starts[i] <= image.row_starts[i - 1]) return false;
  }
  if (!image.row_starts.empty() &&
      image.next_discovery_offset <= image.row_starts.back()) {
    return false;
  }
  row_starts_ = std::move(image.row_starts);
  rows_complete_ = image.rows_complete;
  indexed_file_size_ = image.indexed_file_size;
  next_discovery_offset_ = image.next_discovery_offset;

  // Oldest first so LRU push_front reproduces the exported recency.
  for (auto it = image.chunks.rbegin(); it != image.chunks.rend(); ++it) {
    Image::ChunkImage& ci = *it;
    if (ci.attrs.empty() || ci.first_row % rows_per_block_ != 0) continue;
    size_t stride = ci.attrs.size() * 2;
    if (ci.data.empty() || ci.data.size() % stride != 0) continue;
    size_t rows = ci.data.size() / stride;
    if (rows > rows_per_block_) continue;
    if (!std::is_sorted(ci.attrs.begin(), ci.attrs.end())) continue;
    auto chunk = std::make_shared<Chunk>();
    chunk->first_row = ci.first_row;
    chunk->attrs = std::move(ci.attrs);
    chunk->data = std::move(ci.data);
    chunk->rows = rows;
    chunk->bytes = chunk->data.capacity() * sizeof(uint32_t) +
                   chunk->attrs.capacity() * sizeof(uint32_t) +
                   sizeof(Chunk);
    bytes_used_ += chunk->bytes;
    ++num_chunks_;
    lru_.push_front(chunk.get());
    chunk->lru_pos = lru_.begin();
    blocks_[BlockIndex(chunk->first_row)].push_back(std::move(chunk));
  }
  EvictOverBudget();
  return true;
}

void PositionalMap::Clear() {
  WriterLock lock(mu_);
  row_starts_.clear();
  rows_complete_ = false;
  indexed_file_size_ = 0;
  next_discovery_offset_ = 0;
  blocks_.clear();
  lru_.clear();
  bytes_used_ = 0;
  num_chunks_ = 0;
}

}  // namespace nodb
