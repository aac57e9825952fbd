#include "exec/key_table.h"

#include <cstring>

#include "util/hash.h"

namespace nodb {

namespace {

constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kNullHash = 0x6e756c6c6b657921ULL;
constexpr size_t kInitialSlots = 16;

/// Hashes a string eight bytes at a time. The length seeds the hash,
/// so embedded NUL bytes and zero padding of the tail cannot collide
/// keys of different lengths.
uint64_t HashBytes(const char* p, size_t n) {
  uint64_t h = MixHash64(n ^ kHashSeed);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = MixHash64(h ^ w);
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = MixHash64(h ^ w);
  }
  return h;
}

}  // namespace

KeyTable::KeyTable(const std::vector<DataType>& types, bool null_keys_match)
    : num_cols_(types.size()), null_keys_match_(null_keys_match) {
  for (size_t c = 0; c < types.size(); ++c) {
    if (types[c] == DataType::kString) string_cols_.push_back(c);
  }
  cmp_words_ = num_cols_ + (num_cols_ + 63) / 64;
  stride_ = cmp_words_ + string_cols_.size();
  Clear();
}

void KeyTable::Clear() {
  slots_.assign(kInitialSlots, Slot{0, kNoEntry});
  mask_ = kInitialSlots - 1;
  num_entries_ = 0;
  words_.clear();
  arena_.clear();
}

void KeyTable::Normalize(
    const std::vector<std::shared_ptr<ColumnVector>>& keys, size_t rows) {
  row_words_.assign(rows * stride_, 0);
  row_hashes_.assign(rows, kHashSeed);
  row_skip_.assign(rows, 0);
  uint64_t* words = row_words_.data();
  uint64_t* hashes = row_hashes_.data();
  uint8_t* skip = row_skip_.data();
  size_t next_string = 0;
  for (size_t c = 0; c < num_cols_; ++c) {
    const ColumnVector& col = *keys[c];
    const uint8_t* valid = col.validity();
    const size_t null_word = num_cols_ + c / 64;
    const uint64_t null_bit = uint64_t{1} << (c % 64);
    // Marks a NULL cell; its value word stays 0.
    auto mark_null = [&](size_t r) {
      words[r * stride_ + null_word] |= null_bit;
      hashes[r] = MixHash64(hashes[r] ^ kNullHash);
      skip[r] = 1;
    };
    switch (col.type()) {
      case DataType::kString: {
        const size_t ptr_word = cmp_words_ + next_string++;
        for (size_t r = 0; r < rows; ++r) {
          if (!valid[r]) {
            mark_null(r);
            continue;
          }
          std::string_view v = col.GetString(r);
          uint64_t* row = words + r * stride_;
          row[c] = v.size();
          row[ptr_word] = reinterpret_cast<uintptr_t>(v.data());
          hashes[r] = MixHash64(hashes[r] ^ HashBytes(v.data(), v.size()));
        }
        break;
      }
      case DataType::kDouble: {
        const double* v = col.double_data();
        for (size_t r = 0; r < rows; ++r) {
          if (!valid[r]) {
            mark_null(r);
            continue;
          }
          uint64_t bits;
          std::memcpy(&bits, &v[r], sizeof(bits));
          words[r * stride_ + c] = bits;
          hashes[r] = MixHash64(hashes[r] ^ bits);
        }
        break;
      }
      case DataType::kInt64:
      case DataType::kDate: {
        const int64_t* v = col.int64_data();
        for (size_t r = 0; r < rows; ++r) {
          if (!valid[r]) {
            mark_null(r);
            continue;
          }
          uint64_t bits = static_cast<uint64_t>(v[r]);
          words[r * stride_ + c] = bits;
          hashes[r] = MixHash64(hashes[r] ^ bits);
        }
        break;
      }
    }
  }
}

bool KeyTable::Equal(uint32_t entry, const uint64_t* row) const {
  const uint64_t* key = words_.data() + size_t{entry} * stride_;
  for (size_t w = 0; w < cmp_words_; ++w) {
    if (key[w] != row[w]) return false;
  }
  for (size_t s = 0; s < string_cols_.size(); ++s) {
    const size_t len = key[string_cols_[s]];  // equal lengths checked
    if (len != 0 &&
        std::memcmp(arena_.data() + key[cmp_words_ + s],
                    reinterpret_cast<const char*>(row[cmp_words_ + s]),
                    len) != 0) {
      return false;
    }
  }
  return true;
}

uint32_t KeyTable::Insert(const uint64_t* row) {
  const uint32_t id = static_cast<uint32_t>(num_entries_++);
  const size_t base = words_.size();
  words_.insert(words_.end(), row, row + stride_);
  for (size_t s = 0; s < string_cols_.size(); ++s) {
    const size_t len = row[string_cols_[s]];
    words_[base + cmp_words_ + s] = arena_.size();
    if (len == 0) continue;  // a NULL's pointer word is 0
    arena_.append(reinterpret_cast<const char*>(row[cmp_words_ + s]), len);
  }
  return id;
}

void KeyTable::Grow() {
  // A slot's tag is its home position's hash bits, so the old slots
  // rehash themselves.
  std::vector<Slot> old(slots_.size() * 2, Slot{0, kNoEntry});
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNoEntry) continue;
    uint64_t i = slot.tag & mask_;
    while (slots_[i].id != kNoEntry) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

template <bool kInsert>
void KeyTable::Probe(
    const std::vector<std::shared_ptr<ColumnVector>>& keys, size_t rows,
    uint32_t* ids) {
  Normalize(keys, rows);
  for (size_t r = 0; r < rows; ++r) {
    if (!null_keys_match_ && row_skip_[r]) {
      ids[r] = kNoEntry;
      continue;
    }
    if (kInsert && (num_entries_ + 1) * 2 > slots_.size()) Grow();
    const uint64_t* row = row_words_.data() + r * stride_;
    const uint32_t tag = static_cast<uint32_t>(row_hashes_[r] >> 32);
    for (uint64_t i = tag & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == kNoEntry) {
        if (kInsert) {
          slot = Slot{tag, Insert(row)};
          ids[r] = slot.id;
        } else {
          ids[r] = kNoEntry;
        }
        break;
      }
      if (slot.tag == tag && Equal(slot.id, row)) {
        ids[r] = slot.id;
        break;
      }
    }
  }
}

void KeyTable::FindOrInsert(
    const std::vector<std::shared_ptr<ColumnVector>>& keys, size_t rows,
    uint32_t* ids) {
  Probe<true>(keys, rows, ids);
}

void KeyTable::Find(const std::vector<std::shared_ptr<ColumnVector>>& keys,
                    size_t rows, uint32_t* ids) {
  Probe<false>(keys, rows, ids);
}

void KeyTable::AppendKeyColumn(size_t col, uint32_t begin, size_t n,
                               ColumnVector* out) const {
  size_t ptr_word = cmp_words_;
  for (size_t s : string_cols_) {
    if (s == col) break;
    ++ptr_word;
  }
  const size_t null_word = num_cols_ + col / 64;
  const uint64_t null_bit = uint64_t{1} << (col % 64);
  out->Reserve(out->size() + n);
  for (size_t e = begin; e < begin + n; ++e) {
    const uint64_t* key = words_.data() + e * stride_;
    if (key[null_word] & null_bit) {
      out->AppendNull();
      continue;
    }
    switch (out->type()) {
      case DataType::kInt64:
        out->AppendInt64(static_cast<int64_t>(key[col]));
        break;
      case DataType::kDate:
        out->AppendDate(static_cast<int64_t>(key[col]));
        break;
      case DataType::kDouble: {
        double v;
        std::memcpy(&v, &key[col], sizeof(v));
        out->AppendDouble(v);
        break;
      }
      case DataType::kString:
        out->AppendString(Slice(arena_.data() + key[ptr_word], key[col]));
        break;
    }
  }
}

size_t KeyTable::MemoryUsage() const {
  return slots_.capacity() * sizeof(Slot) +
         words_.capacity() * sizeof(uint64_t) + arena_.capacity();
}

}  // namespace nodb
