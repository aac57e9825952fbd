#include "exec/key_table.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"

namespace nodb {

namespace {

constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;
// Odd 64-bit multipliers (wyhash's).
constexpr uint64_t kMulA = 0xa0761d6478bd642fULL;
constexpr uint64_t kMulB = 0xe7037ed1a0b428dbULL;
constexpr size_t kInitialSlots = 16;
/// Rows normalized and probed at a time.
constexpr size_t kChunkRows = 256;
/// A string this long or shorter is determined by its key words.
constexpr size_t kShortString = 16;

__extension__ typedef unsigned __int128 Uint128;

/// The 128-bit product of `a` and `b` with its halves xored: one
/// multiply that carries every input bit into the high bits, which
/// pick a key's slot and tag.
inline uint64_t MulFold(uint64_t a, uint64_t b) {
  const Uint128 p = static_cast<Uint128>(a) * b;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

/// Folds a fixed-width key word into the hash `h` of the columns
/// before it.
inline uint64_t FixedHash(uint64_t h, uint64_t v) {
  return MulFold(h ^ v, kMulA);
}

/// A string's first and last eight bytes, from two loads that overlap
/// below 16 B and never read outside the string: 4..7 B take two
/// four-byte loads, 1..3 B their first, middle and last byte. For a
/// string of at most 16 B, the two words and the length determine the
/// bytes.
inline void EdgeWords(const char* p, size_t n, uint64_t* head,
                      uint64_t* tail) {
  if (n >= 8) {
    std::memcpy(head, p, 8);
    std::memcpy(tail, p + n - 8, 8);
  } else if (n >= 4) {
    uint32_t h, t;
    std::memcpy(&h, p, 4);
    std::memcpy(&t, p + n - 4, 4);
    *head = h;
    *tail = t;
  } else if (n > 0) {
    *head = uint64_t{static_cast<uint8_t>(p[0])} |
            uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
            uint64_t{static_cast<uint8_t>(p[n - 1])} << 16;
    *tail = 0;
  } else {
    *head = 0;
    *tail = 0;
  }
}

/// Hashes a string longer than kShortString eight bytes at a time. The
/// length seeds the hash, so zero padding of the tail cannot collide
/// keys of different lengths. Kept out of line: inlined, it crowds the
/// short-string loop's registers.
[[gnu::noinline]] uint64_t HashBytes(const char* p, size_t n) {
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

/// Writes the key words of the `n`-byte string at `p` (its length and
/// EdgeWords) to w[0..3) and returns the hash `h` of the columns before
/// it with the string folded in: one multiply for a string of at most
/// kShortString bytes, the word loop for a longer one.
inline uint64_t StringCell(const char* p, size_t n, uint64_t h,
                           uint64_t* w) {
  uint64_t head, tail;
  EdgeWords(p, n, &head, &tail);
  w[0] = n;
  w[1] = head;
  w[2] = tail;
  return n <= kShortString ? MulFold(h ^ head, tail ^ kMulB ^ n)
                           : MulFold(h ^ HashBytes(p, n), kMulA);
}

}  // namespace

KeyTable::KeyTable(const std::vector<DataType>& types, bool null_keys_match)
    : num_cols_(types.size()), null_keys_match_(null_keys_match) {
  size_t word = 0;
  for (size_t c = 0; c < types.size(); ++c) {
    col_word_.push_back(word);
    if (types[c] == DataType::kString) {
      string_len_words_.push_back(word);
      word += 3;
    } else {
      word += 1;
    }
  }
  null_word_ = word;
  cmp_words_ = null_word_ + (num_cols_ + 63) / 64;
  stride_ = cmp_words_ + string_len_words_.size();
  Clear();
}

void KeyTable::Clear() {
  slots_.assign(kInitialSlots, Slot{0, kNoEntry});
  mask_ = kInitialSlots - 1;
  num_entries_ = 0;
  words_.clear();
  arena_.clear();
}

bool KeyTable::Normalize(
    const std::vector<std::shared_ptr<ColumnVector>>& keys, size_t begin,
    size_t rows) {
  // Every word of every row is written below, so the scratch is sized,
  // not cleared. The table's fields live in locals: stores through
  // `words` could otherwise alias them and force reloads.
  const size_t stride = stride_;
  row_words_.resize(rows * stride);
  row_hashes_.resize(rows);
  uint64_t* words = row_words_.data();
  uint64_t* hashes = row_hashes_.data();
  size_t ptr_word = cmp_words_;
  size_t longest = 0;
  for (size_t c = 0; c < num_cols_; ++c) {
    const ColumnVector& col = *keys[c];
    const uint8_t* valid = col.validity() + begin;
    const size_t word = col_word_[c];
    const size_t null_word = null_word_ + c / 64;
    const uint64_t null_bit = uint64_t{1} << (c % 64);
    // The first column of a null word starts it; later ones add to it.
    const bool starts_null_word = c % 64 == 0;
    const bool first = c == 0;
    auto set_null_bit = [&](uint64_t* row, uint8_t ok) {
      const uint64_t bit = ok ? 0 : null_bit;
      row[null_word] = starts_null_word ? bit : row[null_word] | bit;
    };
    if (col.type() == DataType::kString) {
      const uint32_t* offsets = col.string_offsets() + begin;
      const char* data = col.string_data();
      for (size_t r = 0; r < rows; ++r) {
        uint64_t* row = words + r * stride;
        const uint8_t ok = valid[r];
        const char* p = data + offsets[r];
        const size_t n = ok ? offsets[r + 1] - offsets[r] : 0;
        longest = std::max(longest, n);
        hashes[r] =
            StringCell(p, n, first ? kHashSeed : hashes[r], row + word);
        row[ptr_word] = reinterpret_cast<uintptr_t>(p);
        set_null_bit(row, ok);
      }
      ++ptr_word;
      continue;
    }
    // INT and DATE words hold the int64, DOUBLE words the bit pattern;
    // a NULL cell's word is 0, and its hash is that of a 0 (the null
    // bit tells the two apart).
    auto fixed = [&](const auto* values) {
      for (size_t r = 0; r < rows; ++r) {
        uint64_t* row = words + r * stride;
        const uint8_t ok = valid[r];
        uint64_t v;
        std::memcpy(&v, values + r, sizeof(v));
        v &= uint64_t{0} - ok;
        row[word] = v;
        set_null_bit(row, ok);
        hashes[r] = FixedHash(first ? kHashSeed : hashes[r], v);
      }
    };
    if (col.type() == DataType::kDouble) {
      fixed(col.double_data() + begin);
    } else {
      fixed(col.int64_data() + begin);
    }
  }
  return longest > kShortString;
}

// Out of line: it is rare, and inlined it crowds the probe loop's
// registers.
[[gnu::noinline]] bool KeyTable::LongStringsEqual(const uint64_t* key,
                                                  const uint64_t* row) const {
  for (size_t s = 0; s < string_len_words_.size(); ++s) {
    const size_t len = key[string_len_words_[s]];  // equal lengths
    if (len > kShortString &&
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
  for (size_t s = 0; s < string_len_words_.size(); ++s) {
    const size_t len = row[string_len_words_[s]];
    words_[base + cmp_words_ + s] = arena_.size();
    if (len == 0) continue;  // empty or NULL
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
  // The table's fields live in locals, so the stores below need not
  // reload them.
  const size_t cmp_words = cmp_words_;
  const size_t stride = stride_;
  const size_t null_word = null_word_;
  const bool skip_null_keys = !null_keys_match_;
  // A chunk's scratch stays in the L1 cache between being written and
  // being probed.
  for (size_t begin = 0; begin < rows; begin += kChunkRows) {
    const size_t n = std::min(kChunkRows, rows - begin);
    const bool long_strings = Normalize(keys, begin, n);
    const uint64_t* words = row_words_.data();
    const uint64_t* hashes = row_hashes_.data();
    const Slot* slots = slots_.data();
    uint64_t mask = mask_;
    // Insert may move the entry words; Grow moves the slots.
    const uint64_t* entries = words_.data();
    uint32_t* out = ids + begin;
    for (size_t r = 0; r < n; ++r) {
      const uint64_t* row = words + r * stride;
      if (skip_null_keys) {
        uint64_t nulls = 0;
        for (size_t w = null_word; w < cmp_words; ++w) nulls |= row[w];
        if (nulls != 0) {
          out[r] = kNoEntry;  // a NULL join key matches nothing
          continue;
        }
      }
      if (kInsert && (num_entries_ + 1) * 2 > mask + 1) {
        Grow();
        slots = slots_.data();
        mask = mask_;
      }
      const uint32_t tag = static_cast<uint32_t>(hashes[r] >> 32);
      uint32_t id = kNoEntry;
      for (uint64_t i = tag & mask;; i = (i + 1) & mask) {
        const Slot slot = slots[i];
        if (slot.id == kNoEntry) {
          if (kInsert) {
            id = Insert(row);
            slots_[i] = Slot{tag, id};
            entries = words_.data();
          }
          break;
        }
        if (slot.tag != tag) continue;
        const uint64_t* key = entries + size_t{slot.id} * stride;
        uint64_t diff = 0;
        for (size_t w = 0; w < cmp_words; ++w) diff |= key[w] ^ row[w];
        if (diff == 0 && (!long_strings || LongStringsEqual(key, row))) {
          id = slot.id;
          break;
        }
      }
      out[r] = id;
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
  const size_t word = col_word_[col];
  size_t ptr_word = cmp_words_;
  for (size_t len_word : string_len_words_) {
    if (len_word == word) break;
    ++ptr_word;
  }
  const size_t null_word = null_word_ + col / 64;
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
        out->AppendInt64(static_cast<int64_t>(key[word]));
        break;
      case DataType::kDate:
        out->AppendDate(static_cast<int64_t>(key[word]));
        break;
      case DataType::kDouble: {
        double v;
        std::memcpy(&v, &key[word], sizeof(v));
        out->AppendDouble(v);
        break;
      }
      case DataType::kString:
        out->AppendString(Slice(arena_.data() + key[ptr_word], key[word]));
        break;
    }
  }
}

size_t KeyTable::MemoryUsage() const {
  return slots_.capacity() * sizeof(Slot) +
         words_.capacity() * sizeof(uint64_t) + arena_.capacity();
}

}  // namespace nodb
