#ifndef NODB_EXEC_KEY_TABLE_H_
#define NODB_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "types/column_vector.h"

namespace nodb {

/// Open-addressing hash table over multi-column keys: the one key
/// structure behind GROUP BY, DISTINCT and the hash join's build side.
///
/// Keys are normalized column at a time, 256 rows at a time (so the
/// scratch is still in the L1 cache when it is probed), into
/// fixed-width words: the int64 value of an INT or DATE cell, the bit
/// pattern of a DOUBLE, and for a STRING its length and its first and
/// last eight bytes (two loads that overlap below 16 B), plus one null
/// bit per column. A string of at most 16 B is determined by those three
/// words, so it compares without touching its bytes; a longer one also
/// carries its bytes, compared with memcmp. The table copies every
/// inserted string into its own arena. Keys are equal when their words,
/// null bits and string bytes are equal, so -0.0 and 0.0 are different
/// keys, NaNs with different payloads are different keys, and INT and
/// DATE cells with the same int64 are the same key.
///
/// A row's hash folds its columns in with one 64×64→128-bit multiply
/// each (a short string's two words go into that one multiply; a
/// longer string is first hashed eight bytes at a time).
///
/// Entries are numbered 0, 1, 2, ... in first-appearance order; the
/// caller keeps its per-entry state (accumulators, row chains) in
/// arrays indexed by that number. Probing is linear over a power-of-two
/// slot array kept at most half full; a slot holds 32 bits of the key's
/// hash, which pick its home position and filter comparisons, and the
/// entry number. A 4-INT key thus costs 40 bytes of words plus 16 to
/// 32 bytes of slots.
class KeyTable {
 public:
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  /// `types` are the key columns' types; only whether each is a STRING
  /// matters. With `null_keys_match` false (joins), a row with a NULL
  /// in any key column is neither inserted nor found.
  KeyTable(const std::vector<DataType>& types, bool null_keys_match);

  /// Maps rows [0, rows) of `keys` to entries, inserting unseen keys.
  /// ids[i] receives row i's entry (kNoEntry for a NULL join key).
  void FindOrInsert(const std::vector<std::shared_ptr<ColumnVector>>& keys,
                    size_t rows, uint32_t* ids);

  /// Like FindOrInsert, but never inserts: ids[i] is kNoEntry for a key
  /// not in the table.
  void Find(const std::vector<std::shared_ptr<ColumnVector>>& keys,
            size_t rows, uint32_t* ids);

  size_t size() const { return num_entries_; }

  /// Appends key column `col` of entries [begin, begin + n) to `out`,
  /// whose type is the column's.
  void AppendKeyColumn(size_t col, uint32_t begin, size_t n,
                       ColumnVector* out) const;

  /// Heap bytes held: slots, entry words and string bytes.
  size_t MemoryUsage() const;

  void Clear();

 private:
  struct Slot {
    uint32_t tag;  // high half of the key's hash; home = tag & mask_
    uint32_t id;   // entry number, or kNoEntry when empty
  };

  /// Fills row_words_ and row_hashes_ for rows [begin, begin + rows)
  /// of `keys`. Returns whether any of their strings is longer than
  /// 16 B, i.e. needs its bytes compared.
  bool Normalize(const std::vector<std::shared_ptr<ColumnVector>>& keys,
                 size_t begin, size_t rows);
  template <bool kInsert>
  void Probe(const std::vector<std::shared_ptr<ColumnVector>>& keys,
             size_t rows, uint32_t* ids);
  /// Whether the strings longer than 16 B of entry `key` and batch row
  /// `row`, whose words already compared equal, have equal bytes.
  bool LongStringsEqual(const uint64_t* key, const uint64_t* row) const;
  uint32_t Insert(const uint64_t* row);
  void Grow();

  // Word layout of one key: [value words: one per fixed-width column,
  // three (length, first and last eight bytes) per string column | null
  // bits | one string pointer per string column]. Words before
  // cmp_words_ compare by value; a batch row's string pointer is an
  // address, an entry's an arena offset.
  const size_t num_cols_;
  const bool null_keys_match_;
  std::vector<size_t> col_word_;          // each column's first value word
  std::vector<size_t> string_len_words_;  // the string columns' lengths
  size_t null_word_ = 0;                  // the first null-bit word
  size_t cmp_words_ = 0;
  size_t stride_ = 0;

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  size_t num_entries_ = 0;
  std::vector<uint64_t> words_;  // entry keys, stride_ words each
  std::string arena_;            // string key bytes

  // Scratch of the chunk of rows being normalized.
  std::vector<uint64_t> row_words_;
  std::vector<uint64_t> row_hashes_;
};

}  // namespace nodb

#endif  // NODB_EXEC_KEY_TABLE_H_
