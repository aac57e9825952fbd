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
/// Each batch's keys are normalized once, column at a time, into
/// fixed-width words: the int64 value of an INT or DATE cell, the bit
/// pattern of a DOUBLE, and the length of a STRING, plus one null bit
/// per column. A string key also carries its bytes, which the table
/// copies into its own arena when the key is inserted. Keys are equal
/// when their words, null bits and string bytes are equal, so -0.0 and
/// 0.0 are different keys, NaNs with different payloads are different
/// keys, and INT and DATE cells with the same int64 are the same key.
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

  /// Fills row_words_ and row_hashes_ for rows [0, rows) of `keys`.
  void Normalize(const std::vector<std::shared_ptr<ColumnVector>>& keys,
                 size_t rows);
  template <bool kInsert>
  void Probe(const std::vector<std::shared_ptr<ColumnVector>>& keys,
             size_t rows, uint32_t* ids);
  bool Equal(uint32_t entry, const uint64_t* row) const;
  uint32_t Insert(const uint64_t* row);
  void Grow();

  // Word layout of one key: [fixed words: one per column (value bits,
  // or a string's length) | null bits | one string pointer per string
  // column]. Words before cmp_words_ compare by value; a batch row's
  // string pointer is an address, an entry's an arena offset.
  const size_t num_cols_;
  const bool null_keys_match_;
  std::vector<size_t> string_cols_;  // key columns that are STRINGs
  size_t cmp_words_ = 0;
  size_t stride_ = 0;

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  size_t num_entries_ = 0;
  std::vector<uint64_t> words_;  // entry keys, stride_ words each
  std::string arena_;            // string key bytes

  // Scratch of the batch being normalized.
  std::vector<uint64_t> row_words_;
  std::vector<uint64_t> row_hashes_;
  std::vector<uint8_t> row_skip_;  // NULL join key
};

}  // namespace nodb

#endif  // NODB_EXEC_KEY_TABLE_H_
