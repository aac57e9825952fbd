#ifndef NODB_EXEC_HASH_JOIN_H_
#define NODB_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "exec/expr.h"
#include "exec/key_table.h"
#include "exec/operator.h"

namespace nodb {

/// Inner equi-join: builds a hash table on the right (build) input,
/// then streams the left (probe) input. Output schema is the left
/// fields followed by the right fields (the binder qualifies duplicate
/// names before planning).
///
/// The build side is a KeyTable over the build keys plus one row chain
/// per distinct key, kept in build-input order; each probe row emits
/// its matches in that order. A NULL key never matches, INT and DATE
/// keys compare as int64, and DOUBLE keys by bit pattern.
class HashJoinOperator final : public ExecOperator {
 public:
  static Result<OperatorPtr> Create(OperatorPtr probe, OperatorPtr build,
                                    std::vector<ExprPtr> probe_keys,
                                    std::vector<ExprPtr> build_keys);

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override { return schema_; }

 private:
  HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                   std::vector<ExprPtr> probe_keys,
                   std::vector<ExprPtr> build_keys,
                   std::shared_ptr<Schema> schema)
      : probe_(std::move(probe)),
        build_(std::move(build)),
        probe_keys_(std::move(probe_keys)),
        build_keys_(std::move(build_keys)),
        schema_(std::move(schema)) {}

  Status BuildTable();

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<ExprPtr> probe_keys_;
  std::vector<ExprPtr> build_keys_;
  std::shared_ptr<Schema> schema_;

  BatchPtr build_rows_;  // materialized build side
  std::optional<KeyTable> table_;
  /// Row chains: first and last build row of each entry, and each
  /// build row's successor (KeyTable::kNoEntry ends a chain).
  std::vector<uint32_t> chain_head_;
  std::vector<uint32_t> chain_tail_;
  std::vector<uint32_t> chain_next_;
  std::vector<uint32_t> ids_;  // entry of each row of the current batch
  bool built_ = false;
  // Matches of the current probe batch: probe row, build row.
  std::vector<uint32_t> probe_sel_;
  std::vector<uint32_t> build_sel_;
};

}  // namespace nodb

#endif  // NODB_EXEC_HASH_JOIN_H_
