#ifndef NODB_RAW_PARALLEL_SCAN_H_
#define NODB_RAW_PARALLEL_SCAN_H_

#include <cstdint>
#include <vector>

#include "raw/table_state.h"
#include "util/result.h"

namespace nodb {

/// Outcome of a parallel chunked scan (for benches and tests).
struct ParallelScanStats {
  uint64_t rows = 0;          ///< data rows discovered
  uint64_t byte_chunks = 0;   ///< newline-aligned chunks of the row pass
  uint64_t threads = 0;       ///< pool size used
};

/// Parallel first-touch scan: builds the table's NoDB structures — row
/// index, positional-map chunks, cache segments, statistics and zone
/// entries for `attrs` — with `num_threads` workers.
///
/// Two steps. First a parallel row pass: the file's data region is cut
/// into `num_threads` newline-aligned byte chunks (one chunk for a
/// quoting dialect, whose raw '\n' may sit inside a field), a worker
/// per chunk finds its row starts with the stage-1 structural indexer,
/// and the whole row index is published at once under the map's
/// discovery baton. Then the blocks go through RawScanOperator itself:
/// one engine-internal scan per contiguous block range, each starting
/// at its range (SetStartBlock) and, except the last, stopping at the
/// range's end (SetRowLimit). The scan's own side effects publish every
/// block's map chunk, cache segments, statistics and zone entries, as
/// the serial scan would for that block; blocks land in the order the
/// workers finish them, like under concurrent queries. Every later
/// query result is byte-identical to the serial path's, at any thread
/// count. Without the positional map there is no row pass and one
/// worker scans the whole file.
///
/// Honors the per-component enable flags of the state's NoDbConfig:
/// disabled structures are not populated. `attrs` must be table
/// attribute indices (they are sorted and deduplicated internally) and
/// may be empty, in which case only the row index is built.
///
/// On failure the state is what a failed serial scan leaves: the row
/// index and the blocks that completed stay. The error is the serial
/// scan's, for the first failing row in file order. Intended for a
/// *cold* table; the engine's adaptive serial path remains the one
/// that refines warm state.
Result<ParallelScanStats> ParallelChunkedScan(RawTableState* state,
                                              std::vector<uint32_t> attrs,
                                              uint32_t num_threads);

}  // namespace nodb

#endif  // NODB_RAW_PARALLEL_SCAN_H_
