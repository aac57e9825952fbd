#include "raw/parallel_scan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "io/buffered_reader.h"
#include "raw/raw_scan.h"
#include "simd/simd.h"
#include "simd/structural_index.h"
#include "util/thread_pool.h"

namespace nodb {

namespace {

/// The rows one worker's row pass finds in its byte chunk.
struct RowChunk {
  std::vector<uint64_t> row_starts;  // absolute offsets of owned rows
  uint64_t end_cursor = 0;  // discovery cursor after the last owned row
};

/// Stage-1 row pass over one newline-aligned chunk [begin, end): every
/// row *starting* in the range is recorded. The chunk is read in slabs
/// of up to `read_buffer_bytes`, and each slab's newlines come from the
/// configured SIMD tier's structural indexer (scalar lists with
/// `enable_simd = false`; the rows are the same either way).
Status FindRows(const RawTableState& state, uint64_t begin, uint64_t end,
                RowChunk* out) {
  const size_t buffer = state.config().read_buffer_bytes;
  BufferedReader reader(state.file(), buffer);
  const simd::StructuralIndexer indexer(
      state.info().dialect, simd::LevelFor(state.config().enable_simd),
      /*want_fields=*/false);
  simd::StructuralIndex index;
  out->end_cursor = begin;
  for (uint64_t offset = begin; offset < end;) {
    // A slab that ends mid-row is re-read from that row's start next
    // time round; one holding no complete row grows until it reaches a
    // newline or the chunk end (ReadAt extends its buffer as needed).
    size_t want = static_cast<size_t>(std::min<uint64_t>(end - offset, buffer));
    Slice slab;
    bool last;  // the slab reaches the end of the chunk or of the file
    while (true) {
      NODB_RETURN_NOT_OK(reader.ReadAt(offset, want, &slab));
      indexer.Index(slab.data(), slab.size(), offset, &index);
      last = slab.size() < want || offset + slab.size() >= end;
      if (!index.newlines.empty() || last) break;
      want = static_cast<size_t>(std::min<uint64_t>(end - offset, want * 2));
    }
    uint64_t next = offset;  // start of the next row
    for (uint32_t newline : index.newlines) {
      out->row_starts.push_back(next);
      next = offset + newline + 1;
    }
    if (last && next < offset + slab.size()) {
      out->row_starts.push_back(next);  // final row of the file, unterminated
      next = offset + slab.size() + 1;
    }
    if (next == offset) break;  // the file shrank under the pass
    out->end_cursor = next;
    offset = next;
  }
  return Status::OK();
}

/// Runs `scan` to its end, counting the rows it emits.
Status DrainCounting(RawScanOperator* scan, uint64_t* rows) {
  NODB_RETURN_NOT_OK(scan->Open());
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, scan->Next());
    if (batch == nullptr) return Status::OK();
    *rows += batch->num_rows();
  }
}

}  // namespace

Result<ParallelScanStats> ParallelChunkedScan(RawTableState* state,
                                              std::vector<uint32_t> attrs,
                                              uint32_t num_threads) {
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  for (uint32_t attr : attrs) {
    if (attr >= state->info().schema->num_fields()) {
      return Status::InvalidArgument(
          "parallel scan: attribute " + std::to_string(attr) +
          " out of range for table " + state->info().name);
    }
  }

  if (state->file() == nullptr) {
    NODB_RETURN_NOT_OK(state->Open());
  }
  const NoDbConfig& config = state->config();
  const bool use_map = state->component_flags().map;
  ParallelScanStats out;
  out.threads = std::max<uint32_t>(1, num_threads);
  ThreadPool pool(out.threads);

  // ---- the row pass (map only: without the map there is no row index
  // to publish and no way to start a scan past block 0).
  if (use_map) {
    BufferedReader reader(state->file(), config.read_buffer_bytes);
    NODB_RETURN_NOT_OK(reader.Refresh());
    const uint64_t file_size = reader.file_size();

    // Data rows start after the header line, if any.
    uint64_t data_begin = 0;
    if (state->info().dialect.has_header && file_size > 0) {
      uint64_t header_end = 0;
      Status s = reader.FindNewline(0, &header_end);
      (void)s;  // a header-only file simply has zero data rows
      data_begin = std::min<uint64_t>(header_end + 1, file_size);
    }

    // Newline-aligned chunk boundaries: chunk i owns every row whose
    // start offset falls in [bounds[i], bounds[i+1]). With quoting
    // enabled a raw '\n' may sit inside a field, so boundary alignment
    // could split a record mid-quote: collapse to one chunk.
    const uint64_t data_size = file_size - data_begin;
    const uint64_t num_chunks =
        state->info().dialect.allow_quoting
            ? 1
            : std::max<uint64_t>(1, std::min<uint64_t>(out.threads, data_size));
    std::vector<uint64_t> bounds;
    bounds.push_back(data_begin);
    for (uint64_t i = 1; i < num_chunks; ++i) {
      uint64_t target = data_begin + data_size * i / num_chunks;
      // A target inside the previous boundary's row yields an empty
      // chunk at that boundary; later targets still split normally.
      uint64_t aligned = bounds.back();
      if (target > bounds.back()) {
        // First row start at or after `target`: one past the first
        // newline at offset >= target - 1.
        uint64_t nl = 0;
        Status s = reader.FindNewline(target - 1, &nl);
        if (!s.ok() && !s.IsOutOfRange()) return s;
        aligned = std::min<uint64_t>(nl + 1, file_size);
      }
      bounds.push_back(std::max<uint64_t>(aligned, bounds.back()));
    }
    bounds.push_back(file_size);
    out.byte_chunks = bounds.size() - 1;

    std::vector<RowChunk> chunks(out.byte_chunks);
    std::vector<Status> statuses(out.byte_chunks);
    const RawTableState& cstate = *state;
    ParallelFor(&pool, chunks.size(), [&](size_t i) {
      statuses[i] = FindRows(cstate, bounds[i], bounds[i + 1], &chunks[i]);
    });
    for (const Status& s : statuses) NODB_RETURN_NOT_OK(s);

    // The discovery cursor is one past the last row's end — taken from
    // the last chunk that owns rows (trailing chunks can be empty when
    // boundary targets land inside one row).
    uint64_t cursor = data_begin;
    std::vector<uint64_t> row_starts;
    for (const RowChunk& chunk : chunks) {
      row_starts.insert(row_starts.end(), chunk.row_starts.begin(),
                        chunk.row_starts.end());
      if (!chunk.row_starts.empty()) cursor = chunk.end_cursor;
    }
    out.rows = row_starts.size();
    // Under the discovery baton, so no serial query is walking the
    // frontier while the whole index lands; a no-op once rows are
    // published.
    PositionalMap::Discovery baton(&state->map());
    state->map().PublishRowIndex(std::move(row_starts), cursor, file_size);
  }
  if (use_map && attrs.empty()) return out;  // the row index is all

  // ---- the blocks, through the scan operator: one internal scan per
  // contiguous block range, each publishing its blocks' map chunks,
  // cache segments, statistics and zone entries. Every range but the
  // last ends on a block boundary, so its row limit cuts nothing short;
  // the last runs to the end of the file and learns the tail block.
  const uint64_t rows_per_block = config.rows_per_block;
  const uint64_t num_blocks = (out.rows + rows_per_block - 1) / rows_per_block;
  const size_t ranges =
      use_map ? static_cast<size_t>(std::min<uint64_t>(out.threads, num_blocks))
              : 1;
  std::vector<Status> statuses(ranges);
  std::vector<uint64_t> emitted(ranges, 0);
  ParallelFor(&pool, ranges, [&](size_t i) {
    RawScanOperator scan(state, attrs, nullptr, /*internal=*/true);
    if (use_map) {
      const uint64_t begin = num_blocks * i / ranges;
      const uint64_t end = num_blocks * (i + 1) / ranges;
      scan.SetStartBlock(begin);
      if (i + 1 < ranges) scan.SetRowLimit((end - begin) * rows_per_block);
    }
    statuses[i] = DrainCounting(&scan, &emitted[i]);
  });
  // Ranges are in file order, so the first failing range holds the
  // first failing row — the one the serial scan reports.
  for (const Status& s : statuses) NODB_RETURN_NOT_OK(s);
  if (!use_map) out.rows = emitted[0];
  return out;
}

}  // namespace nodb
