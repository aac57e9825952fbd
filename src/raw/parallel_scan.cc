#include "raw/parallel_scan.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "csv/tokenizer.h"
#include "csv/value_parser.h"
#include "io/buffered_reader.h"
#include "simd/simd.h"
#include "simd/structural_index.h"
#include "util/thread_pool.h"

namespace nodb {

namespace {

/// Everything one worker learns about its byte chunk. Spans and values
/// are kept in file order so the merge can replay them as if a single
/// sequential scan had produced them.
struct Fragment {
  std::vector<uint64_t> row_starts;  // absolute offsets of owned rows
  // Row-relative field spans, rows * attrs entries, attr-major per row
  // (the layout ChunkBuilder::AddRow consumes).
  std::vector<uint32_t> span_starts;
  std::vector<uint32_t> span_ends;
  // Parsed values per requested attribute, parallel to `attrs`.
  std::vector<std::unique_ptr<ColumnVector>> columns;
  uint64_t end_cursor = 0;  // discovery cursor after the last owned row

  // First failure, if any. `error_suffix` is the serial scan's message
  // minus its "<table>: row <N>" prefix — the global row number is only
  // known at merge time.
  Status io_status;
  bool parse_failed = false;
  uint64_t error_row = 0;  // chunk-local
  std::string error_suffix;
};

/// Scans one newline-aligned chunk [begin, end): every row *starting*
/// in the range is discovered, tokenized and (optionally) parsed.
///
/// Two-stage structural parse: the chunk is consumed in slabs of up to
/// `read_buffer_bytes`; stage 1 classifies each slab's bytes into
/// sorted delimiter/newline/quote position lists with the configured
/// SIMD tier (simd/structural_index.h), stage 2 walks those lists to
/// cut rows and fields. A row containing a quote byte falls back to the
/// serial quote-aware tokenizer, so quoting semantics stay identical.
/// With `enable_simd = false` the same walk runs over scalar-built
/// lists — one code path, byte-identical output at every tier.
void ScanChunk(const RawTableState& state,
               const std::vector<uint32_t>& attrs, bool parse_values,
               uint64_t begin, uint64_t end, Fragment* frag) {
  BufferedReader reader(state.file(), state.config().read_buffer_bytes);
  const simd::SimdLevel level =
      simd::LevelFor(state.config().enable_simd);
  const CsvTokenizer tokenizer(state.info().dialect, level);
  const simd::StructuralIndexer indexer(state.info().dialect, level,
                                        /*want_fields=*/!attrs.empty());
  const bool quoting = state.info().dialect.allow_quoting;
  const Schema& schema = *state.info().schema;

  if (parse_values) {
    frag->columns.reserve(attrs.size());
    for (uint32_t attr : attrs) {
      frag->columns.push_back(
          std::make_unique<ColumnVector>(schema.field(attr).type));
    }
  }

  const uint32_t max_attr = attrs.empty() ? 0 : attrs.back();
  std::vector<uint32_t> starts(max_attr + 2, 0);
  std::string scratch;
  simd::StructuralIndex index;

  uint64_t offset = begin;
  frag->end_cursor = begin;
  while (offset < end) {
    // Stage 1: read the next slab and index its structural bytes. A
    // slab that ends mid-row is re-read from that row's start next
    // iteration; one holding no complete row grows until it reaches a
    // newline or the chunk end (ReadAt extends its buffer as needed).
    size_t want = static_cast<size_t>(std::min<uint64_t>(
        end - offset, state.config().read_buffer_bytes));
    Slice slab;
    while (true) {
      Status rs = reader.ReadAt(offset, want, &slab);
      if (!rs.ok()) {
        frag->io_status = rs;
        return;
      }
      indexer.Index(slab.data(), slab.size(), offset, &index);
      if (!index.newlines.empty() || offset + slab.size() >= end) break;
      want = static_cast<size_t>(std::min<uint64_t>(end - offset, want * 2));
    }

    // Stage 2: walk the newline list, cutting one row per entry. All
    // cursors advance monotonically; the slab's bytes stay valid until
    // the next ReadAt.
    const uint32_t slab_size = static_cast<uint32_t>(slab.size());
    size_t newline_cursor = 0;
    size_t delim_cursor = 0;
    size_t quote_cursor = 0;
    uint32_t row_rel = 0;  // slab-relative start of the current row
    while (true) {
      uint32_t line_end_rel;
      if (newline_cursor < index.newlines.size()) {
        line_end_rel = index.newlines[newline_cursor++];
      } else if (offset + slab_size >= end && row_rel < slab_size) {
        line_end_rel = slab_size;  // final row of the file, unterminated
      } else {
        break;  // no full row left in the slab
      }

      frag->row_starts.push_back(offset + row_rel);
      frag->end_cursor = offset + line_end_rel + 1;

      if (!attrs.empty()) {
        const Slice line(slab.data() + row_rel, line_end_rel - row_rel);
        uint32_t high;
        bool row_has_quote = false;
        if (quoting) {
          while (quote_cursor < index.quotes.size() &&
                 index.quotes[quote_cursor] < row_rel) {
            ++quote_cursor;
          }
          row_has_quote = quote_cursor < index.quotes.size() &&
                          index.quotes[quote_cursor] < line_end_rel;
        }
        if (row_has_quote) {
          high = tokenizer.ScanStarts(line, 0, 0, max_attr + 1,
                                      starts.data());
        } else {
          // CRLF tolerance at the record level, as in ScanStarts: a
          // trailing '\r' belongs to the terminator, so the field
          // cutter must never see a delimiter hiding inside it.
          uint32_t stripped = static_cast<uint32_t>(line.size());
          if (stripped > 0 && line[stripped - 1] == '\r') --stripped;
          high = simd::StructuralFieldStarts(index.delims, &delim_cursor,
                                             row_rel, row_rel + stripped,
                                             max_attr + 1, starts.data());
        }
        if (high < max_attr + 1) {
          // The serial scan reports the first requested attribute the
          // row cannot satisfy.
          uint32_t missing = max_attr;
          for (uint32_t attr : attrs) {
            if (attr >= high) {
              missing = attr;
              break;
            }
          }
          frag->parse_failed = true;
          frag->error_row = frag->row_starts.size() - 1;
          frag->error_suffix =
              " has " + std::to_string(high) + " fields, attribute " +
              std::to_string(missing) + " requested (file " +
              state.info().path + ")";
          return;
        }

        for (size_t j = 0; j < attrs.size(); ++j) {
          const uint32_t attr = attrs[j];
          frag->span_starts.push_back(starts[attr]);
          frag->span_ends.push_back(starts[attr + 1] - 1);
          if (!parse_values) continue;
          Slice raw =
              CsvTokenizer::RawField(line, starts[attr], starts[attr + 1]);
          Slice text = tokenizer.DecodeField(raw, &scratch);
          Status ps = ValueParser::ParseInto(text, schema.field(attr).type,
                                             frag->columns[j].get());
          if (!ps.ok()) {
            frag->parse_failed = true;
            frag->error_row = frag->row_starts.size() - 1;
            frag->error_suffix =
                ", attribute " + std::to_string(attr) + ": " + ps.message();
            return;
          }
        }
      }

      row_rel = line_end_rel + 1;
      if (row_rel >= slab_size) break;
    }
    offset += row_rel;
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
  const ComponentFlags flags = state->component_flags();
  const bool use_map = flags.map;
  const bool use_cache = flags.cache;
  const bool use_stats = flags.stats;
  const bool use_zones = config.enable_zone_maps;
  const bool parse_values =
      (use_cache || use_stats || use_zones) && !attrs.empty();
  const uint64_t zone_generation = state->zones().generation();

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

  ParallelScanStats out;
  out.threads = std::max<uint32_t>(1, num_threads);

  if (data_begin >= file_size) {
    if (use_map && state->map().known_rows() == 0) {
      state->map().PublishRowIndex({}, data_begin, file_size);
    }
    return out;
  }

  // Newline-aligned chunk boundaries: chunk i owns every row whose
  // start offset falls in [bounds[i], bounds[i+1]). With quoting
  // enabled a raw '\n' may sit inside a field, so boundary alignment
  // could split a record mid-quote: collapse to one chunk — a serial
  // walk that still builds every structure through the same merge.
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

  // Fork: one fragment per chunk, scanned by the pool.
  std::vector<Fragment> frags(bounds.size() - 1);
  {
    ThreadPool pool(out.threads);
    const RawTableState& cstate = *state;
    ParallelFor(&pool, frags.size(), [&](size_t i) {
      ScanChunk(cstate, attrs, parse_values, bounds[i], bounds[i + 1],
                &frags[i]);
    });
  }

  // Join, part 1: surface the earliest failure exactly as the serial
  // scan would, leaving the state untouched.
  uint64_t total_rows = 0;
  for (const Fragment& frag : frags) {
    if (!frag.io_status.ok()) return frag.io_status;
    if (frag.parse_failed) {
      return Status::ParseError(
          state->info().name + ": row " +
          std::to_string(total_rows + frag.error_row) + frag.error_suffix);
    }
    total_rows += frag.row_starts.size();
  }
  out.rows = total_rows;

  // Join, part 2: replay the fragments in file order, committing one
  // row-block at a time — the same order and granularity the serial
  // scan uses, so map chunks, cache segments, statistics and their LRU
  // recency come out identical.
  //
  // The merge holds the map's discovery baton so a concurrent serial
  // query cannot extend the row index underneath it: such queries wait
  // at their first undiscovered row and then find the whole file
  // published at once. Readers of already-published state never block.
  PositionalMap& map = state->map();
  PositionalMap::Discovery merge_baton(&map);
  if (use_map && map.known_rows() == 0 && !map.rows_complete()) {
    // The discovery cursor must be one past the last row's end — taken
    // from the last fragment that actually owns rows (trailing chunks
    // can be empty when boundary targets land inside one row).
    uint64_t cursor = data_begin;
    std::vector<uint64_t> row_starts;
    row_starts.reserve(total_rows);
    for (const Fragment& frag : frags) {
      row_starts.insert(row_starts.end(), frag.row_starts.begin(),
                        frag.row_starts.end());
      if (!frag.row_starts.empty()) cursor = frag.end_cursor;
    }
    map.PublishRowIndex(std::move(row_starts), cursor, file_size);
  }

  const uint32_t rows_per_block = config.rows_per_block;
  const size_t num_attrs = attrs.size();
  std::vector<std::unique_ptr<ColumnVector>> building(num_attrs);
  std::optional<PositionalMap::ChunkBuilder> builder;

  auto commit_block = [&](uint64_t block) {
    if (builder.has_value()) {
      if (builder->rows() > 0) map.CommitChunk(std::move(*builder));
      builder.reset();
    }
    for (size_t j = 0; j < num_attrs; ++j) {
      if (building[j] == nullptr || building[j]->size() == 0) {
        building[j].reset();
        continue;
      }
      std::shared_ptr<ColumnVector> segment(building[j].release());
      if (use_zones) {
        // First-touch pass over the whole file: every block's segment
        // provably covers it (the final partial block is the tail of
        // the just-published complete row index).
        bool covers =
            segment->size() >= rows_per_block ||
            (map.rows_complete() &&
             block * uint64_t{rows_per_block} + segment->size() ==
                 map.known_rows());
        if (covers) {
          state->zones().Observe(attrs[j], block, *segment,
                                 zone_generation);
        }
      }
      if (use_stats) {
        state->stats().ObserveBlock(attrs[j], block, *segment);
      }
      if (use_cache) {
        state->cache().Put(attrs[j], block, segment);
      }
    }
  };

  // Each fragment is walked in runs of rows that share one block, so
  // its parsed values are copied with one AppendRange per run.
  uint64_t row = 0;
  for (const Fragment& frag : frags) {
    const size_t frag_rows = frag.row_starts.size();
    for (size_t r = 0; r < frag_rows;) {
      if (row % rows_per_block == 0) {
        if (row > 0) commit_block(row / rows_per_block - 1);
        if (use_map && !attrs.empty()) {
          PositionalMap::BlockPlan plan = map.PrepareBlock(row, attrs);
          if (map.ShouldIndexCombination(plan)) {
            builder = map.StartChunk(row, attrs);
          }
        }
        if (parse_values) {
          for (size_t j = 0; j < num_attrs; ++j) {
            building[j] = std::make_unique<ColumnVector>(
                state->info().schema->field(attrs[j]).type);
            building[j]->Reserve(rows_per_block);
          }
        }
      }
      const size_t run = static_cast<size_t>(std::min<uint64_t>(
          frag_rows - r, rows_per_block - row % rows_per_block));
      if (builder.has_value()) {
        for (size_t k = r; k < r + run; ++k) {
          builder->AddRow(&frag.span_starts[k * num_attrs],
                          &frag.span_ends[k * num_attrs]);
        }
      }
      if (parse_values) {
        for (size_t j = 0; j < num_attrs; ++j) {
          building[j]->AppendRange(*frag.columns[j], r, run);
        }
      }
      r += run;
      row += run;
    }
  }
  if (row > 0) commit_block((row - 1) / rows_per_block);

  return out;
}

}  // namespace nodb
