#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/io.h"
#include "src/util/status.h"

/// \file edge_text.h
/// The edge-list text dialect and its one parser, shared by every text
/// front door: the strict reader (ReadEdgeList, src/graph/io.cpp), the
/// in-memory ingester (src/graph/ingest.cpp) and the out-of-core
/// conversion pipeline (src/ooc/convert.cpp). Each feeds newline-aligned
/// byte ranges through ParseEdgeTextChunk and folds the per-chunk
/// tallies in input order through EdgeTextTotals, so all three agree
/// line for line on what a dataset contains — same records, same
/// self-loops, same error lines. What to do with self-loops, duplicates,
/// the 32-bit ID limit and the node count stays with each caller.
///
/// The dialect: one "u v" record per line, two unsigned decimal fields
/// separated by spaces or tabs. Further columns (weights, timestamps)
/// are ignored, but each field must end at whitespace or end of line,
/// so "0 1x" is malformed. Lines whose first non-blank character is '#'
/// or '%' are comments; the first "# nodes N" (or "% nodes N") header
/// names the node count. Blank and whitespace-only lines are skipped,
/// and a CR before the LF counts as whitespace.

namespace trilist {

/// A raw parsed record, endpoints as written in the input.
using RawEdgeRecord = std::pair<uint64_t, uint64_t>;

/// What one parser chunk produced. Chunks are newline-aligned slices of
/// the input, so every counter composes by summation in chunk order.
struct EdgeTextChunk {
  std::vector<RawEdgeRecord> records;  ///< self-loops already dropped
  std::vector<uint64_t> loop_ids;  ///< endpoints of dropped self-loops
  size_t lines = 0;
  size_t comment_lines = 0;
  size_t blank_lines = 0;
  size_t edges_in = 0;
  size_t self_loops = 0;
  uint64_t max_id = 0;
  bool has_header = false;
  uint64_t header_nodes = 0;  ///< N of the chunk's first header
  bool has_error = false;
  size_t error_line = 0;  ///< chunk-local, 1-based
  std::string error_text;

  /// Resets the per-call output fields, keeping vector capacity — the
  /// streaming consumer reuses one chunk across the whole input.
  void Clear() {
    records.clear();
    loop_ids.clear();
    lines = 0;
    comment_lines = 0;
    blank_lines = 0;
    edges_in = 0;
    self_loops = 0;
    max_id = 0;
    has_header = false;
    header_nodes = 0;
    has_error = false;
    error_line = 0;
    error_text.clear();
  }
};

/// Parses the lines in [begin, end) into `out` (appending to its
/// tallies). `end` must be a line boundary or the end of the input.
/// Stops at the first malformed record, reporting it via has_error.
void ParseEdgeTextChunk(const char* begin, const char* end,
                        EdgeTextChunk* out);

/// The running totals of one input, its chunks folded in input order.
struct EdgeTextTotals {
  /// Line and record tallies; `max_input_id` is the largest ID seen,
  /// self-loops included. The output fields are the caller's to fill.
  IngestStats stats;
  bool has_header = false;
  uint64_t header_nodes = 0;  ///< N of the input's first header

  /// Folds in the next chunk. A chunk that stopped at a malformed record
  /// is InvalidArgument naming its line number within the whole input.
  Status Add(const EdgeTextChunk& chunk);
};

/// Parses an input that arrives in arbitrary blocks (stream reads, I/O
/// queue slots). Each block is cut at its last newline; the partial
/// line after it is carried over and completed by the next block.
class EdgeTextStream {
 public:
  /// Receives each parsed chunk once it is folded into totals().
  using ChunkFn = std::function<Status(const EdgeTextChunk&)>;

  /// Parses every line `block` completes.
  Status Feed(std::span<const char> block, const ChunkFn& consume);

  /// Parses the carried last line of an input without a final newline.
  Status Finish(const ChunkFn& consume);

  const EdgeTextTotals& totals() const { return totals_; }

 private:
  Status Parse(const char* begin, const char* end, const ChunkFn& consume);

  std::string carry_;
  EdgeTextChunk chunk_;
  EdgeTextTotals totals_;
};

}  // namespace trilist
