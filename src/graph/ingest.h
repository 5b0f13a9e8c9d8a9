#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/io.h"
#include "src/util/status.h"

/// \file ingest.h
/// Tolerant, chunked, parallel text-edge-list ingestion — the front door
/// for real datasets (SNAP, KONECT, WebGraph dumps) whose files routinely
/// contain duplicate edges (often once per direction), self-loops, sparse
/// or huge node IDs, CRLF endings, tab separators and trailing columns
/// (weights, timestamps).
///
/// The input is split at newline boundaries into chunks parsed in
/// parallel (src/util/parallel_for.h) by the shared dialect parser of
/// src/graph/edge_text.h; normalization
/// (compact relabeling of sparse IDs, canonicalization, deduplication,
/// self-loop removal) is deterministic for every thread count, so the
/// same input bytes always produce the same Graph — the property the
/// `convert` CLI relies on for reproducible `.tlg` artifacts. Dropped
/// self-loops still contribute their endpoint to the node universe, so a
/// node incident only to self-loops survives as an isolated node.
///
/// The first "# nodes N" (or "% nodes N") header is honored when the input IDs
/// are already compact within [0, N), preserving isolated nodes; sparse
/// inputs are relabeled by ascending original ID and the header ignored.

namespace trilist {

/// Knobs for the ingester.
struct IngestOptions {
  /// Parser concurrency; <= 1 runs single-threaded. The result is
  /// identical for any value.
  int threads = 1;
};

/// A normalized graph plus the provenance needed to interpret it.
struct IngestedGraph {
  Graph graph;
  /// original_id[v] = the input's node ID for compact node v, ascending.
  /// Identity (0..n-1) when the input was already compact.
  std::vector<uint64_t> original_id;
  IngestStats stats;
};

/// Ingests an in-memory edge-list text. Lines must be '\n'-separated
/// ('\r\n' accepted); a record is two unsigned integers, any further
/// fields on the line are ignored. Malformed records are InvalidArgument
/// with a line number.
Result<IngestedGraph> IngestEdgeList(std::string_view text,
                                     const IngestOptions& options = {});

/// File variant: maps the file read-only (falling back to read(); see
/// src/graph/mmap_file.h) and ingests it without copying the text.
Result<IngestedGraph> IngestEdgeListFile(const std::string& path,
                                         const IngestOptions& options = {});

}  // namespace trilist
