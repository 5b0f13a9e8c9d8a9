#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/graph/graph.h"
#include "src/util/status.h"

/// \file io.h
/// Plain-text edge-list serialization, the lingua franca of graph datasets
/// (SNAP, KONECT, the Twitter crawl of Section 7.5 all ship this way).
///
/// The text dialect (comments, the "# nodes N" header, separators) is
/// the one src/graph/edge_text.h defines for every text front door.
/// ReadEdgeList is its strict reader: it enforces the library's
/// simple-graph contract and is the round-trip inverse of WriteEdgeList.
/// Real dataset dumps (duplicates, self-loops, sparse IDs) go through the
/// tolerant ingester in src/graph/ingest.h instead.

namespace trilist {

/// What an ingest or out-of-core convert run saw and did. All counters
/// refer to the input; `num_nodes` / `num_edges` describe the normalized
/// output.
struct IngestStats {
  size_t lines = 0;               ///< Total input lines.
  size_t comment_lines = 0;       ///< '#'/'%' lines (headers included).
  size_t blank_lines = 0;         ///< Empty or whitespace-only lines.
  size_t edges_in = 0;            ///< Parsed "u v" records.
  size_t self_loops_dropped = 0;  ///< Records with u == v.
  size_t duplicates_dropped = 0;  ///< Repeats of an edge, either direction.
  uint64_t max_input_id = 0;      ///< Largest node ID seen in the input.
  bool relabeled = false;         ///< Input IDs were compacted to [0, n).
  size_t num_nodes = 0;           ///< Nodes in the normalized graph.
  size_t num_edges = 0;           ///< Edges in the normalized graph.

  /// One-line human-readable summary for CLI reports.
  std::string Summary() const;
};

/// Writes `g` as an edge list with a "# nodes N" header. Each undirected
/// edge appears once as "u v" with u < v.
void WriteEdgeList(const Graph& g, std::ostream* out);

/// Parses an edge list. Malformed lines, self-loops and duplicate edges
/// (either direction) are InvalidArgument, an ID at or above 2^32 - 1 is
/// OutOfRange and a stream read error is Internal. The node count is the
/// first header's N, else max ID + 1; with a header, an ID >= N is an
/// error.
Result<Graph> ReadEdgeList(std::istream* in);

/// Convenience file wrappers. Reading requires a regular file.
Status WriteEdgeListFile(const Graph& g, const std::string& path);
Result<Graph> ReadEdgeListFile(const std::string& path);

}  // namespace trilist
