#include "src/graph/io.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/graph/edge_text.h"

namespace trilist {

std::string IngestStats::Summary() const {
  std::ostringstream out;
  out << lines << " lines (" << comment_lines << " comments, "
      << blank_lines << " blank), " << edges_in << " edge records -> "
      << num_edges << " edges over " << num_nodes << " nodes";
  if (self_loops_dropped > 0 || duplicates_dropped > 0) {
    out << " (dropped " << self_loops_dropped << " self-loops, "
        << duplicates_dropped << " duplicates)";
  }
  if (relabeled) {
    out << ", sparse IDs relabeled (max input ID " << max_input_id << ")";
  }
  return out.str();
}

void WriteEdgeList(const Graph& g, std::ostream* out) {
  *out << "# nodes " << g.num_nodes() << "\n";
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(static_cast<NodeId>(u))) {
      if (v > u) *out << u << " " << v << "\n";
    }
  }
}

Result<Graph> ReadEdgeList(std::istream* in) {
  // Fixed blocks keep the text out of memory: only the edges accumulate.
  constexpr size_t kBlockBytes = 1 << 20;
  constexpr uint64_t kIdLimit = std::numeric_limits<NodeId>::max();
  const auto block = std::make_unique_for_overwrite<char[]>(kBlockBytes);
  std::vector<Edge> edges;
  const auto narrow = [&](const EdgeTextChunk& chunk) -> Status {
    if (!chunk.loop_ids.empty()) {
      return Status::InvalidArgument(
          "self-loop not allowed in simple graph: node " +
          std::to_string(chunk.loop_ids.front()));
    }
    if (chunk.max_id >= kIdLimit) {
      return Status::OutOfRange(
          "graph too large for 32-bit node IDs: saw node " +
          std::to_string(chunk.max_id));
    }
    for (const RawEdgeRecord& e : chunk.records) {
      edges.emplace_back(static_cast<NodeId>(e.first),
                         static_cast<NodeId>(e.second));
    }
    return Status::OK();
  };
  EdgeTextStream text;
  do {
    in->read(block.get(), kBlockBytes);
    TRILIST_RETURN_NOT_OK(text.Feed(
        {block.get(), static_cast<size_t>(in->gcount())}, narrow));
  } while (*in);
  if (in->bad()) return Status::Internal("edge-list stream read failed");
  TRILIST_RETURN_NOT_OK(text.Finish(narrow));

  const EdgeTextTotals& totals = text.totals();
  uint64_t num_nodes = 0;
  if (totals.has_header) {
    num_nodes = totals.header_nodes;
  } else if (totals.stats.edges_in > 0) {
    num_nodes = totals.stats.max_input_id + 1;
  }
  if (num_nodes >= kIdLimit) {
    return Status::OutOfRange("graph too large for 32-bit node IDs: " +
                              std::to_string(num_nodes) + " nodes");
  }
  return Graph::FromEdges(num_nodes, edges);
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  WriteEdgeList(g, &out);
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<Graph> ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open for reading: " + path);
  }
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  return ReadEdgeList(&in);
}

}  // namespace trilist
