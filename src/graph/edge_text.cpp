#include "src/graph/edge_text.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>

namespace trilist {

namespace {

bool IsSep(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Parses one unsigned field at `p` (within [p, end)), returns the
/// position past the field or nullptr on failure. Requires the field to
/// be terminated by whitespace or end-of-line so "12abc" is malformed.
const char* ParseField(const char* p, const char* end, uint64_t* out) {
  const auto [ptr, ec] = std::from_chars(p, end, *out);
  if (ec != std::errc() || ptr == p) return nullptr;
  if (ptr != end && !IsSep(*ptr)) return nullptr;
  return ptr;
}

}  // namespace

void ParseEdgeTextChunk(const char* begin, const char* end,
                        EdgeTextChunk* r) {
  const char* p = begin;
  while (p < end) {
    const char* nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* line_end = nl != nullptr ? nl : end;
    ++r->lines;
    const char* s = p;
    while (s < line_end && IsSep(*s)) ++s;
    if (s == line_end) {
      ++r->blank_lines;
    } else if (*s == '#' || *s == '%') {
      ++r->comment_lines;
      // Recognize the "nodes N" header our own writer emits.
      ++s;
      while (s < line_end && IsSep(*s)) ++s;
      static constexpr char kWord[] = "nodes";
      if (line_end - s > 5 && std::memcmp(s, kWord, 5) == 0 &&
          IsSep(s[5])) {
        s += 5;
        while (s < line_end && IsSep(*s)) ++s;
        uint64_t n = 0;
        if (!r->has_header && ParseField(s, line_end, &n) != nullptr) {
          r->has_header = true;
          r->header_nodes = n;
        }
      }
    } else {
      uint64_t u = 0;
      uint64_t v = 0;
      const char* after_u = ParseField(s, line_end, &u);
      const char* q = after_u;
      if (q != nullptr) {
        while (q < line_end && IsSep(*q)) ++q;
        q = ParseField(q, line_end, &v);
      }
      if (q == nullptr) {
        r->has_error = true;
        r->error_line = r->lines;
        r->error_text.assign(p, line_end);
        return;
      }
      // Anything after the second field (weights, timestamps) is ignored.
      ++r->edges_in;
      r->max_id = std::max({r->max_id, u, v});
      if (u == v) {
        ++r->self_loops;
        // The record is dropped but its endpoint still names a node, so
        // a vertex whose only incident records are self-loops survives
        // as an isolated node instead of vanishing.
        r->loop_ids.push_back(u);
      } else {
        r->records.emplace_back(u, v);
      }
    }
    if (nl == nullptr) break;
    p = nl + 1;
  }
}

Status EdgeTextTotals::Add(const EdgeTextChunk& chunk) {
  if (chunk.has_error) {
    return Status::InvalidArgument(
        "malformed edge at line " +
        std::to_string(stats.lines + chunk.error_line) + ": '" +
        chunk.error_text + "'");
  }
  stats.lines += chunk.lines;
  stats.comment_lines += chunk.comment_lines;
  stats.blank_lines += chunk.blank_lines;
  stats.edges_in += chunk.edges_in;
  stats.self_loops_dropped += chunk.self_loops;
  stats.max_input_id = std::max(stats.max_input_id, chunk.max_id);
  if (chunk.has_header && !has_header) {
    has_header = true;
    header_nodes = chunk.header_nodes;
  }
  return Status::OK();
}

Status EdgeTextStream::Feed(std::span<const char> block,
                            const ChunkFn& consume) {
  const char* begin = block.data();
  const char* end = begin + block.size();
  const auto last_nl = std::find(std::make_reverse_iterator(end),
                                 std::make_reverse_iterator(begin), '\n');
  if (last_nl.base() == begin) {
    carry_.append(begin, end);
    return Status::OK();
  }
  const char* lines_end = last_nl.base();  // one past the last newline
  if (!carry_.empty()) {
    // Complete the carried line and parse it on its own.
    const char* first_end =
        static_cast<const char*>(std::memchr(begin, '\n', block.size())) + 1;
    carry_.append(begin, first_end);
    TRILIST_RETURN_NOT_OK(
        Parse(carry_.data(), carry_.data() + carry_.size(), consume));
    begin = first_end;
  }
  if (begin < lines_end) {
    TRILIST_RETURN_NOT_OK(Parse(begin, lines_end, consume));
  }
  carry_.assign(lines_end, end);
  return Status::OK();
}

Status EdgeTextStream::Finish(const ChunkFn& consume) {
  if (carry_.empty()) return Status::OK();
  const Status status =
      Parse(carry_.data(), carry_.data() + carry_.size(), consume);
  carry_.clear();
  return status;
}

Status EdgeTextStream::Parse(const char* begin, const char* end,
                             const ChunkFn& consume) {
  chunk_.Clear();
  ParseEdgeTextChunk(begin, end, &chunk_);
  TRILIST_RETURN_NOT_OK(totals_.Add(chunk_));
  return consume(chunk_);
}

}  // namespace trilist
