#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

/// \file binfmt_stream.h
/// The `.tlg` writer. Every container is written here: WriteTlgFile
/// (src/graph/binfmt.h) appends in-memory spans, and the out-of-core
/// converter (src/ooc/convert.h) streams sections it never holds in RAM
/// whole, so a graph much larger than memory can be serialized while
/// the producer holds only its merge buffers.
///
/// The section directory is declared up front (types and exact byte
/// lengths, from tlg::SectionPlan), payload bytes are appended strictly
/// in directory order, and per-section CRCs are folded in on the fly.
/// The directory and header are written at Finish() — header last — and
/// the file is fsynced, so a file abandoned mid-write (crash, ENOSPC,
/// kill -9) never carries the `.tlg` magic and can never load as a
/// half-valid graph; a file truncated *after* Finish is caught by the
/// loader's bounds and CRC checks.

namespace trilist {

/// One planned section: its type/aux key and exact payload length.
struct TlgStreamSectionPlan {
  uint32_t type = 0;
  uint32_t aux = 0;
  uint64_t length = 0;
};

/// Writer knobs.
struct TlgStreamWriterOptions {
  /// Fault injection for tests: when > 0, any write that would grow the
  /// file past this many bytes fails with an Internal status, simulating
  /// a full disk mid-stream. 0 disables.
  uint64_t debug_fail_after_bytes = 0;
};

/// \brief Streams one `.tlg` container to disk, section by section.
class TlgStreamWriter {
 public:
  /// Creates `path` (truncating) and lays the sections out after the
  /// header and directory, which Finish() fills in. `plan` fixes the
  /// sections in file order; every section's payload must subsequently
  /// be appended, exactly `length` bytes each.
  static Result<TlgStreamWriter> Create(
      const std::string& path, uint64_t num_nodes, uint64_t num_edges,
      std::vector<TlgStreamSectionPlan> plan,
      const TlgStreamWriterOptions& options = {});

  TlgStreamWriter() = default;
  ~TlgStreamWriter();
  TlgStreamWriter(TlgStreamWriter&& other) noexcept;
  TlgStreamWriter& operator=(TlgStreamWriter&& other) noexcept;
  TlgStreamWriter(const TlgStreamWriter&) = delete;
  TlgStreamWriter& operator=(const TlgStreamWriter&) = delete;

  /// Appends payload bytes. Bytes are attributed to sections in plan
  /// order; a call may span section boundaries (alignment padding is
  /// inserted automatically between sections). Appending more than the
  /// planned total is an error.
  Status Append(const void* data, size_t len);

  /// Completes the file: requires every planned section to be fully
  /// appended, then writes the directory (with the accumulated CRCs)
  /// and finally the header. Idempotent close; the writer is unusable
  /// afterwards.
  Status Finish();

 private:
  Status WriteAt(const void* data, size_t len, uint64_t offset);
  void CloseFd();

  int fd_ = -1;
  std::string path_;
  uint64_t num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  std::vector<TlgStreamSectionPlan> plan_;
  std::vector<uint32_t> crcs_;        // per section, folded on the fly
  std::vector<uint64_t> offsets_;     // absolute section offsets
  size_t current_ = 0;                // section currently being filled
  uint64_t in_section_ = 0;           // bytes appended to current section
  uint64_t file_end_ = 0;             // size the writes so far imply
  uint64_t fail_after_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace trilist
