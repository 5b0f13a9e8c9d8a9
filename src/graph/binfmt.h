#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/mmap_file.h"
#include "src/graph/oriented_graph.h"
#include "src/order/pipeline.h"
#include "src/util/status.h"

/// \file binfmt.h
/// The `.tlg` binary graph container: ingest a dataset once, then load it
/// in milliseconds, zero-copy, with preprocessing already done.
///
/// Layout (version 1, all fields little-endian, sections 8-byte aligned):
///
///   FileHeader   (40 B)  magic "TLG1\r\n\x1a\n", version, section count,
///                        n, m, CRC-32 of the section table
///   SectionEntry (32 B each)  type, aux, absolute offset, byte length,
///                        CRC-32 of the payload
///   payloads             padded to 8-byte alignment
///
/// Section types:
///   kCsrOffsets    (n+1) x u64  CSR row offsets of the undirected graph
///   kCsrNeighbors  2m x u32     sorted adjacency
///   kDegrees       n x i64      degree sequence (index = node)
///   kOrientation   cached oriented CSR, keyed by OrientSpec (O, theta):
///                  a 24-byte sub-header (permutation code, seed, arc
///                  count) followed by out/in offsets (u64) and out/in
///                  neighbor + original-of arrays (u32)
///
/// Every section is covered by a CRC-32 (src/util/crc32.h) verified at
/// load time, and the loader bounds-checks every offset, length and node
/// ID before handing out views — a corrupt or truncated file yields a
/// clean Status error, never UB. Loading goes through MmapFile, so the
/// returned Graph / OrientedGraph objects are spans into the page cache
/// pinned by a shared handle; copies of them remain valid after the
/// TlgFile itself is destroyed.

namespace trilist {

/// Options for WriteTlgFile.
struct TlgWriteOptions {
  /// Orientations to precompute and embed, each keyed by its OrientSpec.
  /// Loading a `.tlg` that caches (O, theta) skips OrderPipeline
  /// preprocessing entirely: the stored CSR is bit-identical to a fresh
  /// OrientWithSpec run by construction.
  std::vector<OrientSpec> orientations;
  /// Concurrency of the embedded orientation builds (result identical
  /// for any value; see OrientedGraph::FromLabels).
  int threads = 1;
};

/// Serializes `g` (plus any requested cached orientations) to `path`.
/// Deterministic: the same graph and options always produce the same
/// output bytes.
Status WriteTlgFile(const Graph& g, const std::string& path,
                    const TlgWriteOptions& options = {});

/// Options for TlgFile::Open.
struct TlgLoadOptions {
  MmapFile::Backing backing = MmapFile::Backing::kAuto;
  /// Lazily-paging open: map with MADV_RANDOM instead of eager
  /// readahead, verify only the header and section table (payload CRCs
  /// and deep CSR validation would fault every page of the file, which
  /// is exactly what this mode exists to avoid), and hand out views that
  /// demand-page. Use for graphs much larger than RAM (src/ooc) or
  /// low-latency catalog serving; the payload integrity check is
  /// deferred to first access.
  bool paged = false;
};

/// \brief A loaded `.tlg` container: the graph, its degree sequence, and
/// any cached orientations, all as zero-copy views of the mapped file.
class TlgFile {
 public:
  /// Directory entry of one section, for `trilist_cli info`.
  struct SectionInfo {
    uint32_t type = 0;
    uint32_t aux = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc32 = 0;
  };

  /// Opens and fully validates `path`. All failure modes (missing file,
  /// wrong magic, unsupported version, truncation, CRC mismatch,
  /// out-of-bounds section, malformed CSR) return a Status error.
  static Result<TlgFile> Open(const std::string& path,
                              const TlgLoadOptions& options = {});

  /// The undirected graph (a view into the mapped file; copying the
  /// Graph keeps the mapping alive).
  const Graph& graph() const { return graph_; }

  /// The stored degree sequence; empty if the section is absent.
  std::span<const int64_t> degrees() const { return degrees_; }

  /// The cached orientation for `spec`, or nullptr when not embedded.
  const OrientedGraph* FindOrientation(const OrientSpec& spec) const;

  /// Keys of all cached orientations, in file order.
  const std::vector<OrientSpec>& orientation_specs() const {
    return orientation_specs_;
  }

  /// Section directory, in file order.
  const std::vector<SectionInfo>& sections() const { return sections_; }

  /// Format version of the file.
  uint32_t version() const { return version_; }
  /// True when the backing view is an actual mmap (vs the read fallback).
  bool mmap_backed() const { return file_ != nullptr && file_->is_mapped(); }
  /// Total container size in bytes.
  size_t file_size() const { return file_ != nullptr ? file_->size() : 0; }
  /// True when opened with TlgLoadOptions::paged.
  bool paged() const { return paged_; }
  /// The backing view (for advice introspection and page eviction);
  /// never null after a successful Open.
  const MmapFile* backing() const { return file_.get(); }

 private:
  std::shared_ptr<MmapFile> file_;
  bool paged_ = false;
  Graph graph_;
  std::span<const int64_t> degrees_;
  std::vector<OrientSpec> orientation_specs_;
  std::vector<OrientedGraph> orientations_;
  std::vector<SectionInfo> sections_;
  uint32_t version_ = 0;
};

/// Cheap sniff: true when `path` exists and starts with the `.tlg` magic.
/// Lets CLI subcommands accept either format through one --in flag.
bool LooksLikeTlgFile(const std::string& path);

/// Human-readable name of a section type ("csr_offsets", ...).
const char* TlgSectionTypeName(uint32_t type);

}  // namespace trilist
