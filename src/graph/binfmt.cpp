#include "src/graph/binfmt.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/graph/binfmt_layout.h"
#include "src/graph/binfmt_stream.h"
#include "src/obs/trace.h"
#include "src/util/crc32.h"

namespace trilist {

// The on-disk structs, constants and section plan live in
// binfmt_layout.h; the bytes themselves are written by TlgStreamWriter.
using namespace tlg;  // NOLINT(build/namespaces)

namespace {

// The container is defined as little-endian with 64-bit offsets viewed
// in place as size_t; both hold on every platform this library targets.
static_assert(sizeof(size_t) == sizeof(uint64_t),
              ".tlg zero-copy loading requires 64-bit size_t");

Status CorruptError(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("corrupt .tlg file " + path + ": " + what);
}

/// Bounds-checked typed view of a byte sub-range of the mapped file.
/// Alignment is guaranteed by the 8-byte section alignment plus the
/// layout of each section (64-bit arrays precede 32-bit ones).
template <typename T>
std::span<const T> TypedView(std::span<const std::byte> bytes,
                             size_t offset, size_t count) {
  return {reinterpret_cast<const T*>(bytes.data() + offset), count};
}

/// Validates one CSR half: offsets monotone from 0 to `expected_total`,
/// every row sorted strictly ascending with IDs below `num_nodes`.
Status ValidateCsr(std::span<const size_t> offsets,
                   std::span<const NodeId> neighbors, uint64_t num_nodes,
                   const std::string& path, const char* what) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size()) {
    return CorruptError(path, std::string(what) + " offsets malformed");
  }
  // Full monotonicity first: only then is offsets[i + 1] <= back() a safe
  // bound for the row scans below.
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return CorruptError(path,
                          std::string(what) + " offsets not monotone");
    }
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      if (neighbors[j] >= num_nodes) {
        return CorruptError(path,
                            std::string(what) + " neighbor out of range");
      }
      if (j > offsets[i] && neighbors[j - 1] >= neighbors[j]) {
        return CorruptError(path,
                            std::string(what) + " row not sorted");
      }
    }
  }
  return Status::OK();
}

}  // namespace

const char* TlgSectionTypeName(uint32_t type) {
  switch (type) {
    case kSecCsrOffsets: return "csr_offsets";
    case kSecCsrNeighbors: return "csr_neighbors";
    case kSecDegrees: return "degrees";
    case kSecOrientation: return "orientation";
    default: return "unknown";
  }
}

Status WriteTlgFile(const Graph& g, const std::string& path,
                    const TlgWriteOptions& options) {
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  // A default-constructed Graph has an empty offsets array; serialize it
  // as the canonical empty graph (offsets = {0}).
  static constexpr size_t kZeroOffset = 0;
  const std::span<const size_t> offsets =
      g.RawOffsets().empty() ? std::span<const size_t>(&kZeroOffset, 1)
                             : g.RawOffsets();
  Result<TlgStreamWriter> writer = TlgStreamWriter::Create(
      path, n, m,
      SectionPlan(n, m, options.orientations.size()));
  if (!writer.ok()) return writer.status();
  TlgStreamWriter& w = writer.ValueOrDie();
  TRILIST_RETURN_NOT_OK(w.Append(offsets.data(), offsets.size_bytes()));
  TRILIST_RETURN_NOT_OK(w.Append(g.RawNeighbors().data(),
                                 g.RawNeighbors().size_bytes()));
  const std::vector<int64_t> degrees = g.Degrees();
  TRILIST_RETURN_NOT_OK(
      w.Append(degrees.data(), degrees.size() * sizeof(int64_t)));
  // One orientation alive at a time; each build is deterministic for
  // any thread count, so `convert` output is reproducible byte for byte.
  for (const OrientSpec& spec : options.orientations) {
    const OrientedGraph og = OrientWithSpec(g, spec, options.threads);
    const OrientHeader header = MakeOrientHeader(spec, m);
    TRILIST_RETURN_NOT_OK(w.Append(&header, sizeof(header)));
    TRILIST_RETURN_NOT_OK(w.Append(og.RawOutOffsets().data(),
                                   og.RawOutOffsets().size_bytes()));
    TRILIST_RETURN_NOT_OK(w.Append(og.RawInOffsets().data(),
                                   og.RawInOffsets().size_bytes()));
    TRILIST_RETURN_NOT_OK(w.Append(og.RawOutNeighbors().data(),
                                   og.RawOutNeighbors().size_bytes()));
    TRILIST_RETURN_NOT_OK(w.Append(og.RawInNeighbors().data(),
                                   og.RawInNeighbors().size_bytes()));
    TRILIST_RETURN_NOT_OK(w.Append(og.original_of().data(),
                                   og.original_of().size_bytes()));
  }
  return w.Finish();
}

const OrientedGraph* TlgFile::FindOrientation(const OrientSpec& spec) const {
  for (size_t i = 0; i < orientation_specs_.size(); ++i) {
    if (orientation_specs_[i] == spec) return &orientations_[i];
  }
  return nullptr;
}

Result<TlgFile> TlgFile::Open(const std::string& path,
                              const TlgLoadOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(".tlg loading requires a little-endian "
                                  "host");
  }
  // Paged opens demand-page: no readahead hint, and the payload checks
  // below are skipped (they would touch every byte of the file).
  const bool paged = options.paged;
  auto file = MmapFile::Open(path, options.backing,
                             paged ? MmapFile::Advice::kPaged
                                   : MmapFile::Advice::kEager);
  if (!file.ok()) return file.status();
  TlgFile out;
  out.paged_ = paged;
  out.file_ = std::make_shared<MmapFile>(std::move(file).ValueOrDie());
  const std::span<const std::byte> bytes = out.file_->bytes();

  if (bytes.size() < sizeof(FileHeader)) {
    return CorruptError(path, "shorter than the 40-byte header");
  }
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a .tlg file (bad magic): " + path);
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument(
        "unsupported .tlg version " + std::to_string(header.version) +
        " in " + path);
  }
  out.version_ = header.version;
  const uint64_t n = header.num_nodes;
  const uint64_t m = header.num_edges;
  if (n >= std::numeric_limits<NodeId>::max()) {
    return CorruptError(path, "node count exceeds 32-bit ID space");
  }

  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (table_bytes > bytes.size() - sizeof(FileHeader)) {
    return CorruptError(path, "section table extends past end of file");
  }
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(FileHeader),
              table_bytes);
  // The directory CRC is always cheap (32 B per section), so paged opens
  // keep it; only the payload passes below are skipped.
  if (Crc32Update(0, table.data(), table_bytes) != header.table_crc) {
    return CorruptError(path, "section table CRC mismatch");
  }

  // Bounds-check every directory entry before touching any payload.
  for (const SectionEntry& e : table) {
    if (e.offset % 8 != 0) {
      return CorruptError(path, "section offset not 8-byte aligned");
    }
    if (e.offset > bytes.size() || e.length > bytes.size() - e.offset) {
      return CorruptError(path, "section extends past end of file");
    }
  }
  if (!paged) {
    // The sweep reads every payload byte; traced on its own so a run's
    // load stage splits into CRC and validation.
    obs::TraceSpan span("tlg.verify");
    span.Arg("file_bytes", static_cast<int64_t>(bytes.size()));
    for (const SectionEntry& e : table) {
      const uint32_t got =
          Crc32Update(0, bytes.data() + e.offset, e.length);
      if (got != e.crc32) {
        return CorruptError(
            path, std::string(TlgSectionTypeName(e.type)) +
                      " section CRC mismatch");
      }
    }
  }
  out.sections_.reserve(table.size());
  for (const SectionEntry& e : table) {
    out.sections_.push_back({e.type, e.aux, e.offset, e.length, e.crc32});
  }

  // Locate and wire the mandatory CSR sections.
  const SectionEntry* sec_offsets = nullptr;
  const SectionEntry* sec_neighbors = nullptr;
  for (const SectionEntry& e : table) {
    if (e.type == kSecCsrOffsets) sec_offsets = &e;
    if (e.type == kSecCsrNeighbors) sec_neighbors = &e;
  }
  if (sec_offsets == nullptr || sec_neighbors == nullptr) {
    return CorruptError(path, "missing CSR sections");
  }
  // Reject counts whose sections could not possibly fit in the file
  // BEFORE any length arithmetic: with m near 2^62 an expression like
  // `2 * m * sizeof(NodeId)` below (and in OrientationSectionLength)
  // wraps mod 2^64, so a forged header could otherwise
  // pass every length/bounds/CRC check with a tiny section and hand the
  // validator a ~2^62-element view (the CRC is not a defense — it is
  // trivially recomputable by an attacker).
  if (m > bytes.size() / (2 * sizeof(NodeId))) {
    return CorruptError(path, "edge count impossible for file size");
  }
  if (n + 1 > bytes.size() / sizeof(uint64_t)) {
    return CorruptError(path, "node count impossible for file size");
  }
  if (sec_offsets->length != (n + 1) * sizeof(uint64_t)) {
    return CorruptError(path, "csr_offsets length disagrees with header");
  }
  if (sec_neighbors->length != 2 * m * sizeof(NodeId)) {
    return CorruptError(path,
                        "csr_neighbors length disagrees with header");
  }
  const auto offsets =
      TypedView<size_t>(bytes, sec_offsets->offset, n + 1);
  const auto neighbors =
      TypedView<NodeId>(bytes, sec_neighbors->offset, 2 * m);
  if (!paged) {
    TRILIST_RETURN_NOT_OK(
        ValidateCsr(offsets, neighbors, n, path, "graph"));
  }
  out.graph_ = Graph::FromCsrView(offsets, neighbors, out.file_);

  // Optional degree-sequence and orientation sections.
  for (const SectionEntry& e : table) {
    if (e.type == kSecDegrees) {
      if (e.length != n * sizeof(int64_t)) {
        return CorruptError(path, "degrees length disagrees with header");
      }
      out.degrees_ = TypedView<int64_t>(bytes, e.offset, n);
      if (!paged) {
        for (uint64_t v = 0; v < n; ++v) {
          if (out.degrees_[v] !=
              static_cast<int64_t>(offsets[v + 1] - offsets[v])) {
            return CorruptError(path, "degrees disagree with CSR");
          }
        }
      }
    } else if (e.type == kSecOrientation) {
      if (e.length < sizeof(OrientHeader)) {
        return CorruptError(path, "orientation section too short");
      }
      OrientHeader oh;
      std::memcpy(&oh, bytes.data() + e.offset, sizeof(oh));
      PermutationKind kind;
      if (!PermKindFromCode(oh.perm_code, &kind)) {
        return CorruptError(path, "unknown orientation permutation code");
      }
      if (oh.num_arcs != m) {
        return CorruptError(path,
                            "orientation arc count disagrees with header");
      }
      if (e.length != OrientationSectionLength(n, m)) {
        return CorruptError(path, "orientation section length mismatch");
      }
      // 64-bit arrays first, then the 32-bit ones, so every view is
      // naturally aligned within the 8-byte-aligned section.
      uint64_t at = e.offset + sizeof(OrientHeader);
      const auto out_offsets = TypedView<size_t>(bytes, at, n + 1);
      at += (n + 1) * sizeof(uint64_t);
      const auto in_offsets = TypedView<size_t>(bytes, at, n + 1);
      at += (n + 1) * sizeof(uint64_t);
      const auto out_neighbors = TypedView<NodeId>(bytes, at, m);
      at += m * sizeof(NodeId);
      const auto in_neighbors = TypedView<NodeId>(bytes, at, m);
      at += m * sizeof(NodeId);
      const auto original_of = TypedView<NodeId>(bytes, at, n);
      if (!paged) {
        TRILIST_RETURN_NOT_OK(ValidateCsr(out_offsets, out_neighbors, n,
                                          path, "orientation out"));
        TRILIST_RETURN_NOT_OK(ValidateCsr(in_offsets, in_neighbors, n,
                                          path, "orientation in"));
        for (uint64_t i = 0; i < n; ++i) {
          // The acyclic-orientation invariant the listing kernels assume:
          // out-rows below the node, in-rows above it.
          const auto row_out = out_offsets[i + 1];
          if (row_out > out_offsets[i] &&
              out_neighbors[row_out - 1] >= i) {
            return CorruptError(path, "orientation out-arc not downward");
          }
          if (in_offsets[i + 1] > in_offsets[i] &&
              in_neighbors[in_offsets[i]] <= i) {
            return CorruptError(path, "orientation in-arc not upward");
          }
          if (original_of[i] >= n) {
            return CorruptError(path,
                                "orientation original-of out of range");
          }
        }
      }
      out.orientation_specs_.push_back(OrientSpec{kind, oh.seed});
      out.orientations_.push_back(OrientedGraph::FromCsrView(
          out_offsets, out_neighbors, in_offsets, in_neighbors,
          original_of, out.file_));
    }
  }
  return out;
}

bool LooksLikeTlgFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8];
  const bool ok = std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
                  std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace trilist
