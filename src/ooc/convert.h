#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/io.h"
#include "src/order/pipeline.h"
#include "src/util/status.h"

/// \file convert.h
/// Out-of-core edge-list → .tlg conversion under a hard memory budget.
///
/// The pipeline is semi-external in the sense of Abello et al.:
/// node-indexed arrays (degrees, labels, ranks — a few words per node)
/// stay resident, while every edge-sized structure (the raw records, the
/// CSR neighbor stream, oriented arc lists — 8-16 bytes per arc) lives
/// on disk and is only ever streamed. `mem_budget_bytes` governs the
/// edge-sized working set: sort runs, merge read buffers and I/O chunks
/// all come out of it, so a graph whose edge data is many times the
/// budget converts with peak RSS near the budget, not near the graph.
///
/// Stages (each priced separately in OocReport):
///   1. parse   — ChunkReader (O_DIRECT + pread worker queue) feeds the
///                shared tolerant parser; every kept record contributes
///                both directed arcs, packed (src << 32 | dst), to an
///                ExternalU64Sorter. Sorted runs spill to `tmpdir`.
///   2. merge   — k-way merge with fused dedupe. Because both arc
///                directions were inserted, the global u64 dedupe IS the
///                either-direction edge dedupe, and the merged stream in
///                (src, dst) order is the CSR neighbor stream verbatim.
///                Degrees accumulate on the fly; neighbors go to an
///                unlinked CSR temp file.
///   3. write   — TlgStreamWriter emits csr_offsets (prefix sums),
///                csr_neighbors (CSR temp replayed), degrees.
///   4. orient  — per requested orientation: labels from the
///                (degree, id) rank + positional permutation, then the
///                CSR temp is replayed once, splitting labeled arcs into
///                two more external sorts (out-arcs, in-arcs) whose
///                merged streams are the oriented CSR rows. Every
///                PermutationKind except kDegenerate (which needs the
///                whole graph for its core decomposition) is supported.
///
/// Output is byte-identical to Graph::FromEdges + WriteTlgFile on the
/// same input: same sections, same payloads, same CRCs. The one semantic
/// divergence from the in-memory ingester (src/graph/ingest.h) is
/// deliberate: sparse node IDs are NOT compacted — IDs are kept as
/// written and gaps become isolated nodes, because the rank-of-ID
/// relabel table is an edge-sized structure the budget disallows. For
/// compact inputs (IDs forming a prefix of the naturals — every dataset
/// this library ships experiments for) the two paths agree exactly.

namespace trilist::ooc {

/// Conversion knobs. The defaults convert any real graph; only
/// `mem_budget_bytes` and `tmpdir` matter operationally.
struct OocConvertOptions {
  /// Hard budget for edge-sized working memory (sort runs, merge
  /// buffers, I/O chunks). Node-indexed arrays are exempt (see file
  /// comment). Floor 1 MiB.
  uint64_t mem_budget_bytes = 256ull << 20;
  /// Directory for spill + CSR temp files (all unlinked at creation, so
  /// crashes leave no debris). Must have free space for roughly
  /// 24 bytes/edge plus 16 bytes/edge per orientation; Convert checks
  /// this up front via statvfs and fails fast with a clear message
  /// instead of dying mid-sort on ENOSPC.
  std::string tmpdir = "/tmp";
  /// pread workers for the input reader.
  int io_workers = 2;
  /// Read chunk size and queue depth (reader memory = chunk * depth).
  size_t chunk_bytes = 1 << 20;
  int queue_depth = 4;
  /// Try O_DIRECT for the input scan (transparent fallback).
  bool direct_io = true;
  /// Orientations to embed; kDegenerate is rejected.
  std::vector<OrientSpec> orientations;
  /// Test hook: pretend statvfs reported this many free bytes in
  /// `tmpdir` (0 = ask the filesystem).
  uint64_t free_bytes_override = 0;
  /// Test hook: forwarded to TlgStreamWriter — fail the Nth output byte.
  uint64_t debug_fail_after_bytes = 0;
};

/// What a conversion did: the familiar ingest tallies plus the
/// out-of-core byte ledger, per stage.
struct OocReport {
  IngestStats ingest;          ///< Same semantics as the in-memory path.
  uint64_t mem_budget_bytes = 0;
  bool direct_io = false;      ///< O_DIRECT actually in effect.
  int64_t input_bytes = 0;     ///< Edge-list bytes scanned.
  int64_t spill_runs = 0;      ///< Sorted runs spilled (all sorters).
  int64_t spill_bytes = 0;     ///< Bytes written to spill files.
  int64_t csr_temp_bytes = 0;  ///< CSR neighbor temp file size.
  int64_t output_bytes = 0;    ///< Final .tlg size.
  double parse_seconds = 0;
  double merge_seconds = 0;
  double write_seconds = 0;
  double orient_seconds = 0;
  double total_seconds = 0;

  /// Serializes the report as a JSON object (for `convert --report`).
  std::string ToJson() const;
};

/// Converts `input_path` (edge-list text) to `output_path` (.tlg v1)
/// without ever materializing the graph in memory. See the file comment
/// for the pipeline and the budget contract.
Result<OocReport> OocConvertFile(const std::string& input_path,
                                 const std::string& output_path,
                                 const OocConvertOptions& options = {});

/// The up-front tmpdir free-space check, exposed for tests and for the
/// CLI's dry-run diagnostics: projects total temp usage from the input
/// size (sampling average line length from the file's head) and fails
/// with InvalidArgument naming both numbers when the projection does not
/// fit. `free_bytes_override` substitutes for statvfs when nonzero.
Status CheckTmpdirSpace(const std::string& input_path,
                        const std::string& tmpdir, size_t num_orientations,
                        uint64_t free_bytes_override = 0);

}  // namespace trilist::ooc
