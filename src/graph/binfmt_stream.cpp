#include "src/graph/binfmt_stream.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/graph/binfmt_layout.h"
#include "src/util/crc32.h"

namespace trilist {

using namespace tlg;  // NOLINT(build/namespaces)

Result<TlgStreamWriter> TlgStreamWriter::Create(
    const std::string& path, uint64_t num_nodes, uint64_t num_edges,
    std::vector<TlgStreamSectionPlan> plan,
    const TlgStreamWriterOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(".tlg writing requires a little-endian "
                                  "host");
  }
  TlgStreamWriter w;
  w.path_ = path;
  w.num_nodes_ = num_nodes;
  w.num_edges_ = num_edges;
  w.fail_after_bytes_ = options.debug_fail_after_bytes;
  w.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
  if (w.fd_ < 0) {
    return Status::InvalidArgument("cannot open for writing: " + path +
                                   ": " + std::strerror(errno));
  }
  // Sections start 8-byte aligned after the header and directory. Every
  // write is positioned, so the header, directory and alignment gaps
  // stay zero until Finish() fills the first two: the magic arrives
  // last, and an interrupted stream is never a valid `.tlg`.
  uint64_t cursor =
      sizeof(FileHeader) + plan.size() * sizeof(SectionEntry);
  w.offsets_.reserve(plan.size());
  for (const TlgStreamSectionPlan& p : plan) {
    cursor = AlignUp8(cursor);
    w.offsets_.push_back(cursor);
    cursor += p.length;
  }
  w.crcs_.assign(plan.size(), 0);
  w.plan_ = std::move(plan);
  return w;
}

Status TlgStreamWriter::WriteAt(const void* data, size_t len,
                                uint64_t offset) {
  // Only growth counts against the fault budget: the directory and
  // header land over bytes the payload offsets already imply.
  const uint64_t end = std::max<uint64_t>(file_end_, offset + len);
  if (fail_after_bytes_ != 0 && end > fail_after_bytes_) {
    return Status::Internal("write failed: " + path_ +
                            ": No space left on device (injected)");
  }
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < len) {
    const ssize_t got = ::pwrite(fd_, p + done, len - done,
                                 static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write failed: " + path_ + ": " +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(got);
  }
  file_end_ = end;
  return Status::OK();
}

Status TlgStreamWriter::Append(const void* data, size_t len) {
  if (fd_ < 0 || finished_) {
    return Status::Internal("TlgStreamWriter: append after close");
  }
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    if (current_ >= plan_.size()) {
      return Status::InvalidArgument(
          "TlgStreamWriter: appended past the planned sections");
    }
    if (plan_[current_].length == 0) {
      ++current_;
      continue;
    }
    // Writing at the section's aligned offset leaves the padding before
    // it as a gap, which reads back as zeros.
    const uint64_t room = plan_[current_].length - in_section_;
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(room, len));
    TRILIST_RETURN_NOT_OK(
        WriteAt(p, take, offsets_[current_] + in_section_));
    crcs_[current_] = Crc32Update(crcs_[current_], p, take);
    in_section_ += take;
    p += take;
    len -= take;
    if (in_section_ == plan_[current_].length) {
      ++current_;
      in_section_ = 0;
    }
  }
  return Status::OK();
}

Status TlgStreamWriter::Finish() {
  if (fd_ < 0) return Status::Internal("TlgStreamWriter: double Finish");
  if (finished_) return Status::OK();
  // Complete when no section holds a partial payload and every section
  // still pending is zero-length (those never see an Append).
  bool complete = in_section_ == 0;
  for (size_t i = current_; complete && i < plan_.size(); ++i) {
    if (plan_[i].length != 0) complete = false;
  }
  if (!complete) {
    return Status::InvalidArgument(
        "TlgStreamWriter: Finish before all sections were appended");
  }

  std::vector<SectionEntry> table(plan_.size());
  for (size_t i = 0; i < plan_.size(); ++i) {
    table[i] = SectionEntry{plan_[i].type, plan_[i].aux, offsets_[i],
                            plan_[i].length, crcs_[i], 0};
  }
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.section_count = static_cast<uint32_t>(table.size());
  header.num_nodes = num_nodes_;
  header.num_edges = num_edges_;
  header.table_crc =
      Crc32Update(0, table.data(), table.size() * sizeof(SectionEntry));
  header.reserved = 0;

  // Directory first, header (with the magic) last: the file only
  // becomes recognizable once everything before it is in place.
  TRILIST_RETURN_NOT_OK(WriteAt(table.data(),
                                table.size() * sizeof(SectionEntry),
                                sizeof(FileHeader)));
  TRILIST_RETURN_NOT_OK(WriteAt(&header, sizeof(header), 0));
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync failed: " + path_ + ": " +
                            std::strerror(errno));
  }
  finished_ = true;
  CloseFd();
  return Status::OK();
}

void TlgStreamWriter::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TlgStreamWriter::~TlgStreamWriter() { CloseFd(); }

TlgStreamWriter::TlgStreamWriter(TlgStreamWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      num_nodes_(other.num_nodes_),
      num_edges_(other.num_edges_),
      plan_(std::move(other.plan_)),
      crcs_(std::move(other.crcs_)),
      offsets_(std::move(other.offsets_)),
      current_(other.current_),
      in_section_(other.in_section_),
      file_end_(other.file_end_),
      fail_after_bytes_(other.fail_after_bytes_),
      finished_(other.finished_) {}

TlgStreamWriter& TlgStreamWriter::operator=(
    TlgStreamWriter&& other) noexcept {
  if (this != &other) {
    CloseFd();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    num_nodes_ = other.num_nodes_;
    num_edges_ = other.num_edges_;
    plan_ = std::move(other.plan_);
    crcs_ = std::move(other.crcs_);
    offsets_ = std::move(other.offsets_);
    current_ = other.current_;
    in_section_ = other.in_section_;
    file_end_ = other.file_end_;
    fail_after_bytes_ = other.fail_after_bytes_;
    finished_ = other.finished_;
  }
  return *this;
}

}  // namespace trilist
