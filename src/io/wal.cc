#include "io/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strings.h"
#include "io/codec.h"
#include "io/crc32.h"
#include "io/snapshot.h"

namespace rvar {
namespace io {
namespace {

constexpr char kWalMagic[4] = {'R', 'V', 'W', 'L'};

std::string EncodeHeader(uint64_t segment_id) {
  BinaryWriter out;
  out.PutRaw(std::string_view(kWalMagic, sizeof(kWalMagic)));
  out.PutU32(kWalFormatVersion);
  out.PutU64(segment_id);
  out.PutU32(MaskCrc32(Crc32(out.bytes())));
  return out.TakeBytes();
}

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

bool AllZero(std::string_view bytes) {
  static constexpr char kZeros[4096] = {};
  while (!bytes.empty()) {
    const size_t n = std::min(bytes.size(), sizeof(kZeros));
    if (std::memcmp(bytes.data(), kZeros, n) != 0) return false;
    bytes.remove_prefix(n);
  }
  return true;
}

Status PWriteAll(int fd, std::string_view bytes, uint64_t offset,
                 const std::string& path) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd, bytes.data() + off, bytes.size() - off,
                 static_cast<off_t>(offset + off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("write failed for ", path, ": ", std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<WalScanResult> ScanWalSegment(std::string_view bytes) {
  WalScanResult scan;
  if (bytes.size() < kWalHeaderSize) {
    // Crash between create and header fsync: nothing usable, but not an
    // error — recovery truncates to zero and rewrites the header.
    scan.torn_tail = !bytes.empty();
    scan.dropped_bytes = bytes.size();
    return scan;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError("wal segment: missing RVWL tag");
  }
  BinaryReader cursor(bytes);
  (void)cursor.ReadU32();  // magic
  const uint32_t version = *cursor.ReadU32();
  const uint64_t segment_id = *cursor.ReadU64();
  const uint32_t header_crc = *cursor.ReadU32();
  if (header_crc != MaskCrc32(Crc32(bytes.substr(0, kWalHeaderSize - 4)))) {
    return Status::IOError("wal segment: header checksum mismatch");
  }
  if (version != kWalFormatVersion) {
    return Status::IOError(StrCat("wal segment: file version ", version,
                                  ", this build reads ", kWalFormatVersion));
  }
  scan.segment_id = segment_id;
  scan.valid_bytes = kWalHeaderSize;

  while (!cursor.AtEnd()) {
    const size_t record_start = cursor.position();
    auto len = cursor.ReadU32();
    auto crc = cursor.ReadU32();
    // A frame claiming more bytes than remain runs to the end of the image.
    size_t frame_end = bytes.size();
    if (len.ok() && crc.ok() && *len <= cursor.remaining()) {
      const std::string_view payload =
          bytes.substr(cursor.position(), *len);
      frame_end = cursor.position() + *len;
      if (MaskCrc32(Crc32(payload)) == *crc) {
        RVAR_RETURN_NOT_OK(cursor.Skip(*len));
        scan.records.emplace_back(payload);
        scan.valid_bytes = cursor.position();
        continue;
      }
    }
    // Not an intact frame. An all-zero remainder is the unwritten
    // preallocated tail: the log ends here, intact. Otherwise, only zeros
    // after the bad frame mean the unacknowledged last append was torn;
    // anything else is damage to a record that was once intact.
    if (AllZero(bytes.substr(record_start))) break;
    if (AllZero(bytes.substr(frame_end))) {
      scan.torn_tail = true;
    } else {
      scan.corrupt_record = true;
    }
    scan.dropped_bytes = bytes.size() - record_start;
    break;
  }
  return scan;
}

Result<WalScanResult> ScanWalFile(const std::string& path) {
  RVAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return ScanWalSegment(bytes);
}

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    uint64_t segment_id,
                                    bool sync_each_append) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(
        StrCat("cannot create wal segment ", path, ": ",
               std::strerror(errno)));
  }
  const std::string header = EncodeHeader(segment_id);
  WalWriter writer(fd, path, segment_id, header.size(), header.size(),
                   sync_each_append);
  RVAR_RETURN_NOT_OK(PWriteAll(fd, header, 0, path));
  RVAR_RETURN_NOT_OK(writer.Reserve(kWalChunkBytes));
  if (::fsync(fd) != 0) {
    return Status::IOError(
        StrCat("fsync failed for ", path, ": ", std::strerror(errno)));
  }
  RVAR_RETURN_NOT_OK(SyncParentDirectory(path));
  return writer;
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                           uint64_t segment_id,
                                           uint64_t expected_size,
                                           bool sync_each_append) {
  RVAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  if (bytes.size() < expected_size ||
      !AllZero(std::string_view(bytes).substr(expected_size))) {
    return Status::FailedPrecondition(
        StrCat("wal segment ", path, " is ", bytes.size(),
               " bytes, expected ", expected_size,
               " (or a zero tail past it) — scan and truncate the torn "
               "tail before appending"));
  }
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IOError(
        StrCat("cannot open wal segment ", path, ": ",
               std::strerror(errno)));
  }
  return WalWriter(fd, path, segment_id, expected_size, bytes.size(),
                   sync_each_append);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      segment_id_(other.segment_id_),
      size_bytes_(other.size_bytes_),
      allocated_bytes_(other.allocated_bytes_),
      sync_each_append_(other.sync_each_append_),
      frame_(std::move(other.frame_)) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    segment_id_ = other.segment_id_;
    size_bytes_ = other.size_bytes_;
    allocated_bytes_ = other.allocated_bytes_;
    sync_each_append_ = other.sync_each_append_;
    frame_ = std::move(other.frame_);
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ < 0) return;
  // Cut the zero tail so a cleanly closed segment is header + records.
  // Only a file still at the size this writer gave it is cut: a tail
  // someone else wrote past our end is not ours to drop. Best-effort and
  // unsynced — a tail that survives a crash still scans as end of log.
  struct stat info;
  if (allocated_bytes_ > size_bytes_ && ::fstat(fd_, &info) == 0 &&
      static_cast<uint64_t>(info.st_size) == allocated_bytes_) {
    const int trimmed = ::ftruncate(fd_, static_cast<off_t>(size_bytes_));
    (void)trimmed;
  }
  ::close(fd_);
  fd_ = -1;
}

Status WalWriter::Reserve(uint64_t end) {
  if (end <= allocated_bytes_) return Status::OK();
  const uint64_t target =
      (end + kWalChunkBytes - 1) / kWalChunkBytes * kWalChunkBytes;
  const int err =
      ::posix_fallocate(fd_, static_cast<off_t>(allocated_bytes_),
                        static_cast<off_t>(target - allocated_bytes_));
  if (err != 0) {
    return Status::IOError(StrCat("cannot preallocate ", path_, " to ",
                                  target, " bytes: ", std::strerror(err)));
  }
  allocated_bytes_ = target;
  return Status::OK();
}

Status WalWriter::Append(std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  frame_.clear();
  AppendU32(static_cast<uint32_t>(payload.size()), &frame_);
  AppendU32(MaskCrc32(Crc32(payload)), &frame_);
  frame_.append(payload.data(), payload.size());
  RVAR_RETURN_NOT_OK(Reserve(size_bytes_ + frame_.size()));
  RVAR_RETURN_NOT_OK(PWriteAll(fd_, frame_, size_bytes_, path_));
  size_bytes_ += frame_.size();
  if (sync_each_append_) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(
        StrCat("fdatasync failed for ", path_, ": ", std::strerror(errno)));
  }
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t new_size) {
  if (::truncate(path.c_str(), static_cast<off_t>(new_size)) != 0) {
    return Status::IOError(
        StrCat("truncate ", path, " to ", new_size, " bytes: ",
               std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace io
}  // namespace rvar
