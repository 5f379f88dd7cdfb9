#include "io/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/strings.h"
#include "io/codec.h"
#include "io/crc32.h"

namespace rvar {
namespace io {
namespace {

constexpr char kMagic[4] = {'R', 'V', 'S', 'N'};
// magic(4) + version(4) + kind(4) + num_records(8) + header crc(4).
constexpr size_t kHeaderSize = 24;

Status StatusForDefect(SnapshotDefect defect, const std::string& detail) {
  return Status::IOError(
      StrCat("snapshot ", SnapshotDefectName(defect), ": ", detail));
}

// POSIX write loop (EINTR-safe).
Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
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

const char* SnapshotDefectName(SnapshotDefect defect) {
  switch (defect) {
    case SnapshotDefect::kNone:
      return "none";
    case SnapshotDefect::kShortHeader:
      return "short-header";
    case SnapshotDefect::kBadMagic:
      return "bad-magic";
    case SnapshotDefect::kBadVersion:
      return "bad-version";
    case SnapshotDefect::kHeaderCrcMismatch:
      return "header-crc-mismatch";
    case SnapshotDefect::kWrongPayloadKind:
      return "wrong-payload-kind";
    case SnapshotDefect::kTornRecord:
      return "torn-record";
    case SnapshotDefect::kRecordCrcMismatch:
      return "record-crc-mismatch";
    case SnapshotDefect::kRecordCountMismatch:
      return "record-count-mismatch";
    case SnapshotDefect::kTrailingGarbage:
      return "trailing-garbage";
  }
  return "unknown";
}

void SnapshotWriter::AddRecord(std::string_view payload) {
  records_.emplace_back(payload);
}

std::string SnapshotWriter::Finish() const {
  BinaryWriter out;
  out.PutRaw(std::string_view(kMagic, sizeof(kMagic)));
  out.PutU32(kSnapshotFormatVersion);
  out.PutU32(static_cast<uint32_t>(kind_));
  out.PutU64(records_.size());
  out.PutU32(MaskCrc32(Crc32(out.bytes())));
  for (const std::string& payload : records_) {
    out.PutU32(static_cast<uint32_t>(payload.size()));
    out.PutU32(MaskCrc32(Crc32(payload)));
    out.PutRaw(payload);
  }
  return out.TakeBytes();
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  return AtomicWriteFile(path, Finish());
}

Result<SnapshotReader> SnapshotReader::Open(std::string bytes,
                                            PayloadKind expected_kind,
                                            SnapshotDefect* defect_out) {
  SnapshotDefect scratch = SnapshotDefect::kNone;
  SnapshotDefect& defect = defect_out != nullptr ? *defect_out : scratch;
  defect = SnapshotDefect::kNone;

  BinaryReader cursor(bytes);
  if (bytes.size() < kHeaderSize) {
    defect = SnapshotDefect::kShortHeader;
    return StatusForDefect(defect, StrCat(bytes.size(), " bytes"));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    defect = SnapshotDefect::kBadMagic;
    return StatusForDefect(defect, "missing RVSN tag");
  }
  (void)cursor.ReadU32();  // magic, already checked
  const uint32_t version = *cursor.ReadU32();
  const uint32_t kind_raw = *cursor.ReadU32();
  const uint64_t num_records = *cursor.ReadU64();
  const uint32_t header_crc = *cursor.ReadU32();
  const uint32_t expected_crc =
      MaskCrc32(Crc32(std::string_view(bytes).substr(0, kHeaderSize - 4)));
  if (header_crc != expected_crc) {
    defect = SnapshotDefect::kHeaderCrcMismatch;
    return StatusForDefect(defect, "header checksum does not match");
  }
  if (version != kSnapshotFormatVersion) {
    defect = SnapshotDefect::kBadVersion;
    return StatusForDefect(
        defect, StrCat("file version ", version, ", this build reads ",
                       kSnapshotFormatVersion));
  }
  if (kind_raw != static_cast<uint32_t>(expected_kind)) {
    defect = SnapshotDefect::kWrongPayloadKind;
    return StatusForDefect(
        defect, StrCat("file holds payload kind ", kind_raw, ", expected ",
                       static_cast<uint32_t>(expected_kind)));
  }

  SnapshotReader reader;
  reader.kind_ = expected_kind;
  reader.records_.reserve(static_cast<size_t>(num_records));
  for (uint64_t i = 0; i < num_records; ++i) {
    if (cursor.AtEnd()) {
      // Truncated exactly at a record boundary: every byte present is
      // intact, but records promised by the header are missing.
      defect = SnapshotDefect::kRecordCountMismatch;
      return StatusForDefect(defect, StrCat("file holds ", i, " of ",
                                            num_records, " records"));
    }
    auto len = cursor.ReadU32();
    auto crc = cursor.ReadU32();
    if (!len.ok() || !crc.ok() || *len > cursor.remaining()) {
      defect = SnapshotDefect::kTornRecord;
      return StatusForDefect(
          defect, StrCat("record ", i, " of ", num_records,
                         " overruns the file"));
    }
    const size_t offset = cursor.position();
    const std::string_view payload =
        std::string_view(bytes).substr(offset, *len);
    if (MaskCrc32(Crc32(payload)) != *crc) {
      defect = SnapshotDefect::kRecordCrcMismatch;
      return StatusForDefect(defect,
                             StrCat("record ", i, " checksum mismatch"));
    }
    reader.records_.emplace_back(offset, static_cast<size_t>(*len));
    RVAR_RETURN_NOT_OK(cursor.Skip(*len));  // in-range by the check above
  }
  if (!cursor.AtEnd()) {
    defect = SnapshotDefect::kTrailingGarbage;
    return StatusForDefect(
        defect, StrCat(cursor.remaining(), " bytes after final record"));
  }
  reader.bytes_ = std::move(bytes);
  return reader;
}

Result<std::string_view> SnapshotReader::Record(size_t i) const {
  if (i >= records_.size()) {
    return Status::OutOfRange(StrCat("record index ", i, " of ",
                                     records_.size()));
  }
  return std::string_view(bytes_).substr(records_[i].first,
                                         records_[i].second);
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(
        StrCat("cannot open ", tmp, ": ", std::strerror(errno)));
  }
  Status st = WriteAll(fd, bytes, tmp);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError(
        StrCat("fsync failed for ", tmp, ": ", std::strerror(errno)));
  }
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::IOError(
        StrCat("rename ", tmp, " -> ", path, ": ", std::strerror(errno)));
    ::unlink(tmp.c_str());
    return st;
  }
  // Persist the rename itself.
  return SyncParentDirectory(path);
}

Status SyncParentDirectory(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string dir =
      target.has_parent_path() ? target.parent_path().string() : ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::IOError(
        StrCat("cannot open directory ", dir, ": ", std::strerror(errno)));
  }
  Status st;
  if (::fsync(dfd) != 0) {
    st = Status::IOError(
        StrCat("fsync failed for directory ", dir, ": ",
               std::strerror(errno)));
  }
  ::close(dfd);
  return st;
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrCat("no such file: ", path));
    }
    return Status::IOError(
        StrCat("cannot open ", path, ": ", std::strerror(errno)));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError(StrCat("read failed for ", path, ": ", err));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string NumberedFileName(const char* prefix, int64_t number) {
  std::string digits = StrCat(number);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return StrCat(prefix, digits);
}

int64_t ParseNumberedFileName(const std::string& name, const char* prefix) {
  const size_t prefix_len = std::strlen(prefix);
  if (name.size() <= prefix_len || name.compare(0, prefix_len, prefix) != 0) {
    return -1;
  }
  int64_t value = 0;
  for (size_t i = prefix_len; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    const int digit = name[i] - '0';
    if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) return -1;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace io
}  // namespace rvar
