#include "io/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/strings.h"
#include "io/codec.h"
#include "io/crc32.h"
#include "io/serialize.h"
#include "io/snapshot.h"

namespace rvar {
namespace io {
namespace {

namespace fs = std::filesystem;

constexpr const char* kModelPrefix = "model-";
constexpr const char* kManifestPrefix = "manifest-";
constexpr const char* kActiveName = "ACTIVE";

std::string EncodeManifestImage(const ModelManifest& m) {
  SnapshotWriter snap(PayloadKind::kModelManifest);
  BinaryWriter w;
  w.PutI64(m.version);
  w.PutI64(m.parent_version);
  w.PutU64(m.seed);
  w.PutU64(m.window_begin);
  w.PutU64(m.window_end);
  w.PutU64(m.num_rows);
  w.PutU32(static_cast<uint32_t>(m.state));
  w.PutString(m.reason);
  w.PutDouble(m.holdout_logloss);
  w.PutDouble(m.agreement);
  w.PutU32(m.model_crc);
  w.PutU64(m.model_size);
  snap.AddRecord(w.bytes());
  return snap.Finish();
}

Result<ModelManifest> DecodeManifestImage(std::string bytes) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(std::move(bytes), PayloadKind::kModelManifest));
  if (reader.num_records() != 1) {
    return Status::InvalidArgument(
        StrCat("manifest snapshot holds ", reader.num_records(),
               " records, layout needs exactly 1"));
  }
  RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
  BinaryReader r(rec);
  ModelManifest m;
  RVAR_ASSIGN_OR_RETURN(m.version, r.ReadI64());
  RVAR_ASSIGN_OR_RETURN(m.parent_version, r.ReadI64());
  RVAR_ASSIGN_OR_RETURN(m.seed, r.ReadU64());
  RVAR_ASSIGN_OR_RETURN(m.window_begin, r.ReadU64());
  RVAR_ASSIGN_OR_RETURN(m.window_end, r.ReadU64());
  RVAR_ASSIGN_OR_RETURN(m.num_rows, r.ReadU64());
  uint32_t state = 0;
  RVAR_ASSIGN_OR_RETURN(state, r.ReadU32());
  if (state > static_cast<uint32_t>(ModelState::kQuarantined)) {
    return Status::InvalidArgument(StrCat("unknown model state tag ", state));
  }
  m.state = static_cast<ModelState>(state);
  RVAR_ASSIGN_OR_RETURN(m.reason, r.ReadString());
  RVAR_ASSIGN_OR_RETURN(m.holdout_logloss, r.ReadDouble());
  RVAR_ASSIGN_OR_RETURN(m.agreement, r.ReadDouble());
  RVAR_ASSIGN_OR_RETURN(m.model_crc, r.ReadU32());
  RVAR_ASSIGN_OR_RETURN(m.model_size, r.ReadU64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrCat("manifest record has ", r.remaining(), " trailing bytes"));
  }
  if (m.version < 1) {
    return Status::InvalidArgument(
        StrCat("manifest version ", m.version, " must be >= 1"));
  }
  return m;
}

std::string EncodeActivePointer(int64_t version) {
  SnapshotWriter snap(PayloadKind::kActivePointer);
  BinaryWriter w;
  w.PutI64(version);
  snap.AddRecord(w.bytes());
  return snap.Finish();
}

Result<int64_t> DecodeActivePointer(std::string bytes) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(std::move(bytes), PayloadKind::kActivePointer));
  if (reader.num_records() != 1) {
    return Status::InvalidArgument("ACTIVE pointer must hold one record");
  }
  RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
  BinaryReader r(rec);
  RVAR_ASSIGN_OR_RETURN(int64_t version, r.ReadI64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("ACTIVE pointer has trailing bytes");
  }
  return version;
}

}  // namespace

const char* ModelStateName(ModelState state) {
  switch (state) {
    case ModelState::kCandidate:
      return "candidate";
    case ModelState::kActive:
      return "active";
    case ModelState::kRetired:
      return "retired";
    case ModelState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::string ModelManifest::ToString() const {
  std::string out =
      StrCat("v", version, " [", ModelStateName(state), "] parent=",
             parent_version, " seed=", seed, " window=[", window_begin, ",",
             window_end, ") rows=", num_rows);
  if (!reason.empty()) out += StrCat(" reason=\"", reason, "\"");
  return out;
}

Result<ModelRegistry> ModelRegistry::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(StrCat("cannot create ", dir, ": ", ec.message()));
  }
  ModelRegistry registry(dir);
  int64_t max_seen = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (int64_t v = ParseNumberedFileName(name, kManifestPrefix); v >= 0) {
      max_seen = std::max(max_seen, v);
      Result<std::string> bytes = ReadFileToString(entry.path().string());
      if (!bytes.ok()) {
        ++registry.num_corrupt_manifests_;
        continue;
      }
      Result<ModelManifest> manifest = DecodeManifestImage(std::move(*bytes));
      if (!manifest.ok() || manifest->version != v) {
        ++registry.num_corrupt_manifests_;
        continue;
      }
      registry.manifests_.emplace(v, std::move(*manifest));
    } else if (int64_t m = ParseNumberedFileName(name, kModelPrefix); m >= 0) {
      // Artifacts without an intact manifest still pin the high-water mark
      // so a crashed half-written version's id is never reused.
      max_seen = std::max(max_seen, m);
    }
  }
  if (ec) {
    return Status::IOError(StrCat("cannot list ", dir, ": ", ec.message()));
  }
  registry.next_version_ = max_seen + 1;

  // The ACTIVE pointer is authoritative; a missing or corrupt pointer
  // means nothing serves until an explicit Activate.
  if (Result<std::string> bytes = ReadFileToString(registry.ActivePath());
      bytes.ok()) {
    if (Result<int64_t> active = DecodeActivePointer(std::move(*bytes));
        active.ok() && registry.manifests_.count(*active) > 0 &&
        registry.manifests_[*active].state != ModelState::kQuarantined) {
      registry.active_version_ = *active;
    }
  }

  // Reconcile manifests against the pointer: a crash between manifest
  // rewrites and the pointer write can leave state labels behind; the
  // pointer wins every dispute so serving resumes on the last version
  // whose activation fully committed.
  for (auto& [v, manifest] : registry.manifests_) {
    if (v == registry.active_version_) {
      if (manifest.state != ModelState::kActive) {
        manifest.state = ModelState::kActive;
        manifest.reason.clear();
        RVAR_RETURN_NOT_OK(registry.WriteManifest(manifest));
      }
    } else if (manifest.state == ModelState::kActive) {
      manifest.state = ModelState::kRetired;
      RVAR_RETURN_NOT_OK(registry.WriteManifest(manifest));
    }
  }
  return registry;
}

std::vector<int64_t> ModelRegistry::Versions() const {
  std::vector<int64_t> versions;
  versions.reserve(manifests_.size());
  for (const auto& [v, manifest] : manifests_) versions.push_back(v);
  return versions;
}

Result<ModelManifest> ModelRegistry::Manifest(int64_t version) const {
  const auto it = manifests_.find(version);
  if (it == manifests_.end()) {
    return Status::NotFound(StrCat("no manifest for version ", version));
  }
  return it->second;
}

std::string ModelRegistry::ModelPath(int64_t version) const {
  return StrCat(dir_, "/", NumberedFileName(kModelPrefix, version));
}

std::string ModelRegistry::ManifestPath(int64_t version) const {
  return StrCat(dir_, "/", NumberedFileName(kManifestPrefix, version));
}

std::string ModelRegistry::ActivePath() const {
  return StrCat(dir_, "/", kActiveName);
}

Status ModelRegistry::WriteManifest(const ModelManifest& manifest) {
  RVAR_RETURN_NOT_OK(AtomicWriteFile(ManifestPath(manifest.version),
                                     EncodeManifestImage(manifest)));
  manifests_[manifest.version] = manifest;
  return Status::OK();
}

Result<int64_t> ModelRegistry::PutCandidate(ModelManifest manifest,
                                            const std::string& model_bytes) {
  if (manifest.version == 0) manifest.version = next_version_;
  if (manifest.version != next_version_) {
    return Status::InvalidArgument(
        StrCat("candidate version ", manifest.version,
               " breaks monotonicity; next is ", next_version_));
  }
  if (model_bytes.empty()) {
    return Status::InvalidArgument("candidate model artifact is empty");
  }
  manifest.state = ModelState::kCandidate;
  manifest.reason.clear();
  manifest.model_crc = Crc32(model_bytes);
  manifest.model_size = model_bytes.size();
  // Artifact first, manifest last: a manifest on disk always points at a
  // fully-written artifact, so a crash between the two leaves only an
  // id-pinning orphan artifact that Open skips.
  RVAR_RETURN_NOT_OK(AtomicWriteFile(ModelPath(manifest.version), model_bytes));
  RVAR_RETURN_NOT_OK(WriteManifest(manifest));
  next_version_ = manifest.version + 1;
  return manifest.version;
}

Result<std::string> ModelRegistry::LoadModelBytes(int64_t version) const {
  RVAR_ASSIGN_OR_RETURN(ModelManifest manifest, Manifest(version));
  RVAR_ASSIGN_OR_RETURN(std::string bytes,
                        ReadFileToString(ModelPath(version)));
  if (bytes.size() != manifest.model_size) {
    return Status::IOError(
        StrCat("model artifact v", version, " holds ", bytes.size(),
               " bytes, manifest promises ", manifest.model_size));
  }
  if (Crc32(bytes) != manifest.model_crc) {
    return Status::IOError(
        StrCat("model artifact v", version, " fails its manifest CRC"));
  }
  return bytes;
}

Result<ml::GbdtClassifier> ModelRegistry::LoadModel(int64_t version) const {
  RVAR_ASSIGN_OR_RETURN(std::string bytes, LoadModelBytes(version));
  return DecodeGbdtClassifier(std::move(bytes));
}

Status ModelRegistry::RecordValidation(int64_t version,
                                       double holdout_logloss,
                                       double agreement) {
  RVAR_ASSIGN_OR_RETURN(ModelManifest manifest, Manifest(version));
  manifest.holdout_logloss = holdout_logloss;
  manifest.agreement = agreement;
  return WriteManifest(manifest);
}

Status ModelRegistry::Activate(int64_t version) {
  RVAR_ASSIGN_OR_RETURN(ModelManifest manifest, Manifest(version));
  if (manifest.state == ModelState::kQuarantined) {
    return Status::FailedPrecondition(
        StrCat("version ", version, " is quarantined (", manifest.reason,
               "); quarantined versions are never served"));
  }
  if (version == active_version_) return Status::OK();
  if (active_version_ >= 0) {
    RVAR_ASSIGN_OR_RETURN(ModelManifest old, Manifest(active_version_));
    old.state = ModelState::kRetired;
    RVAR_RETURN_NOT_OK(WriteManifest(old));
  }
  manifest.state = ModelState::kActive;
  manifest.reason.clear();
  RVAR_RETURN_NOT_OK(WriteManifest(manifest));
  // The pointer write is the commit point: everything before it is
  // reversible state labeling that Open reconciles.
  RVAR_RETURN_NOT_OK(
      AtomicWriteFile(ActivePath(), EncodeActivePointer(version)));
  active_version_ = version;
  return Status::OK();
}

Status ModelRegistry::Quarantine(int64_t version, std::string reason) {
  RVAR_ASSIGN_OR_RETURN(ModelManifest manifest, Manifest(version));
  if (version == active_version_) {
    return Status::FailedPrecondition(
        StrCat("version ", version, " is active; roll back before "
               "quarantining it"));
  }
  manifest.state = ModelState::kQuarantined;
  manifest.reason = std::move(reason);
  return WriteManifest(manifest);
}

Status ModelRegistry::Deactivate() {
  if (active_version_ < 0) return Status::OK();
  RVAR_ASSIGN_OR_RETURN(ModelManifest manifest, Manifest(active_version_));
  manifest.state = ModelState::kRetired;
  RVAR_RETURN_NOT_OK(WriteManifest(manifest));
  // Removing the pointer is the commit point. A crash between the manifest
  // retire and the removal leaves the pointer in place, and the pointer
  // wins Open's reconcile — the version simply stays active, which is the
  // safe direction for a kill switch that is about to quarantine it anyway
  // (the caller retries).
  std::error_code ec;
  fs::remove(ActivePath(), ec);
  if (ec) {
    return Status::IOError(
        StrCat("removing ACTIVE pointer: ", ec.message()));
  }
  active_version_ = -1;
  return Status::OK();
}

Result<std::vector<int64_t>> ModelRegistry::Prune(int keep_retired) {
  if (keep_retired < 0) {
    return Status::InvalidArgument("keep_retired must be >= 0");
  }
  std::vector<int64_t> retired;
  for (const auto& [v, manifest] : manifests_) {
    if (manifest.state == ModelState::kRetired) retired.push_back(v);
  }
  std::vector<int64_t> pruned;
  const int64_t high_water = next_version_ - 1;
  // std::map iteration is ascending, so `retired` is oldest-first.
  for (size_t i = 0;
       i + static_cast<size_t>(keep_retired) < retired.size(); ++i) {
    const int64_t v = retired[i];
    if (v == high_water) continue;  // the id high-water mark must survive
    std::error_code ec;
    fs::remove(ModelPath(v), ec);
    if (ec) {
      return Status::IOError(
          StrCat("cannot remove ", ModelPath(v), ": ", ec.message()));
    }
    fs::remove(ManifestPath(v), ec);
    if (ec) {
      return Status::IOError(
          StrCat("cannot remove ", ManifestPath(v), ": ", ec.message()));
    }
    manifests_.erase(v);
    pruned.push_back(v);
  }
  return pruned;
}

}  // namespace io
}  // namespace rvar
