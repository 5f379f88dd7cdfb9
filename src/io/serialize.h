// Copyright 2026 The rvar Authors.
//
// Snapshot codecs for the serving state (DESIGN.md §7) and nothing else:
// the shape library, the GBDT classifier, and the per-group shape state
// (one group record, held by the ShapeService image and by the recovery
// snapshot), plus the KLL sketch encoding that record embeds. Each gets
// its own snapshot PayloadKind and record layout; every Decode goes
// through SnapshotReader (checksums) and the type's Restore factory
// (semantic invariants), so a decode either reproduces the encoded object
// exactly or returns a descriptive Status — it never crashes and never
// yields a half-valid object.

#ifndef RVAR_IO_SERIALIZE_H_
#define RVAR_IO_SERIALIZE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/codec.h"
#include "io/snapshot.h"
#include "ml/gbdt.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace io {

// Each Encode* returns a complete snapshot file image (header + records);
// Decode* validates the image and rebuilds the object. Decode reports the
// container-level defect through `defect` when non-null (kNone when the
// container was intact but the payload failed semantic validation). Save*
// persists an image atomically and Load* reads a file and decodes it, for
// the types something stores as a standalone file.

std::string EncodeShapeLibrary(const core::ShapeLibrary& library);
Result<core::ShapeLibrary> DecodeShapeLibrary(
    std::string bytes, SnapshotDefect* defect = nullptr);
Status SaveShapeLibrary(const core::ShapeLibrary& library,
                        const std::string& path);
Result<core::ShapeLibrary> LoadShapeLibrary(const std::string& path);

std::string EncodeGbdtClassifier(const ml::GbdtClassifier& model);
Result<ml::GbdtClassifier> DecodeGbdtClassifier(
    std::string bytes, SnapshotDefect* defect = nullptr);
Status SaveGbdtClassifier(const ml::GbdtClassifier& model,
                          const std::string& path);

/// KLL sketch wire format (DESIGN.md §15), embedded inside a record that
/// is already being written/read: fixed scalars (k, n, min/max as float
/// bit patterns, compaction parity), then the per-level retained counts,
/// then every retained item as a float bit pattern in storage order
/// (highest level first). Decode funnels through KllSketch::Restore, so a
/// corrupt or hostile encoding yields InvalidArgument, never a sketch
/// that misbehaves later; bounds are checked before any allocation.
void EncodeKllSketchInto(const KllSketch& sketch, BinaryWriter* w);
Result<KllSketch> DecodeKllSketchFrom(BinaryReader* r);

/// Standalone snapshot container (PayloadKind::kKllSketch) around one
/// sketch — the unit the codec-robustness suite attacks with bit flips
/// and truncation.
std::string EncodeKllSketch(const KllSketch& sketch);
Result<KllSketch> DecodeKllSketch(std::string bytes,
                                  SnapshotDefect* defect = nullptr);

/// One group's state as a snapshot record (core::GroupState: group id,
/// observation and clamp counters, log-likelihood sums, then the embedded
/// KLL sketch). The one per-group codec: the ShapeService image below and
/// the recovery snapshot (io/recovery.h) both hold one such record per
/// group. Decode checks only the wire format; the sums, the counters and
/// `sketch.n() == count` are validated where the state is installed,
/// OnlineShapeTracker::RestoreState.
std::string EncodeGroupRecord(const core::GroupState& state);
Result<core::GroupState> DecodeGroupRecord(std::string_view record);

/// The ShapeService's per-group state, so online serving state survives
/// restart alongside the model. Encode exports a point-in-time cut of the
/// live service; Decode yields the group states in the form
/// ShapeService::RestoreState takes, which validates them. The image is
/// shard-count independent: ExportState merges per-shard snapshots
/// deterministically (ascending group id), so a service running S shards
/// restores bit-identically into one running any other shard count.
std::string EncodeShapeServiceState(const core::ShapeService& service);
Result<std::vector<core::GroupState>> DecodeShapeServiceState(
    std::string bytes, SnapshotDefect* defect = nullptr);
Status SaveShapeServiceState(const core::ShapeService& service,
                             const std::string& path);
Result<std::vector<core::GroupState>> LoadShapeServiceState(
    const std::string& path);

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_SERIALIZE_H_
