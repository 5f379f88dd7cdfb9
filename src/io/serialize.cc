#include "io/serialize.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "io/codec.h"
#include "ml/tree.h"

namespace rvar {
namespace io {
namespace {

// Smallest possible encodings, used to reject hostile count prefixes
// before allocating (`count * kMin... <= remaining` guards).
constexpr size_t kMinNodeBytes = 4 + 8 + 4 + 4 + 8 + 8;  // empty value vec
constexpr size_t kMinSkylineStepBytes = 8 + 4;

// --- Tree ----------------------------------------------------------------

void EncodeTree(const ml::Tree& tree, BinaryWriter* w) {
  w->PutU64(tree.nodes.size());
  for (const ml::TreeNode& node : tree.nodes) {
    w->PutI32(node.feature);
    w->PutDouble(node.threshold);
    w->PutI32(node.left);
    w->PutI32(node.right);
    w->PutDouble(node.cover);
    w->PutDoubleVector(node.value);
  }
}

Result<ml::Tree> DecodeTree(BinaryReader* r) {
  RVAR_ASSIGN_OR_RETURN(uint64_t num_nodes, r->ReadU64());
  if (num_nodes > r->remaining() / kMinNodeBytes + 1) {
    return Status::InvalidArgument(
        StrCat("tree node count ", num_nodes, " exceeds the record size"));
  }
  ml::Tree tree;
  tree.nodes.reserve(static_cast<size_t>(num_nodes));
  for (uint64_t i = 0; i < num_nodes; ++i) {
    ml::TreeNode node;
    RVAR_ASSIGN_OR_RETURN(node.feature, r->ReadI32());
    RVAR_ASSIGN_OR_RETURN(node.threshold, r->ReadDouble());
    RVAR_ASSIGN_OR_RETURN(node.left, r->ReadI32());
    RVAR_ASSIGN_OR_RETURN(node.right, r->ReadI32());
    RVAR_ASSIGN_OR_RETURN(node.cover, r->ReadDouble());
    RVAR_ASSIGN_OR_RETURN(node.value, r->ReadDoubleVector());
    tree.nodes.push_back(std::move(node));
  }
  return tree;
}

// --- Shared helpers ------------------------------------------------------

/// Opens a snapshot and requires it to hold at least `min_records`.
Result<SnapshotReader> OpenSnapshot(std::string bytes, PayloadKind kind,
                                    size_t min_records,
                                    SnapshotDefect* defect) {
  if (defect != nullptr) *defect = SnapshotDefect::kNone;
  RVAR_ASSIGN_OR_RETURN(SnapshotReader reader,
                        SnapshotReader::Open(std::move(bytes), kind, defect));
  if (reader.num_records() < min_records) {
    return Status::InvalidArgument(
        StrCat("snapshot holds ", reader.num_records(), " records, layout "
               "needs at least ", min_records));
  }
  return reader;
}

/// The decoded record must end exactly at the cursor, or the payload has
/// trailing bytes the layout does not account for.
Status ExpectRecordEnd(const BinaryReader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrCat(what, " record has ", r.remaining(), " trailing bytes"));
  }
  return Status::OK();
}

}  // namespace

// --- ShapeLibrary --------------------------------------------------------
//
// record 0: config, inertia, num_skipped_groups, num_clusters
// record 1..k: cluster PMF + ShapeStats
// record k+1: reference group ids + parallel cluster assignments

std::string EncodeShapeLibrary(const core::ShapeLibrary& library) {
  SnapshotWriter snap(PayloadKind::kShapeLibrary);
  const core::ShapeLibraryConfig& config = library.config();
  {
    BinaryWriter w;
    w.PutU8(static_cast<uint8_t>(config.normalization));
    w.PutI32(config.num_bins);
    w.PutI32(config.smoothing_radius);
    w.PutI32(config.min_support);
    w.PutI32(config.num_clusters);
    w.PutI32(config.kmeans.k);
    w.PutI32(config.kmeans.max_iterations);
    w.PutI32(config.kmeans.num_restarts);
    w.PutDouble(config.kmeans.tolerance);
    w.PutU64(config.kmeans.seed);
    w.PutDouble(library.inertia());
    w.PutI32(library.num_skipped_groups());
    w.PutI32(library.num_clusters());
    snap.AddRecord(w.bytes());
  }
  for (int k = 0; k < library.num_clusters(); ++k) {
    BinaryWriter w;
    w.PutDoubleVector(library.shape(k));
    const core::ShapeStats& s = library.stats(k);
    w.PutDouble(s.outlier_probability);
    w.PutDouble(s.iqr);
    w.PutDouble(s.p95);
    w.PutDouble(s.stddev);
    w.PutI64(s.num_samples);
    w.PutI32(s.num_groups);
    snap.AddRecord(w.bytes());
  }
  {
    BinaryWriter w;
    const std::vector<int>& groups = library.reference_groups();
    std::vector<int> assignment(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      assignment[i] = library.ReferenceAssignment(groups[i]);
    }
    w.PutI32Vector(groups);
    w.PutI32Vector(assignment);
    snap.AddRecord(w.bytes());
  }
  return snap.Finish();
}

Result<core::ShapeLibrary> DecodeShapeLibrary(std::string bytes,
                                              SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenSnapshot(std::move(bytes), PayloadKind::kShapeLibrary, 2, defect));

  core::ShapeLibraryConfig config;
  double inertia = 0.0;
  int num_skipped = 0;
  int num_clusters = 0;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(uint8_t norm, r.ReadU8());
    if (norm > static_cast<uint8_t>(core::Normalization::kDelta)) {
      return Status::InvalidArgument(
          StrCat("unknown normalization tag ", norm));
    }
    config.normalization = static_cast<core::Normalization>(norm);
    RVAR_ASSIGN_OR_RETURN(config.num_bins, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.smoothing_radius, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.min_support, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.num_clusters, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.kmeans.k, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.kmeans.max_iterations, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.kmeans.num_restarts, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(config.kmeans.tolerance, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(config.kmeans.seed, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(inertia, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(num_skipped, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(num_clusters, r.ReadI32());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "shape-library config"));
  }
  if (num_clusters < 0 ||
      reader.num_records() != static_cast<size_t>(num_clusters) + 2) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_clusters, " clusters but holds ",
               reader.num_records(), " records"));
  }

  std::vector<std::vector<double>> shapes;
  std::vector<core::ShapeStats> stats;
  shapes.reserve(static_cast<size_t>(num_clusters));
  stats.reserve(static_cast<size_t>(num_clusters));
  for (int k = 0; k < num_clusters; ++k) {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec,
                          reader.Record(static_cast<size_t>(k) + 1));
    BinaryReader r(rec);
    core::ShapeStats s;
    RVAR_ASSIGN_OR_RETURN(std::vector<double> pmf, r.ReadDoubleVector());
    RVAR_ASSIGN_OR_RETURN(s.outlier_probability, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(s.iqr, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(s.p95, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(s.stddev, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(s.num_samples, r.ReadI64());
    RVAR_ASSIGN_OR_RETURN(s.num_groups, r.ReadI32());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "cluster"));
    shapes.push_back(std::move(pmf));
    stats.push_back(s);
  }

  std::vector<int> groups;
  std::unordered_map<int, int> assignment;
  {
    RVAR_ASSIGN_OR_RETURN(
        std::string_view rec,
        reader.Record(static_cast<size_t>(num_clusters) + 1));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(groups, r.ReadI32Vector());
    RVAR_ASSIGN_OR_RETURN(std::vector<int> clusters, r.ReadI32Vector());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "assignment"));
    if (clusters.size() != groups.size()) {
      return Status::InvalidArgument(
          StrCat(groups.size(), " reference groups but ", clusters.size(),
                 " assignments"));
    }
    assignment.reserve(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      assignment[groups[i]] = clusters[i];
    }
  }
  return core::ShapeLibrary::Restore(config, std::move(shapes),
                                     std::move(stats), std::move(groups),
                                     std::move(assignment), inertia,
                                     num_skipped);
}

Status SaveShapeLibrary(const core::ShapeLibrary& library,
                        const std::string& path) {
  return AtomicWriteFile(path, EncodeShapeLibrary(library));
}

Result<core::ShapeLibrary> LoadShapeLibrary(const std::string& path) {
  RVAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeShapeLibrary(std::move(bytes));
}

// --- GBDT ----------------------------------------------------------------
//
// record 0: config, num_classes, rounds, base_scores, importance
// record 1..: one tree per record, class-major ([k][r] order)

namespace {

void EncodeGbdtConfig(const ml::GbdtConfig& c, BinaryWriter* w) {
  w->PutI32(c.num_rounds);
  w->PutDouble(c.learning_rate);
  w->PutI32(c.max_leaves);
  w->PutI32(c.max_depth);
  w->PutDouble(c.min_child_weight);
  w->PutI32(c.min_samples_leaf);
  w->PutDouble(c.lambda_l2);
  w->PutDouble(c.min_gain);
  w->PutI32(c.max_bins);
  w->PutDouble(c.feature_fraction);
  w->PutDouble(c.bagging_fraction);
  w->PutI32(c.early_stopping_rounds);
  w->PutU64(c.seed);
}

Status DecodeGbdtConfig(BinaryReader* r, ml::GbdtConfig* c) {
  RVAR_ASSIGN_OR_RETURN(c->num_rounds, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->learning_rate, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->max_leaves, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->max_depth, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->min_child_weight, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->min_samples_leaf, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->lambda_l2, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->min_gain, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->max_bins, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->feature_fraction, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->bagging_fraction, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->early_stopping_rounds, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->seed, r->ReadU64());
  return Status::OK();
}

}  // namespace

std::string EncodeGbdtClassifier(const ml::GbdtClassifier& model) {
  SnapshotWriter snap(PayloadKind::kGbdtClassifier);
  {
    BinaryWriter w;
    EncodeGbdtConfig(model.config(), &w);
    w.PutI32(model.num_classes());
    w.PutI32(model.rounds_used());
    std::vector<double> base_scores(
        static_cast<size_t>(model.num_classes()));
    for (int k = 0; k < model.num_classes(); ++k) {
      base_scores[static_cast<size_t>(k)] = model.base_score(k);
    }
    w.PutDoubleVector(base_scores);
    w.PutDoubleVector(model.feature_importance());
    snap.AddRecord(w.bytes());
  }
  for (int k = 0; k < model.num_classes(); ++k) {
    for (const ml::Tree& tree : model.trees_for_class(k)) {
      BinaryWriter w;
      EncodeTree(tree, &w);
      snap.AddRecord(w.bytes());
    }
  }
  return snap.Finish();
}

Result<ml::GbdtClassifier> DecodeGbdtClassifier(std::string bytes,
                                                SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenSnapshot(std::move(bytes), PayloadKind::kGbdtClassifier, 1,
                   defect));
  ml::GbdtConfig config;
  int num_classes = 0;
  int rounds = 0;
  std::vector<double> base_scores;
  std::vector<double> importance;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_RETURN_NOT_OK(DecodeGbdtConfig(&r, &config));
    RVAR_ASSIGN_OR_RETURN(num_classes, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(rounds, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(base_scores, r.ReadDoubleVector());
    RVAR_ASSIGN_OR_RETURN(importance, r.ReadDoubleVector());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "gbdt header"));
  }
  if (num_classes < 0 || rounds < 0 ||
      reader.num_records() !=
          1 + static_cast<size_t>(num_classes) * static_cast<size_t>(rounds)) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_classes, " classes x ", rounds,
               " rounds but holds ", reader.num_records(), " records"));
  }
  std::vector<std::vector<ml::Tree>> trees(static_cast<size_t>(num_classes));
  size_t next = 1;
  for (int k = 0; k < num_classes; ++k) {
    trees[static_cast<size_t>(k)].reserve(static_cast<size_t>(rounds));
    for (int round = 0; round < rounds; ++round) {
      RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(next++));
      BinaryReader r(rec);
      RVAR_ASSIGN_OR_RETURN(ml::Tree tree, DecodeTree(&r));
      RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "tree"));
      trees[static_cast<size_t>(k)].push_back(std::move(tree));
    }
  }
  return ml::GbdtClassifier::Restore(config, num_classes,
                                     std::move(base_scores),
                                     std::move(trees), std::move(importance));
}

Status SaveGbdtClassifier(const ml::GbdtClassifier& model,
                          const std::string& path) {
  return AtomicWriteFile(path, EncodeGbdtClassifier(model));
}

// --- Random forests ------------------------------------------------------
//
// record 0: config, (num_classes for the classifier), num_trees,
//           importance
// record 1..: one tree per record

namespace {

void EncodeForestConfig(const ml::ForestConfig& c, BinaryWriter* w) {
  w->PutI32(c.num_trees);
  w->PutI32(c.tree.max_depth);
  w->PutI32(c.tree.min_samples_leaf);
  w->PutI32(c.tree.min_samples_split);
  w->PutI32(c.tree.max_features);
  w->PutDouble(c.tree.min_gain);
  w->PutDouble(c.bootstrap_fraction);
  w->PutI32(c.max_features);
  w->PutI32(c.max_bins);
  w->PutU64(c.seed);
}

Status DecodeForestConfig(BinaryReader* r, ml::ForestConfig* c) {
  RVAR_ASSIGN_OR_RETURN(c->num_trees, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->tree.max_depth, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->tree.min_samples_leaf, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->tree.min_samples_split, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->tree.max_features, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->tree.min_gain, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->bootstrap_fraction, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(c->max_features, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->max_bins, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(c->seed, r->ReadU64());
  return Status::OK();
}

std::string EncodeForestImage(const ml::ForestConfig& config,
                              int num_classes,  // < 0 for regressors
                              const std::vector<ml::Tree>& trees,
                              const std::vector<double>& importance,
                              PayloadKind kind) {
  SnapshotWriter snap(kind);
  {
    BinaryWriter w;
    EncodeForestConfig(config, &w);
    if (num_classes >= 0) w.PutI32(num_classes);
    w.PutU64(trees.size());
    w.PutDoubleVector(importance);
    snap.AddRecord(w.bytes());
  }
  for (const ml::Tree& tree : trees) {
    BinaryWriter w;
    EncodeTree(tree, &w);
    snap.AddRecord(w.bytes());
  }
  return snap.Finish();
}

struct ForestParts {
  ml::ForestConfig config;
  int num_classes = -1;
  std::vector<ml::Tree> trees;
  std::vector<double> importance;
};

Result<ForestParts> DecodeForestImage(std::string bytes, bool classifier,
                                      SnapshotDefect* defect) {
  const PayloadKind kind = classifier
                               ? PayloadKind::kRandomForestClassifier
                               : PayloadKind::kRandomForestRegressor;
  RVAR_ASSIGN_OR_RETURN(SnapshotReader reader,
                        OpenSnapshot(std::move(bytes), kind, 1, defect));
  ForestParts parts;
  uint64_t num_trees = 0;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_RETURN_NOT_OK(DecodeForestConfig(&r, &parts.config));
    if (classifier) {
      RVAR_ASSIGN_OR_RETURN(parts.num_classes, r.ReadI32());
    }
    RVAR_ASSIGN_OR_RETURN(num_trees, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(parts.importance, r.ReadDoubleVector());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "forest header"));
  }
  if (reader.num_records() != num_trees + 1) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_trees, " trees but holds ",
               reader.num_records(), " records"));
  }
  parts.trees.reserve(static_cast<size_t>(num_trees));
  for (uint64_t i = 0; i < num_trees; ++i) {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec,
                          reader.Record(static_cast<size_t>(i) + 1));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(ml::Tree tree, DecodeTree(&r));
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "tree"));
    parts.trees.push_back(std::move(tree));
  }
  return parts;
}

}  // namespace

std::string EncodeRandomForestClassifier(
    const ml::RandomForestClassifier& model) {
  return EncodeForestImage(model.config(), model.num_classes(),
                           model.trees(), model.feature_importance(),
                           PayloadKind::kRandomForestClassifier);
}

Result<ml::RandomForestClassifier> DecodeRandomForestClassifier(
    std::string bytes, SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      ForestParts parts,
      DecodeForestImage(std::move(bytes), /*classifier=*/true, defect));
  return ml::RandomForestClassifier::Restore(
      parts.config, parts.num_classes, std::move(parts.trees),
      std::move(parts.importance));
}

std::string EncodeRandomForestRegressor(
    const ml::RandomForestRegressor& model) {
  return EncodeForestImage(model.config(), /*num_classes=*/-1,
                           model.trees(), model.feature_importance(),
                           PayloadKind::kRandomForestRegressor);
}

Result<ml::RandomForestRegressor> DecodeRandomForestRegressor(
    std::string bytes, SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      ForestParts parts,
      DecodeForestImage(std::move(bytes), /*classifier=*/false, defect));
  return ml::RandomForestRegressor::Restore(parts.config,
                                            std::move(parts.trees),
                                            std::move(parts.importance));
}

// --- Featurizer history --------------------------------------------------
//
// record 0: group count
// record 1..: one group per record (id, support, aggregates, SKU mix)

std::string EncodeFeaturizerState(const core::Featurizer& featurizer) {
  SnapshotWriter snap(PayloadKind::kFeaturizerState);
  std::vector<int> gids;
  gids.reserve(featurizer.history().size());
  for (const auto& [gid, h] : featurizer.history()) gids.push_back(gid);
  std::sort(gids.begin(), gids.end());  // deterministic images
  {
    BinaryWriter w;
    w.PutU64(gids.size());
    snap.AddRecord(w.bytes());
  }
  for (int gid : gids) {
    const core::Featurizer::GroupHistory& h = featurizer.history().at(gid);
    BinaryWriter w;
    w.PutI32(gid);
    w.PutI32(h.support);
    w.PutDouble(h.input_mean);
    w.PutDouble(h.input_std);
    w.PutDouble(h.temp_mean);
    w.PutDouble(h.vertices_mean);
    w.PutDouble(h.max_tokens_mean);
    w.PutDouble(h.max_tokens_std);
    w.PutDouble(h.avg_tokens_mean);
    w.PutDouble(h.spare_tokens_mean);
    w.PutDouble(h.runtime_median);
    w.PutDoubleVector(h.sku_frac);
    snap.AddRecord(w.bytes());
  }
  return snap.Finish();
}

Status DecodeFeaturizerState(std::string bytes, core::Featurizer* featurizer,
                             SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenSnapshot(std::move(bytes), PayloadKind::kFeaturizerState, 1,
                   defect));
  uint64_t num_groups = 0;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(num_groups, r.ReadU64());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "featurizer header"));
  }
  if (reader.num_records() != num_groups + 1) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_groups, " groups but holds ",
               reader.num_records(), " records"));
  }
  std::unordered_map<int, core::Featurizer::GroupHistory> history;
  history.reserve(static_cast<size_t>(num_groups));
  for (uint64_t i = 0; i < num_groups; ++i) {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec,
                          reader.Record(static_cast<size_t>(i) + 1));
    BinaryReader r(rec);
    int gid = 0;
    core::Featurizer::GroupHistory h;
    RVAR_ASSIGN_OR_RETURN(gid, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(h.support, r.ReadI32());
    RVAR_ASSIGN_OR_RETURN(h.input_mean, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.input_std, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.temp_mean, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.vertices_mean, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.max_tokens_mean, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.max_tokens_std, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.avg_tokens_mean, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.spare_tokens_mean, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.runtime_median, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(h.sku_frac, r.ReadDoubleVector());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "group history"));
    if (!history.emplace(gid, std::move(h)).second) {
      return Status::InvalidArgument(
          StrCat("group ", gid, " appears twice in the snapshot"));
    }
  }
  return featurizer->RestoreHistory(std::move(history));
}

// --- TelemetryStore ------------------------------------------------------
//
// record 0: run count, quarantined count, per-reason quarantine counts
// record 1..: one JobRun per record (indexed runs, then quarantined)

namespace {

void EncodeJobRun(const sim::JobRun& run, BinaryWriter* w) {
  w->PutI32(run.group_id);
  w->PutI64(run.instance_id);
  w->PutDouble(run.submit_time);
  w->PutDouble(run.runtime_seconds);
  w->PutU8(run.rare_event ? 1 : 0);
  w->PutI32(run.machine_faults);
  w->PutI32(run.vertex_retries);
  w->PutU8(run.spare_revoked ? 1 : 0);
  w->PutI32(run.allocated_tokens);
  w->PutI32(run.max_tokens_used);
  w->PutDouble(run.avg_tokens_used);
  w->PutDouble(run.avg_spare_tokens);
  w->PutU64(run.skyline.size());
  for (const auto& [start, tokens] : run.skyline) {
    w->PutDouble(start);
    w->PutI32(tokens);
  }
  w->PutDouble(run.input_gb);
  w->PutDouble(run.temp_data_gb);
  w->PutI32(run.total_vertices);
  w->PutI32(run.num_stages);
  w->PutDoubleVector(run.sku_vertex_fraction);
  w->PutDoubleVector(run.sku_cpu_util);
  w->PutDouble(run.cpu_util_mean);
  w->PutDouble(run.cpu_util_std);
  w->PutDouble(run.cluster_baseline_util);
  w->PutDouble(run.spare_availability);
}

Result<sim::JobRun> DecodeJobRun(BinaryReader* r) {
  sim::JobRun run;
  RVAR_ASSIGN_OR_RETURN(run.group_id, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(run.instance_id, r->ReadI64());
  RVAR_ASSIGN_OR_RETURN(run.submit_time, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.runtime_seconds, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(uint8_t rare, r->ReadU8());
  run.rare_event = rare != 0;
  RVAR_ASSIGN_OR_RETURN(run.machine_faults, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(run.vertex_retries, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(uint8_t revoked, r->ReadU8());
  run.spare_revoked = revoked != 0;
  RVAR_ASSIGN_OR_RETURN(run.allocated_tokens, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(run.max_tokens_used, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(run.avg_tokens_used, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.avg_spare_tokens, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(uint64_t skyline_steps, r->ReadU64());
  if (skyline_steps > r->remaining() / kMinSkylineStepBytes) {
    return Status::InvalidArgument(
        StrCat("skyline step count ", skyline_steps,
               " exceeds the record size"));
  }
  run.skyline.reserve(static_cast<size_t>(skyline_steps));
  for (uint64_t i = 0; i < skyline_steps; ++i) {
    RVAR_ASSIGN_OR_RETURN(double start, r->ReadDouble());
    RVAR_ASSIGN_OR_RETURN(int tokens, r->ReadI32());
    run.skyline.emplace_back(start, tokens);
  }
  RVAR_ASSIGN_OR_RETURN(run.input_gb, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.temp_data_gb, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.total_vertices, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(run.num_stages, r->ReadI32());
  RVAR_ASSIGN_OR_RETURN(run.sku_vertex_fraction, r->ReadDoubleVector());
  RVAR_ASSIGN_OR_RETURN(run.sku_cpu_util, r->ReadDoubleVector());
  RVAR_ASSIGN_OR_RETURN(run.cpu_util_mean, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.cpu_util_std, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.cluster_baseline_util, r->ReadDouble());
  RVAR_ASSIGN_OR_RETURN(run.spare_availability, r->ReadDouble());
  return run;
}

}  // namespace

std::string EncodeTelemetryStore(const sim::TelemetryStore& store) {
  SnapshotWriter snap(PayloadKind::kTelemetryStore);
  {
    BinaryWriter w;
    w.PutU64(store.NumRuns());
    w.PutU64(store.NumQuarantined());
    for (int reason = 0; reason < sim::kNumQuarantineReasons; ++reason) {
      w.PutI64(store.QuarantineCount(
          static_cast<sim::QuarantineReason>(reason)));
    }
    snap.AddRecord(w.bytes());
  }
  for (const sim::JobRun& run : store.runs()) {
    BinaryWriter w;
    EncodeJobRun(run, &w);
    snap.AddRecord(w.bytes());
  }
  for (const sim::JobRun& run : store.quarantined()) {
    BinaryWriter w;
    EncodeJobRun(run, &w);
    snap.AddRecord(w.bytes());
  }
  return snap.Finish();
}

Result<sim::TelemetryStore> DecodeTelemetryStore(std::string bytes,
                                                 SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenSnapshot(std::move(bytes), PayloadKind::kTelemetryStore, 1,
                   defect));
  uint64_t num_runs = 0;
  uint64_t num_quarantined = 0;
  std::array<int64_t, sim::kNumQuarantineReasons> counts{};
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(num_runs, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(num_quarantined, r.ReadU64());
    for (int reason = 0; reason < sim::kNumQuarantineReasons; ++reason) {
      RVAR_ASSIGN_OR_RETURN(counts[static_cast<size_t>(reason)],
                            r.ReadI64());
    }
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "telemetry header"));
  }
  if (reader.num_records() != num_runs + num_quarantined + 1) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_runs, " runs + ", num_quarantined,
               " quarantined but holds ", reader.num_records(), " records"));
  }
  sim::TelemetryStore store;
  for (uint64_t i = 0; i < num_runs; ++i) {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec,
                          reader.Record(static_cast<size_t>(i) + 1));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(sim::JobRun run, DecodeJobRun(&r));
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "run"));
    // Re-validate through the quarantine gate: an indexed run that no
    // longer passes means the snapshot is semantically corrupt.
    const Status ingest = store.Ingest(std::move(run));
    if (!ingest.ok()) {
      return Status::InvalidArgument(
          StrCat("snapshot run ", i, " failed re-validation: ",
                 ingest.message()));
    }
  }
  std::vector<sim::JobRun> quarantined;
  quarantined.reserve(static_cast<size_t>(num_quarantined));
  for (uint64_t i = 0; i < num_quarantined; ++i) {
    RVAR_ASSIGN_OR_RETURN(
        std::string_view rec,
        reader.Record(static_cast<size_t>(num_runs + i) + 1));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(sim::JobRun run, DecodeJobRun(&r));
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "quarantined run"));
    quarantined.push_back(std::move(run));
  }
  RVAR_RETURN_NOT_OK(store.RestoreAudit(std::move(quarantined), counts));
  return store;
}

// --- KllSketch -----------------------------------------------------------

namespace {

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

float FloatFromBits(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void EncodeKllSketchInto(const KllSketch& sketch, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(sketch.k()));
  w->PutI64(sketch.n());
  w->PutU32(FloatBits(sketch.min_value()));
  w->PutU32(FloatBits(sketch.max_value()));
  w->PutU64(sketch.compaction_parity());
  const std::vector<uint32_t>& level_sizes = sketch.level_sizes();
  w->PutU32(static_cast<uint32_t>(level_sizes.size()));
  for (uint32_t size : level_sizes) w->PutU32(size);
  for (float item : sketch.items()) w->PutU32(FloatBits(item));
}

Result<KllSketch> DecodeKllSketchFrom(BinaryReader* r) {
  RVAR_ASSIGN_OR_RETURN(uint32_t k, r->ReadU32());
  if (k > static_cast<uint32_t>(KllSketch::kMaxK)) {
    // Range-check before handing k to Restore so a hostile prefix cannot
    // drive capacity math with a wild value.
    return Status::InvalidArgument(
        StrCat("sketch k ", k, " exceeds the limit ", KllSketch::kMaxK));
  }
  RVAR_ASSIGN_OR_RETURN(int64_t n, r->ReadI64());
  RVAR_ASSIGN_OR_RETURN(uint32_t min_bits, r->ReadU32());
  RVAR_ASSIGN_OR_RETURN(uint32_t max_bits, r->ReadU32());
  RVAR_ASSIGN_OR_RETURN(uint64_t parity, r->ReadU64());
  RVAR_ASSIGN_OR_RETURN(uint32_t num_levels, r->ReadU32());
  if (num_levels > static_cast<uint32_t>(KllSketch::kMaxLevels)) {
    return Status::InvalidArgument(
        StrCat("sketch holds ", num_levels, " levels, limit is ",
               KllSketch::kMaxLevels));
  }
  std::vector<uint32_t> level_sizes;
  level_sizes.reserve(num_levels);
  uint64_t total_items = 0;
  for (uint32_t h = 0; h < num_levels; ++h) {
    RVAR_ASSIGN_OR_RETURN(uint32_t size, r->ReadU32());
    level_sizes.push_back(size);
    total_items += size;
  }
  if (total_items > r->remaining() / sizeof(uint32_t)) {
    // Reject the count prefix before allocating (hostile-bytes guard).
    return Status::InvalidArgument(
        StrCat("sketch promises ", total_items, " retained items but only ",
               r->remaining(), " bytes remain"));
  }
  std::vector<float> items;
  items.reserve(static_cast<size_t>(total_items));
  for (uint64_t i = 0; i < total_items; ++i) {
    RVAR_ASSIGN_OR_RETURN(uint32_t bits, r->ReadU32());
    items.push_back(FloatFromBits(bits));
  }
  return KllSketch::Restore(static_cast<int>(k), n, FloatFromBits(min_bits),
                            FloatFromBits(max_bits), std::move(level_sizes),
                            std::move(items), parity);
}

// Standalone container. record 0: the embedded sketch encoding.
std::string EncodeKllSketch(const KllSketch& sketch) {
  SnapshotWriter snap(PayloadKind::kKllSketch);
  BinaryWriter w;
  EncodeKllSketchInto(sketch, &w);
  snap.AddRecord(w.bytes());
  return snap.Finish();
}

Result<KllSketch> DecodeKllSketch(std::string bytes, SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenSnapshot(std::move(bytes), PayloadKind::kKllSketch, 1, defect));
  if (reader.num_records() != 1) {
    return Status::InvalidArgument(
        StrCat("kll-sketch snapshot holds ", reader.num_records(),
               " records, layout has exactly 1"));
  }
  RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
  BinaryReader r(rec);
  RVAR_ASSIGN_OR_RETURN(KllSketch sketch, DecodeKllSketchFrom(&r));
  RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "kll-sketch"));
  return sketch;
}

// --- Per-group record ----------------------------------------------------
//
// group id, observation count, clamp count, ll sums, then the group's
// quantile sketch (embedded KllSketch encoding). Pre-sketch records end
// before the sketch fields and fail to decode rather than half-loading.

std::string EncodeGroupRecord(const core::GroupState& state) {
  BinaryWriter w;
  w.PutI32(state.group_id);
  w.PutI64(state.count);
  w.PutI64(state.num_clamped);
  w.PutDoubleVector(state.log_likelihood);
  EncodeKllSketchInto(state.sketch, &w);
  return w.TakeBytes();
}

Result<core::GroupState> DecodeGroupRecord(std::string_view record) {
  BinaryReader r(record);
  RVAR_ASSIGN_OR_RETURN(int group_id, r.ReadI32());
  RVAR_ASSIGN_OR_RETURN(int64_t count, r.ReadI64());
  RVAR_ASSIGN_OR_RETURN(int64_t num_clamped, r.ReadI64());
  RVAR_ASSIGN_OR_RETURN(std::vector<double> ll, r.ReadDoubleVector());
  RVAR_ASSIGN_OR_RETURN(KllSketch sketch, DecodeKllSketchFrom(&r));
  RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "group state"));
  return core::GroupState{group_id, std::move(ll), count, num_clamped,
                          std::move(sketch)};
}

// --- ShapeServiceState ---------------------------------------------------
//
// record 0: number of group states
// record 1..n: one per-group record each
//
// Records follow ExportState's order — ascending group id, after the
// deterministic per-shard merge — so the encoded image is byte-identical
// at any shard count and a snapshot written by an S-shard service
// restores into any other shard count (the shard-determinism suite pins
// this).

std::string EncodeShapeServiceState(const core::ShapeService& service) {
  const std::vector<core::GroupState> states = service.ExportState();
  SnapshotWriter snap(PayloadKind::kShapeServiceState);
  {
    BinaryWriter w;
    w.PutU64(states.size());
    snap.AddRecord(w.bytes());
  }
  for (const core::GroupState& state : states) {
    snap.AddRecord(EncodeGroupRecord(state));
  }
  return snap.Finish();
}

Result<std::vector<core::GroupState>> DecodeShapeServiceState(
    std::string bytes, SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      OpenSnapshot(std::move(bytes), PayloadKind::kShapeServiceState, 1,
                   defect));
  uint64_t num_groups = 0;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(num_groups, r.ReadU64());
    RVAR_RETURN_NOT_OK(ExpectRecordEnd(r, "shape-service header"));
  }
  if (reader.num_records() != num_groups + 1) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_groups, " group states but holds ",
               reader.num_records(), " records"));
  }
  std::vector<core::GroupState> states;
  states.reserve(static_cast<size_t>(num_groups));
  for (uint64_t i = 0; i < num_groups; ++i) {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec,
                          reader.Record(static_cast<size_t>(i) + 1));
    RVAR_ASSIGN_OR_RETURN(core::GroupState state, DecodeGroupRecord(rec));
    states.push_back(std::move(state));
  }
  return states;
}

Status SaveShapeServiceState(const core::ShapeService& service,
                             const std::string& path) {
  return AtomicWriteFile(path, EncodeShapeServiceState(service));
}

Result<std::vector<core::GroupState>> LoadShapeServiceState(
    const std::string& path) {
  RVAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeShapeServiceState(std::move(bytes));
}

}  // namespace io
}  // namespace rvar
