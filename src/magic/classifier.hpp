#pragma once
// MagicClassifier: the public end-to-end API of the system.
//
// Mirrors the deployment story of §VII: train on a labelled ACFG corpus,
// then classify unknown programs given either their ACFG or their raw
// disassembly listing (the CFG/ACFG extraction happens inside). Models can
// be saved and loaded, so a cloud-trained model can ship to clients.
//
// Inference surface: classify(span, PredictOptions) is the single entry
// point — const, thread-safe (replica leases) and engine-selectable
// (packed block-diagonal batching vs. per-sample forwards). predict and
// predict_listing are single-sample conveniences over the same replicas.

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "acfg/acfg.hpp"
#include "data/dataset.hpp"
#include "magic/dgcnn.hpp"
#include "magic/graph_batch.hpp"
#include "magic/trainer.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace magic::core {

class ReplicaPool;

/// Which forward path classify() drives.
enum class PredictEngine {
  /// Pack graphs into block-diagonal GraphBatches and score each pack in
  /// one fused forward (DgcnnModel::predict_batch). Default; results match
  /// PerSample to floating-point reassociation (tests pin 1e-9 relative).
  Packed,
  /// One forward per graph — the training-time code path.
  PerSample,
};

/// Options for MagicClassifier::classify().
struct PredictOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Each worker
  /// scores on its own exclusively leased model replica, so any value is
  /// safe from any thread.
  std::size_t threads = 1;
  /// Packed engine only: graphs are grouped greedily until the next graph
  /// would push the pack past this many total vertices (a single oversized
  /// graph still forms its own pack). Bounds peak memory of the packed
  /// activations. Must be >= 1.
  std::size_t max_pack_vertices = 4096;
  PredictEngine engine = PredictEngine::Packed;
};

/// Named options for MagicClassifier::replica_pool().
struct ReplicaPoolOptions {
  /// Replicas to materialize eagerly; the pool still grows on demand.
  std::size_t warm_count = 0;
};

/// One prediction: the winning family plus the full distribution.
struct Prediction {
  std::size_t family_index = 0;
  std::string family_name;
  std::vector<double> probabilities;
};

/// Gradient-based attribution of one prediction: which basic blocks (and
/// which Table I attribute channels) pushed the model toward its verdict.
struct Explanation {
  Prediction prediction;
  /// Per-vertex saliency: L2 norm of d(log p_predicted)/d(attributes_v).
  /// Larger = this block mattered more. Sums normalized to 1.
  std::vector<double> vertex_saliency;
  /// Per-channel saliency aggregated over vertices (normalized to 1).
  std::vector<double> channel_saliency;
};

/// Trainable + queryable malware family classifier.
class MagicClassifier {
 public:
  /// Configures but does not yet build the model (the SortPooling k depends
  /// on the training distribution and is derived in fit()).
  MagicClassifier(DgcnnConfig config, TrainOptions train_options = {},
                  std::uint64_t seed = 42);

  /// Move-only (the model is a unique resource). Hand-written because
  /// pool_mutex_ is a real (non-movable) capability: the moved-to object
  /// keeps its own mutex and takes over the cached replica pool. Moving a
  /// classifier that another thread is concurrently using is — as ever —
  /// undefined behaviour; the lock here only keeps the cached-pool handoff
  /// well-formed.
  MagicClassifier(MagicClassifier&& other) noexcept;
  MagicClassifier& operator=(MagicClassifier&& other) noexcept;
  MagicClassifier(const MagicClassifier&) = delete;
  MagicClassifier& operator=(const MagicClassifier&) = delete;
  ~MagicClassifier();

  /// Trains on the whole dataset (with an internal stratified holdout for
  /// the lr-on-plateau schedule when `holdout_fraction` > 0).
  TrainResult fit(const data::Dataset& dataset, double holdout_fraction = 0.1);

  /// Trains with explicit train/validation index sets (cross-validation).
  TrainResult fit_indices(const data::Dataset& dataset,
                          const std::vector<std::size_t>& train_indices,
                          const std::vector<std::size_t>& val_indices);

  /// ---- Prediction surface ----------------------------------------------
  ///
  /// classify() is THE inference entry point: const, thread-safe (every
  /// call scores on exclusively leased replicas from the cached pool, never
  /// on the shared model instance) and engine-selectable via PredictOptions.
  /// predict / predict_listing below score one sample the same way.

  /// Classifies `samples` in input order. Requires a fitted or loaded
  /// model. Safe to call concurrently from any number of threads.
  std::vector<Prediction> classify(std::span<const acfg::Acfg> samples,
                                   const PredictOptions& options = {}) const;

  /// Classifies one ACFG: classify() of a single sample (per-sample
  /// engine). Const and thread-safe — scoring happens on a leased replica.
  Prediction predict(const acfg::Acfg& sample) const;

  /// Full pipeline: assembly listing -> CFG -> ACFG -> prediction.
  /// Const and thread-safe, like predict().
  Prediction predict_listing(std::string_view listing) const;

  /// Scores one pre-packed batch in a single fused forward on a leased
  /// replica; returns one Prediction per packed graph. Const, thread-safe.
  std::vector<Prediction> predict_packed(const GraphBatch& batch) const;

  /// The cached replica pool, (re)built from the current weights on first
  /// use, eagerly warmed to `options.warm_count` replicas, and invalidated
  /// whenever fit() / fit_indices() retrains. Shared by classify() and the
  /// serving layer (serve::InferenceServer); replicas are leased out, so
  /// concurrent consumers never collide. Thread-safe.
  std::shared_ptr<ReplicaPool> replica_pool(
      const ReplicaPoolOptions& options = {}) const;

  /// Classifies and attributes the verdict to basic blocks / attribute
  /// channels via input gradients (saliency). Analyst triage tooling: "which
  /// blocks made this look like Kelihos?". Does not disturb training state
  /// (parameter gradients are restored afterwards).
  Explanation explain(const acfg::Acfg& sample);

  /// Evaluates on dataset[indices].
  EvalResult evaluate(const data::Dataset& dataset,
                      const std::vector<std::size_t>& indices);

  bool fitted() const noexcept { return model_ != nullptr; }
  const DgcnnConfig& config() const noexcept { return config_; }
  const std::vector<std::string>& family_names() const noexcept { return family_names_; }

  /// ---- Persistence -------------------------------------------------------
  ///
  /// One canonical surface: save(stream) / load(stream) define the text
  /// format ("MAGIC-MODEL v3": config incl. the graph-conv operator,
  /// derived k, family names, every parameter tensor; v1/v2 still load;
  /// see model_io.cpp). The path overloads open the file and delegate to
  /// the stream pair; save -> load -> predict is bit-reproducible.
  void save(std::ostream& os) const;
  void save(const std::string& path) const;
  static MagicClassifier load(std::istream& is);
  static MagicClassifier load(const std::string& path);

  /// Bounds load() checks the checkpoint's header counts against before it
  /// sizes anything from them; a larger count throws std::runtime_error as
  /// a corrupt file instead of allocating gigabytes.
  static constexpr std::size_t kMaxLoadFamilies = 1u << 16;
  static constexpr std::size_t kMaxLoadFamilyNameBytes = 4096;
  static constexpr std::size_t kMaxLoadGraphConvLayers = 256;

  /// Access for serialization/tests.
  DgcnnModel* model() noexcept { return model_.get(); }
  const DgcnnModel* model() const noexcept { return model_.get(); }

 private:
  friend MagicClassifier load_classifier(std::istream& is);
  /// The pool marks the replicas it materializes (is_pool_replica_), which
  /// makes their predict*/classify score on their own model directly
  /// instead of re-routing through a nested pool.
  friend class ReplicaPool;

  /// Derives the SortPooling k from the training-set size distribution:
  /// the vertex count at the (1 - ratio) percentile, so that roughly
  /// ratio-fraction of training graphs fill all k slots.
  static std::size_t derive_sort_k(const data::Dataset& dataset,
                                   const std::vector<std::size_t>& train_indices,
                                   double ratio);

  /// Scoring on this instance's own model (exclusive access required; the
  /// public const entry points guarantee it via leases / is_pool_replica_).
  Prediction predict_on_own_model(const acfg::Acfg& sample) const;
  std::vector<Prediction> predict_packed_on_own_model(const GraphBatch& batch) const;
  /// Builds a Prediction from one row of class probabilities.
  Prediction make_prediction(const double* probs, std::size_t classes) const;
  /// The cached pool, built under pool_mutex_ on first use.
  std::shared_ptr<ReplicaPool> ensure_replica_pool() const MAGIC_EXCLUDES(pool_mutex_);

  DgcnnConfig config_;
  TrainOptions train_options_;
  std::uint64_t seed_;
  std::unique_ptr<DgcnnModel> model_;
  std::vector<std::string> family_names_;
  mutable util::Mutex pool_mutex_;
  /// Cached clones for parallel scoring; reset whenever the weights change.
  mutable std::shared_ptr<ReplicaPool> replica_pool_ MAGIC_GUARDED_BY(pool_mutex_);
  /// True for replicas materialized by a ReplicaPool: they are exclusively
  /// leased already, so their predict paths drive model_ directly (routing
  /// through their own pool would recurse forever).
  bool is_pool_replica_ = false;
};

}  // namespace magic::core
