#include "magic/parallel_trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace magic::core {

namespace {

// Compile-away gate for the phase-timing instrumentation: with MAGIC_OBS
// off every `if constexpr (kObsCompiled)` block vanishes and the trainer is
// byte-for-byte the uninstrumented engine.
#ifdef MAGIC_OBS_BUILD
constexpr bool kObsCompiled = true;
#else
constexpr bool kObsCompiled = false;
#endif

// Elements per shard of the step pass: small enough that a parameter of a
// few hundred thousand elements spreads over every lane, large enough that
// claiming a shard costs nothing next to summing ten slot buffers over it.
constexpr std::size_t kShardElements = 4096;

}  // namespace

std::uint64_t per_sample_seed(std::uint64_t seed, std::uint64_t epoch,
                              std::uint64_t position) noexcept {
  // splitmix64 finalizer over a fixed-weight combination: the stream a
  // sample consumes is a pure function of (run seed, epoch, position).
  std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * (epoch + 1) +
                    0xBF58476D1CE4E5B9ULL * (position + 1);
  s ^= s >> 30;
  s *= 0xBF58476D1CE4E5B9ULL;
  s ^= s >> 27;
  s *= 0x94D049BB133111EBULL;
  s ^= s >> 31;
  return s;
}

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

ParallelTrainer::ParallelTrainer(DgcnnModel& model, const data::Dataset& dataset,
                                 const TrainOptions& options)
    : master_(model),
      dataset_(dataset),
      options_(options),
      threads_(resolve_threads(options.threads)) {
  master_params_ = master_.parameters();

  // Replicas are structural clones: same config with sort_k pinned so the
  // derived-k path cannot diverge, parameter values synced from the master.
  DgcnnConfig replica_cfg = master_.config();
  replica_cfg.sort_k = master_.sort_k();
  replicas_.reserve(threads_);
  replica_params_.reserve(threads_);
  for (std::size_t r = 0; r < threads_; ++r) {
    util::Rng init_rng(0x9E3779B9u + r);  // overwritten by sync_replicas
    replicas_.push_back(std::make_unique<DgcnnModel>(replica_cfg, init_rng,
                                                     master_.sort_k()));
    replica_params_.push_back(replicas_.back()->parameters());
    MAGIC_CHECK(replica_params_.back().size() == master_params_.size(),
                "ParallelTrainer: replica parameter count "
                    << replica_params_.back().size() << " != master "
                    << master_params_.size());
  }
  sync_replicas();
  if (threads_ > 1) {
    // parallel_for's caller participates, so threads_ - 1 workers give
    // exactly threads_ concurrent lanes.
    pool_ = std::make_unique<util::ThreadPool>(threads_ - 1);
  }
}

void ParallelTrainer::sync_replicas() {
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    for (std::size_t i = 0; i < master_params_.size(); ++i) {
      replica_params_[r][i]->value = master_params_[i]->value;
    }
  }
}

void ParallelTrainer::for_each_claimed(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t lanes = std::min(threads_, n);
  if (lanes <= 1 || !pool_) {
    for (std::size_t k = 0; k < n; ++k) fn(0, k);
    return;
  }
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(lanes, [&](std::size_t lane) {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed); k < n;
         k = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(lane, k);
    }
  });
}

void ParallelTrainer::largest_first(const std::vector<std::size_t>& indices,
                                    std::size_t first, std::size_t n,
                                    std::vector<std::size_t>& out) const {
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = k;
  auto vertices = [&](std::size_t k) {
    return dataset_.samples[indices[first + k]].num_vertices();
  };
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t va = vertices(a), vb = vertices(b);
    return va != vb ? va > vb : a < b;
  });
}

void ParallelTrainer::run_slot(std::size_t replica, std::size_t slot,
                               const std::vector<std::size_t>& order,
                               std::size_t begin, std::size_t epoch) {
  DgcnnModel& model = *replicas_[replica];
  auto& params = replica_params_[replica];
  const std::size_t position = begin + slot;
  const acfg::Acfg& sample = dataset_.samples[order[position]];

  // The dropout stream is a function of (seed, epoch, position) only, so
  // masks are independent of the worker that drew them.
  model.reseed_rng(per_sample_seed(options_.seed, epoch, position));

  nn::NllLoss loss;
  if (timing_) {
    // Per-slot accumulators, no shared state: workers never contend on the
    // timing path, and the clock is only read while obs is enabled.
    util::Timer timer;
    const nn::Tensor log_probs = model.forward(sample);
    slot_forward_ms_[slot] = timer.millis();
    slot_loss_[slot] =
        loss.forward(log_probs, static_cast<std::size_t>(sample.label));
    timer.reset();
    model.backward(loss.backward());
    slot_backward_ms_[slot] = timer.millis();
  } else {
    const nn::Tensor log_probs = model.forward(sample);
    slot_loss_[slot] =
        loss.forward(log_probs, static_cast<std::size_t>(sample.label));
    model.backward(loss.backward());
  }

  // Hand the per-sample gradients to the step pass without copying; the
  // slot buffer, which that pass left zeroed, becomes the replica's next
  // grad storage.
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::swap(params[i]->grad, slot_grads_[slot][i]);
  }
}

void ParallelTrainer::run_chunk(const std::vector<std::size_t>& order,
                                std::size_t begin, std::size_t end,
                                std::size_t epoch) {
  largest_first(order, begin, end - begin, claim_order_);
  for_each_claimed(claim_order_.size(), [&](std::size_t lane, std::size_t k) {
    run_slot(lane, claim_order_[k], order, begin, epoch);
  });
}

void ParallelTrainer::step_shard(const Shard& shard, std::size_t chunk,
                                 nn::Adam& optimizer) {
  nn::Parameter& master = *master_params_[shard.param];
  double* grad = master.grad.data();
  // Ascending slot order onto the zeroed master gradient: the same
  // additions, in the same order, as one whole-tensor `grad += slot` per
  // slot.
  for (std::size_t slot = 0; slot < chunk; ++slot) {
    const double* g = slot_grads_[slot][shard.param].data();
    for (std::size_t j = shard.lo; j < shard.hi; ++j) grad[j] += g[j];
  }
  optimizer.step_range(shard.param, shard.lo, shard.hi);
  std::fill(grad + shard.lo, grad + shard.hi, 0.0);
  const double* value = master.value.data();
  for (auto& params : replica_params_) {
    std::copy(value + shard.lo, value + shard.hi,
              params[shard.param]->value.data() + shard.lo);
  }
  for (std::size_t slot = 0; slot < chunk; ++slot) {
    double* g = slot_grads_[slot][shard.param].data();
    std::fill(g + shard.lo, g + shard.hi, 0.0);
  }
}

TrainResult ParallelTrainer::train(const std::vector<std::size_t>& train_indices,
                                   const std::vector<std::size_t>& val_indices) {
  if (train_indices.empty()) {
    throw std::invalid_argument("train_model: empty training set");
  }
  util::Rng rng(options_.seed);
  nn::Adam optimizer(master_params_, options_.learning_rate, 0.9, 0.999, 1e-8,
                     options_.weight_decay);
  nn::ReduceLrOnPlateau scheduler(optimizer, options_.lr_patience,
                                  options_.lr_factor);

  // Per-slot gradient buffers sized to the largest minibatch; allocated
  // once here, recycled by pointer swaps for the rest of the run.
  max_chunk_ = options_.batch_size == 0
                   ? train_indices.size()
                   : std::min(options_.batch_size, train_indices.size());
  slot_grads_.assign(max_chunk_, {});
  for (auto& slot : slot_grads_) {
    slot.reserve(master_params_.size());
    for (nn::Parameter* p : master_params_) {
      slot.push_back(nn::Tensor::zeros(p->value.shape()));
    }
  }
  slot_loss_.assign(max_chunk_, 0.0);
  claim_order_.reserve(max_chunk_);
  shards_.clear();
  for (std::size_t i = 0; i < master_params_.size(); ++i) {
    const std::size_t size = master_params_[i]->value.size();
    for (std::size_t lo = 0; lo < size; lo += kShardElements) {
      shards_.push_back({i, lo, std::min(lo + kShardElements, size)});
    }
  }
  // The step pass keeps every gradient buffer zero between steps; start
  // from that state whatever an earlier run or caller left behind.
  optimizer.zero_grad();
  for (auto& params : replica_params_) {
    for (nn::Parameter* p : params) p->zero_grad();
  }
  if constexpr (kObsCompiled) {
    timing_ = obs::enabled();
    if (timing_) {
      slot_forward_ms_.assign(max_chunk_, 0.0);
      slot_backward_ms_.assign(max_chunk_, 0.0);
    }
  }

  TrainResult result;
  result.best_validation_loss = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order = train_indices;
  std::vector<nn::Tensor> best_snapshot;
  const bool snapshotting = options_.restore_best && !val_indices.empty();

  // Index pools per family for balanced oversampling (weight
  // count^(1 - strength); see TrainOptions). Drawn from the master rng so
  // the epoch order is thread-count independent.
  std::vector<std::vector<std::size_t>> by_family;
  std::vector<double> family_draw_weights;
  if (options_.balance_families) {
    by_family.assign(dataset_.num_families(), {});
    for (std::size_t idx : train_indices) {
      const int label = dataset_.samples[idx].label;
      if (label >= 0 && static_cast<std::size_t>(label) < by_family.size()) {
        by_family[static_cast<std::size_t>(label)].push_back(idx);
      }
    }
    by_family.erase(std::remove_if(by_family.begin(), by_family.end(),
                                   [](const auto& v) { return v.empty(); }),
                    by_family.end());
    const double exponent = 1.0 - std::clamp(options_.balance_strength, 0.0, 1.0);
    for (const auto& pool : by_family) {
      family_draw_weights.push_back(
          std::pow(static_cast<double>(pool.size()), exponent));
    }
  }

  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    for (auto& replica : replicas_) replica->set_training(true);
    if (options_.balance_families && !by_family.empty()) {
      for (auto& idx : order) {
        const auto& pool = by_family[rng.weighted_index(family_draw_weights)];
        idx = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      }
    } else {
      rng.shuffle(order);
    }

    double epoch_loss = 0.0;
    double forward_ms = 0.0, backward_ms = 0.0, reduce_ms = 0.0,
           optimizer_ms = 0.0;
    util::Timer epoch_timer;  // read only while timing_
    for (std::size_t begin = 0; begin < order.size(); begin += max_chunk_) {
      const std::size_t end = std::min(begin + max_chunk_, order.size());
      const std::size_t chunk = end - begin;
      run_chunk(order, begin, end, epoch);
      if constexpr (kObsCompiled) {
        if (timing_) {
          for (std::size_t slot = 0; slot < chunk; ++slot) {
            forward_ms += slot_forward_ms_[slot];
            backward_ms += slot_backward_ms_[slot];
          }
        }
      }
      util::Timer phase_timer;
      for (std::size_t slot = 0; slot < chunk; ++slot) epoch_loss += slot_loss_[slot];
      optimizer.begin_step();
      if constexpr (kObsCompiled) {
        if (timing_) optimizer_ms += phase_timer.millis();
      }
      // Reduce, Adam, zero and replica sync in one pass over the shards;
      // within an element the slot sum runs in slot order for every thread
      // count.
      phase_timer.reset();
      for_each_claimed(shards_.size(), [&](std::size_t, std::size_t k) {
        step_shard(shards_[k], chunk, optimizer);
      });
      if constexpr (kObsCompiled) {
        if (timing_) reduce_ms += phase_timer.millis();
      }
    }
    if constexpr (kObsCompiled) {
      if (timing_) {
        // Per-epoch phase breakdown + throughput, visible in any
        // snapshot_json() sink (--metrics-out, magicd stats).
        const double wall_ms = epoch_timer.millis();
        obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
        registry.histogram("train.epoch.forward_ms").record(forward_ms);
        registry.histogram("train.epoch.backward_ms").record(backward_ms);
        registry.histogram("train.epoch.reduce_ms").record(reduce_ms);
        registry.histogram("train.epoch.optimizer_ms").record(optimizer_ms);
        registry.histogram("train.epoch.wall_ms").record(wall_ms);
        if (wall_ms > 0.0) {
          registry.gauge("train.samples_per_sec")
              .set(static_cast<double>(order.size()) / (wall_ms / 1e3));
        }
        registry.counter("train.epochs").add();
        registry.counter("train.samples").add(order.size());
      }
    }

    EpochStats stats;
    stats.train_loss = epoch_loss / static_cast<double>(order.size());
    if (!val_indices.empty()) {
      util::Timer validation_timer;
      EvalResult eval = evaluate(val_indices);
      if constexpr (kObsCompiled) {
        if (timing_) {
          obs::MetricsRegistry::global()
              .histogram("train.epoch.validation_ms")
              .record(validation_timer.millis());
        }
      }
      stats.validation_loss = eval.mean_log_loss;
      stats.validation_accuracy = eval.confusion.accuracy();
    } else {
      stats.validation_loss = stats.train_loss;
      stats.validation_accuracy = 0.0;
    }
    if (stats.validation_loss < result.best_validation_loss) {
      result.best_validation_loss = stats.validation_loss;
      result.best_epoch = epoch;
      if (snapshotting) {
        best_snapshot.clear();
        for (nn::Parameter* p : master_params_) best_snapshot.push_back(p->value);
      }
    }
    scheduler.observe(stats.validation_loss);
    if (options_.verbose) {
      MAGIC_LOG_INFO("epoch " << epoch << " train=" << stats.train_loss
                              << " val=" << stats.validation_loss
                              << " acc=" << stats.validation_accuracy
                              << " lr=" << optimizer.lr() << " threads="
                              << threads_);
    }
    result.history.push_back(stats);
  }
  if (snapshotting && !best_snapshot.empty()) {
    for (std::size_t i = 0; i < master_params_.size(); ++i) {
      master_params_[i]->value = best_snapshot[i];
    }
  }
  master_.set_training(false);
  return result;
}

EvalResult ParallelTrainer::evaluate(const std::vector<std::size_t>& indices) {
  for (auto& replica : replicas_) replica->set_training(false);
  EvalResult result{0.0, ml::ConfusionMatrix(dataset_.num_families()), {}, {}};
  const std::size_t n = indices.size();
  result.probabilities.assign(n, {});
  result.labels.assign(n, 0);
  std::vector<std::size_t> claim_order;
  largest_first(indices, 0, n, claim_order);
  for_each_claimed(n, [&](std::size_t lane, std::size_t k) {
    const std::size_t pos = claim_order[k];
    const acfg::Acfg& sample = dataset_.samples[indices[pos]];
    const nn::Tensor log_probs = replicas_[lane]->forward(sample);
    const nn::Tensor p = nn::exp_probs(log_probs);
    result.probabilities[pos].assign(p.data(), p.data() + p.size());
    result.labels[pos] = static_cast<std::size_t>(sample.label);
  });
  // Confusion is rebuilt serially in sample order, so the result matches
  // the serial evaluate_model exactly.
  for (std::size_t pos = 0; pos < n; ++pos) {
    std::size_t winner = 0;
    const auto& row = result.probabilities[pos];
    for (std::size_t j = 1; j < row.size(); ++j) {
      if (row[j] > row[winner]) winner = j;
    }
    result.confusion.add(result.labels[pos], winner);
  }
  result.mean_log_loss = ml::mean_log_loss(result.probabilities, result.labels);
  return result;
}

EvalResult evaluate_model(DgcnnModel& model, const data::Dataset& dataset,
                          const std::vector<std::size_t>& indices,
                          std::size_t threads) {
  const std::size_t resolved = resolve_threads(threads);
  if (resolved <= 1) return evaluate_model(model, dataset, indices);
  TrainOptions options;
  options.threads = resolved;
  ParallelTrainer trainer(model, dataset, options);
  return trainer.evaluate(indices);
}

}  // namespace magic::core
