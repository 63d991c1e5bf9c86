#pragma once
// Data-parallel minibatch training engine (DESIGN.md "Training performance").
//
// Each minibatch fans per-graph forward/backward across model replicas on a
// util::ThreadPool. Lanes claim the minibatch's samples from a shared
// counter, largest graph first, so a lane that drew a big graph does not
// hold the step while the others idle. Per-sample gradients land in
// preallocated per-slot buffers (slot = the sample's position in the
// minibatch, whichever lane ran it). One parallel pass over fixed element
// shards of every parameter then sums the slot buffers in ascending slot
// order, applies the Adam update, copies the new values into every replica
// and zeroes the buffers it read. Floating-point addition is not
// associative, so determinism comes from giving every element the same
// operations in the same order for EVERY thread count (including 1): the
// trained parameters and TrainResult.history are bitwise identical for any
// TrainOptions::threads value.
//
// Stochastic modules (Dropout) are reseeded per (run seed, epoch, sample
// position), so the mask a sample sees never depends on which worker
// processed it or on how many samples that worker handled before.
//
// Deliberately free of -Wthread-safety annotations: this engine holds no
// mutex, only claim counters. In the sample fan-out, lane r alone drives
// replica r, and each slot buffer and per-slot accumulator is written by
// the one lane that claimed that slot. The shard pass starts after the
// fan-out's parallel_for barrier, so every slot buffer it reads is
// complete, and its shards are disjoint element ranges: each element of a
// master parameter, an Adam moment, a replica value and a slot buffer is
// touched by exactly one shard. Race freedom is a data-partitioning
// argument the capability analysis cannot express; TSan stress coverage
// stands in where the static proof cannot reach
// (tests/magic/parallel_trainer_test.cpp under check.sh tsan).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "magic/trainer.hpp"
#include "nn/optimizer.hpp"
#include "util/thread_pool.hpp"

namespace magic::core {

/// Mixes (seed, epoch, position) into one per-sample stream seed
/// (splitmix64 finalizer; exposed for tests).
std::uint64_t per_sample_seed(std::uint64_t seed, std::uint64_t epoch,
                              std::uint64_t position) noexcept;

/// The engine behind train_model. One instance owns the replica set, the
/// per-slot gradient buffers and the worker pool; buffers are allocated once
/// up front so the per-step loop is allocation-free in steady state.
class ParallelTrainer {
 public:
  /// `model` is the master: the optimizer steps its parameters and the
  /// trained values end up in it, exactly like the serial engine.
  ParallelTrainer(DgcnnModel& model, const data::Dataset& dataset,
                  const TrainOptions& options);

  TrainResult train(const std::vector<std::size_t>& train_indices,
                    const std::vector<std::size_t>& val_indices);

  /// Replica-parallel evaluation; rows stored by sample position so the
  /// result equals the serial evaluate_model byte for byte.
  EvalResult evaluate(const std::vector<std::size_t>& indices);

  std::size_t threads() const noexcept { return threads_; }

 private:
  /// One element range of one parameter: the unit of the step pass.
  struct Shard {
    std::size_t param = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  /// Copies master parameter values into every replica.
  void sync_replicas();
  /// Runs fn(lane, k) for k = 0 .. n-1 across min(threads, n) lanes; lanes
  /// claim k in increasing order from a shared counter, and lane r is the
  /// only one running on replica r.
  void for_each_claimed(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& fn);
  /// Fills `out` with 0 .. n-1 ordered by descending vertex count of
  /// dataset sample indices[first + k], ties in index order.
  void largest_first(const std::vector<std::size_t>& indices, std::size_t first,
                     std::size_t n, std::vector<std::size_t>& out) const;
  /// Runs samples order[begin, end) through the replicas; slot s leaves its
  /// gradients in slot_grads_[s] and its loss in slot_loss_[s].
  void run_chunk(const std::vector<std::size_t>& order, std::size_t begin,
                 std::size_t end, std::size_t epoch);
  /// One sample on one replica: reseed, forward, loss, backward, swap the
  /// gradients into the slot buffers (whose zeroed storage the replica
  /// accumulates into next).
  void run_slot(std::size_t replica, std::size_t slot,
                const std::vector<std::size_t>& order, std::size_t begin,
                std::size_t epoch);
  /// The step pass for one shard after a minibatch of `chunk` slots.
  void step_shard(const Shard& shard, std::size_t chunk, nn::Adam& optimizer);

  DgcnnModel& master_;
  const data::Dataset& dataset_;
  TrainOptions options_;
  std::size_t threads_;

  std::vector<std::unique_ptr<DgcnnModel>> replicas_;
  std::vector<std::vector<nn::Parameter*>> replica_params_;
  std::vector<nn::Parameter*> master_params_;

  // slot_grads_[slot][param] mirrors the master parameter shapes. Between
  // steps every slot buffer and every replica gradient is zero.
  std::vector<std::vector<nn::Tensor>> slot_grads_;
  std::vector<double> slot_loss_;
  std::vector<std::size_t> claim_order_;  // slots of the current minibatch
  std::vector<Shard> shards_;
  std::size_t max_chunk_ = 0;

  // obs phase timing (magic::obs). Sampled once at train() entry; when
  // false (obs disabled or compiled out) no clock is ever read and the
  // per-slot timing buffers stay empty. Per-slot accumulators keep the
  // worker threads contention-free, exactly like slot_loss_.
  bool timing_ = false;
  std::vector<double> slot_forward_ms_;
  std::vector<double> slot_backward_ms_;

  std::unique_ptr<util::ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace magic::core
