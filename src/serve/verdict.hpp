#pragma once
// Verdict and PendingVerdict: the result types of the serving layer.
//
// A submitted scan resolves to exactly one Verdict — a prediction, or an
// explicit status explaining why no prediction was made (queue full,
// deadline expired, server draining, pipeline error). PendingVerdict is the
// future-like handle: copyable, waitable, and always eventually fulfilled
// (the server resolves every outstanding slot before its workers exit, so
// get() can never hang on a stopped server).

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "magic/classifier.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::serve {

/// Terminal state of one scan request.
enum class VerdictStatus {
  Ok,                 ///< prediction is valid
  RejectedQueueFull,  ///< admission control: the bounded queue was full
  DeadlineExpired,    ///< the per-request deadline passed before scoring
  ShuttingDown,       ///< submitted to (or queued in) a draining server
  Error,              ///< extraction/scoring threw; see `error`
};

const char* to_string(VerdictStatus status) noexcept;

/// The resolved outcome of one scan request.
struct Verdict {
  VerdictStatus status = VerdictStatus::Error;
  core::Prediction prediction;  ///< valid only when status == Ok
  double latency_ms = 0.0;      ///< submit -> resolution wall time
  std::string error;            ///< diagnostic for status == Error

  bool ok() const noexcept { return status == VerdictStatus::Ok; }
};

namespace detail {

/// Shared one-shot slot between a PendingVerdict and the server.
class VerdictSlot {
 public:
  /// Resolves the slot (first call wins; later calls are ignored so a
  /// shutdown sweep cannot clobber a worker's result). Registered
  /// completion callbacks run exactly once each, in registration order,
  /// outside the slot mutex.
  void fulfil(Verdict verdict) MAGIC_EXCLUDES(mutex_) {
    std::vector<std::function<void()>> callbacks;
    {
      util::MutexLock lock(mutex_);
      if (done_) return;
      verdict_ = std::move(verdict);
      done_ = true;
      callbacks.swap(callbacks_);
    }
    cv_.notify_all();
    for (auto& callback : callbacks) callback();
  }

  /// Registers a completion hook: `fn` runs when the slot resolves (on the
  /// resolving thread), or immediately on the calling thread when the slot
  /// is already resolved. Multiple hooks may be registered — the event
  /// loop's wake hook and the registry's shadow-agreement joiner subscribe
  /// to the same verdict. Hooks captured in the slot are dropped when they
  /// run, so a hook capturing the PendingVerdict itself does not leak: the
  /// server resolves every slot, which breaks the cycle.
  void on_ready(std::function<void()> fn) MAGIC_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      if (!done_) {
        callbacks_.push_back(std::move(fn));
        return;
      }
    }
    fn();
  }

  bool ready() const MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return done_;
  }

  Verdict wait() const MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!done_) cv_.wait(lock);
    return verdict_;
  }

  template <typename Rep, typename Period>
  bool wait_for(const std::chrono::duration<Rep, Period>& timeout) const
      MAGIC_EXCLUDES(mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    util::MutexLock lock(mutex_);
    while (!done_) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return done_;  // final look under the lock
      }
    }
    return true;
  }

 private:
  mutable util::Mutex mutex_;
  mutable util::CondVar cv_;
  bool done_ MAGIC_GUARDED_BY(mutex_) = false;
  Verdict verdict_ MAGIC_GUARDED_BY(mutex_);
  std::vector<std::function<void()>> callbacks_ MAGIC_GUARDED_BY(mutex_);
};

}  // namespace detail

/// Future-like handle to an in-flight scan. Copyable; all copies observe
/// the same resolution. A default-constructed handle is invalid.
class PendingVerdict {
 public:
  PendingVerdict() = default;

  /// An already-resolved handle. The serving layer uses this for requests
  /// that terminate before reaching any server (e.g. an unknown model
  /// version).
  static PendingVerdict resolved(Verdict verdict) {
    auto slot = std::make_shared<detail::VerdictSlot>();
    slot->fulfil(std::move(verdict));
    return PendingVerdict{std::move(slot)};
  }

  bool valid() const noexcept { return slot_ != nullptr; }

  /// True once the verdict is resolved (non-blocking).
  bool ready() const { return slot_ && slot_->ready(); }

  /// Blocks until resolved and returns the verdict (repeatable).
  /// Throws std::logic_error on an invalid handle.
  Verdict get() const {
    if (!slot_) throw std::logic_error("PendingVerdict::get: invalid handle");
    return slot_->wait();
  }

  /// Waits up to `timeout`; true when the verdict became ready.
  template <typename Rep, typename Period>
  bool wait_for(const std::chrono::duration<Rep, Period>& timeout) const {
    if (!slot_) throw std::logic_error("PendingVerdict::wait_for: invalid handle");
    return slot_->wait_for(timeout);
  }

  /// Registers a completion hook (see VerdictSlot::on_ready): `fn` runs
  /// once, on the resolving thread — or immediately when already resolved.
  /// Throws std::logic_error on an invalid handle.
  void on_ready(std::function<void()> fn) const {
    if (!slot_) throw std::logic_error("PendingVerdict::on_ready: invalid handle");
    slot_->on_ready(std::move(fn));
  }

 private:
  friend class InferenceServer;
  explicit PendingVerdict(std::shared_ptr<detail::VerdictSlot> slot)
      : slot_(std::move(slot)) {}

  std::shared_ptr<detail::VerdictSlot> slot_;
};

}  // namespace magic::serve
