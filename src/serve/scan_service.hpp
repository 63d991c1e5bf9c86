#pragma once
// ScanService: what the magicd front end (the epoll reactor behind both
// the socket daemon and the stdio mode) needs from the scoring backend.
// ModelRegistry is the production implementation (one version is the
// single-model case); tests substitute stubs.
//
// The front end only ever (a) submits scan requests, (b) renders a stats
// payload, (c) forwards control commands (`reload`, `shadow`) and (d)
// drains on shutdown. Keeping the surface this small is what lets the
// registry be hot-swapped underneath live connections: the front end never
// holds a model
// or server pointer, only PendingVerdict handles, which stay valid across
// any number of version swaps.

#include <string>
#include <string_view>

#include "serve/verdict.hpp"
#include "serve/wire.hpp"

namespace magic::serve {

/// Backend interface of the daemon front end. Implementations must be
/// safe to call from multiple threads (the reactor submits from its worker
/// pool while the stats path renders from the event loop).
class ScanService {
 public:
  virtual ~ScanService() = default;

  /// Submits one raw assembly listing for scanning. `version` is the
  /// per-request model-version override (empty = default). Never blocks on
  /// scoring: errors (including an unknown version) come back as an
  /// already-resolved handle with VerdictStatus::Error.
  virtual PendingVerdict submit_listing(std::string_view listing,
                                        const std::string& version) = 0;

  /// Full `stats` wire payload: one JSON object per call. Rendered at
  /// response-flush time so it reflects the requests ordered before it.
  virtual std::string stats_json() = 0;

  /// Executes one control command (Reload / Shadow) and returns the
  /// single-line JSON response. May block (a reload materializes a model).
  virtual std::string control(const wire::Request& request) = 0;

  /// Graceful shutdown: stop admission and score everything in flight.
  /// Every outstanding PendingVerdict is resolved before this returns.
  virtual void drain() = 0;
};

/// Shared payload tail of every stats reply: the SIMD dispatch level the
/// math kernels run at plus the process-wide obs registry snapshot.
/// Returned as `,"simd_level":"...","obs":{...}` for splicing into a
/// surrounding JSON object.
std::string stats_payload_suffix();

/// Renders a control-command error as a single-line JSON response.
std::string control_error_line(const std::string& message);

/// Reads a whole file into `out`; false (with `out` untouched) when the
/// file cannot be opened. Used by the reactor's `path` requests.
bool read_file_to_string(const std::string& path, std::string& out);

}  // namespace magic::serve
