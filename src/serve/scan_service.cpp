#include "serve/scan_service.hpp"

#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "tensor/simd/dispatch.hpp"

namespace magic::serve {

std::string stats_payload_suffix() {
  return ",\"simd_level\":\"" +
         std::string(tensor::simd::level_name(tensor::simd::active_level())) +
         "\",\"obs\":" + obs::MetricsRegistry::global().snapshot_json();
}

std::string control_error_line(const std::string& message) {
  return "{\"status\":\"error\",\"error\":\"" + wire::json_escape(message) + "\"}";
}

bool read_file_to_string(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace magic::serve
