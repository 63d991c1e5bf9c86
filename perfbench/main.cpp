// perfbench entry point: argument parsing and the result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect m1,m2,...] [--commit REV] [--out-dir DIR]
//             [--reference-seed-offset K]
//
// --expect names the metrics the result must carry (run.py passes the
// BENCHMARK.json list for the mode); a missing or non-finite one makes the
// run fail. --reference-seed-offset scores the correctness sample with a
// deliberately different model, so the checks must fail (used by
// test_perfbench.py).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                 [--expect m1,m2,...] [--commit REV] [--out-dir DIR]\n"
            << "                 [--reference-seed-offset K]\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::vector<std::string> expect;
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value);
      else if (arg == "--seconds") options.seconds = std::stod(value);
      else if (arg == "--trace") options.trace = std::stoi(value) != 0;
      else if (arg == "--expect") expect = split(value);
      else if (arg == "--commit") options.commit = value;
      else if (arg == "--out-dir") options.out_dir = value;
      else if (arg == "--reference-seed-offset") options.reference_seed_offset = std::stoull(value);
      else usage("unknown flag " + arg);
    }
  } catch (const std::logic_error&) {
    usage("bad numeric value");
  }
  options.spec = perfbench::find_workload(workload);
  if (options.spec == nullptr) usage("unknown workload '" + workload + "'");
  if (options.seconds <= 0.0) usage("--seconds must be > 0");

  perfbench::Report report;
  perfbench::stamp_host(options, report);
  try {
    if (options.spec->scan) {
      perfbench::run_scan(options, report);
    } else {
      perfbench::run_train(options, report);
    }
  } catch (const std::exception& e) {
    std::cout << "perfbench: run failed: " << e.what() << std::endl;
    return 1;
  }
  const bool complete = report.print(expect);
  return complete && report.correct() ? 0 : 1;
}
