// The benchmark's three workloads. Each makes its inputs from the seed,
// measures, checks every output, and fills a WorkloadResult; main.cpp
// turns that into the result line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct WorkloadArgs {
  std::uint64_t seed = 1;
  double seconds = 1.0;    ///< measurement budget of one run
  bool trace = false;      ///< per-layer run instead of end-to-end
  std::string work_dir;    ///< scratch space inside the checkout
  std::string bin_dir;     ///< where ldc_serve / ldc_shard live
  std::size_t lanes = 1;   ///< nproc
};

struct WorkloadResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  /// Counts one checked operation; prints `what` when it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
};

void run_linial(const WorkloadArgs& args, SpanRecorder& spans,
                WorkloadResult& out);
void run_pipeline(const WorkloadArgs& args, SpanRecorder& spans,
                  WorkloadResult& out);
void run_serve(const WorkloadArgs& args, SpanRecorder& spans,
               WorkloadResult& out);

}  // namespace perfbench
