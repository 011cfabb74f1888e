// Result reporting for the benchmark: metric names and units, the
// percentile rule, the host fingerprint and the one-line JSON result.
//
// Every run ends with one JSON line on stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Everything printed before it is for people (and carries the host
// fingerprint and sample counts that the numbers depend on).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ldc/harness/json.hpp"

namespace perfbench {

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit — the only names BENCHMARK.json admits.
bool valid_metric_name(std::string_view name);

/// Median of an unsorted sample by the nearest-rank rule of
/// bench/load_gen.hpp's percentile_sorted (rank ceil(N / 2)): with an even
/// count it is the lower of the two middle samples.
double median(std::vector<double> xs);

/// The percentile rule: of the candidates 99.9, 99, 95, 90 and 50, the
/// highest whose nearest-rank position leaves at least ten samples beyond
/// it in a sample of `n`. Returns 0 when even the median is unsupported
/// (fewer than 20 samples).
double supported_tail(std::size_t n);

/// Latency summary of one sample, as printed for people: count, p50,
/// p99 and the rule's supported tail.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0, p99 = 0;
  double tail_q = 0;     ///< supported_tail(count)
  double tail = 0;       ///< the sample at tail_q (0 when unsupported)
};
LatencySummary summarize(std::vector<double> xs);
std::string describe(const std::string& what, const LatencySummary& s,
                     const char* unit);

/// Named metrics with units, in insertion order. add() rejects a name
/// that valid_metric_name refuses or that is already present.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  const std::vector<std::pair<std::string, ldc::harness::Json>>& items()
      const {
    return items_;
  }
  /// {"name":{"value":v,"unit":u},...}
  ldc::harness::Json to_json() const;

 private:
  std::vector<std::pair<std::string, ldc::harness::Json>> items_;
};

/// The final stdout line.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Report& report);

/// Host fingerprint: nproc, CPU model, the ISA flags the hot loops care
/// about, L3 size, plus the source revision. Results are comparable only
/// when fingerprints match.
ldc::harness::Json host_fingerprint(const std::string& git_rev);

/// Cumulative (steal, total) jiffies of all CPUs from /proc/stat: time
/// the hypervisor ran someone else while this host's CPUs were busy.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_jiffies();

/// Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable.
double peak_rss_mib(long pid);

/// CPU time a process has used so far, all threads, in seconds; throws
/// if the process's CPU clock cannot be read. On a guest that accounts
/// steal time, time the hypervisor stole is not in it.
double process_cpu_s(long pid);

/// One metric BENCHMARK.json declares. Every run prints every metric of
/// its table, in table order (a layer a workload never enters reads 0).
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0. The serving latency percentiles are printed
/// for people but not gated: on a shared host they follow the CPU time
/// the hypervisor steals, far beyond any usable bound.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},   {"color_s", "s"},         {"color_serial_s", "s"},
    {"rss_mib", "MiB"}, {"jobs_per_s_core", "1/s"},
};

/// Trace marks whose per-mark rollups are reported. The Theorem 1.3
/// stage's rows include its sub-runs' time as absorbed rows; the
/// two-phase/* and oldc/* rollups break those sub-runs down from their
/// own transcripts (the auxiliary solve's rounds carry the oldc/* marks
/// of the solver it calls). Rows under no mark, or under a mark not
/// listed, roll up as "unlisted".
inline constexpr const char* kMarks[] = {
    "pipeline/linial",   "pipeline/theorem-1.3", "two-phase/class-announce",
    "two-phase/phase-I", "two-phase/phase-II",   "oldc/types",
    "oldc/p1-index",     "oldc/p0-classes",      "unlisted",
};

/// "two-phase/phase-I" -> "mark.two-phase-phase-I" (metric-name safe).
std::string mark_metric(const std::string& mark);

/// Printed with --trace 1: the fixed per-layer list followed by three
/// rollups (_s, _rounds, _bits) per entry of kMarks and
/// mark.between-rounds_s.
std::vector<MetricDef> per_layer_defs();

/// Builds a report holding every metric of `defs`, in order, taking
/// values from `values` (absent -> 0). Throws std::invalid_argument on a
/// value whose name `defs` does not declare.
Report tabulate(const std::vector<MetricDef>& defs,
                const std::vector<std::pair<std::string, double>>& values);

}  // namespace perfbench
