#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <time.h>

#include "load_gen.hpp"

namespace perfbench {

using ldc::harness::Json;
using ldc::bench::loadgen_detail::percentile_sorted;

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, 0.5);
}

double supported_tail(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return q;
  }
  return 0.0;
}

LatencySummary summarize(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  LatencySummary s;
  s.count = xs.size();
  s.p50 = percentile_sorted(xs, 0.50);
  s.p99 = percentile_sorted(xs, 0.99);
  s.tail_q = supported_tail(xs.size());
  s.tail = s.tail_q > 0 ? percentile_sorted(xs, s.tail_q) : 0.0;
  return s;
}

std::string describe(const std::string& what, const LatencySummary& s,
                     const char* unit) {
  char buf[256];
  if (s.tail_q > 0) {
    std::snprintf(buf, sizeof buf,
                  "%s: %zu samples, p50 %.4f %s, p99 %.4f %s, highest "
                  "supported percentile p%g = %.4f %s",
                  what.c_str(), s.count, s.p50, unit, s.p99, unit,
                  s.tail_q * 100, s.tail, unit);
  } else {
    std::snprintf(buf, sizeof buf,
                  "%s: %zu samples, p50 %.4f %s, p99 %.4f %s (too few "
                  "samples for any percentile with 10 beyond it)",
                  what.c_str(), s.count, s.p50, unit, s.p99, unit);
  }
  return buf;
}

void Report::add(const std::string& name, const std::string& unit,
                 double value) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("perfbench: bad metric name '" + name + "'");
  }
  for (const auto& [have, _] : items_) {
    if (have == name) {
      throw std::invalid_argument("perfbench: duplicate metric '" + name +
                                  "'");
    }
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("perfbench: metric '" + name +
                                "' is not finite");
  }
  Json m = Json::object();
  m.add("value", value);
  m.add("unit", unit);
  items_.emplace_back(name, std::move(m));
}

Json Report::to_json() const { return Json(Json::Object(items_)); }

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Report& report) {
  Json j = Json::object();
  j.add("correct", correct);
  j.add("attempted", attempted);
  j.add("failed", failed);
  j.add("metrics", report.to_json());
  return j.dump();
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

Json host_fingerprint(const std::string& git_rev) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0) model = value;
    if (key == "flags" && flags.empty()) flags = value;
  }
  Json isa = Json::array();
  std::istringstream fs(flags);
  for (std::string f; fs >> f;) {
    for (const char* want :
         {"sse4_2", "popcnt", "avx2", "bmi2", "avx512f", "avx512bw",
          "avx512vl", "avx512_vpopcntdq"}) {
      if (f == want) isa.push_back(f);
    }
  }
  Json j = Json::object();
  j.add("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  j.add("cpu_model", model);
  j.add("isa", std::move(isa));
  const std::string l3 =
      read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size");
  j.add("l3", l3.empty() ? std::string("unknown") : l3);
  j.add("git_rev", git_rev);
  return j;
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0, steal = 0;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mib(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double process_cpu_s(long pid) {
  clockid_t clock;
  timespec ts;
  if (::clock_getcpuclockid(static_cast<pid_t>(pid), &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("perfbench: cannot read the CPU clock of pid " +
                             std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

// Owns the strings behind the generated mark-rollup names.
const std::vector<std::string>& mark_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const char* m : kMarks) {
      const std::string base = mark_metric(m);
      out.push_back(base + "_s");
      out.push_back(base + "_rounds");
      out.push_back(base + "_bits");
    }
    out.push_back("mark.between-rounds_s");
    return out;
  }();
  return names;
}

}  // namespace

std::string mark_metric(const std::string& mark) {
  std::string out = "mark.";
  for (const char c : mark) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    out.push_back(keep ? c : '-');
  }
  return out;
}

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> defs = {
      {"storage.write_s", "s"},
      {"storage.open_s", "s"},
      {"graph.gen_s", "s"},
      {"runtime.word_round_s", "s"},
      {"runtime.ns_per_delivery", "ns"},
      {"runtime.msg_round_s", "s"},
      {"runtime.exchange_round_s", "s"},
      {"runtime.nodeprog_s", "s"},
      {"runtime.rounds", "count"},
      {"runtime.msgs", "count"},
      {"runtime.bits", "count"},
      {"linial.reduce_s", "s"},
      {"support.rs_eval_ns", "ns"},
      {"support.first_absent_ns", "ns"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.evictions", "count"},
      {"service.queue_depth_max", "count"},
      {"service.result_p99_ms", "ms"},
      {"service.hit_p99_ms", "ms"},
      {"service.miss_p99_ms", "ms"},
      {"service.run_ms", "ms"},
      {"frontend.rtt_us", "us"},
      {"load.p50_ms", "ms"},
      {"load.p99_ms", "ms"},
      {"load.late_p99_ms", "ms"},
      {"load.slo_jobs_per_s_core", "1/s"},
      {"engine.sharded_color_s", "s"},
      {"engine.dist_color_s", "s"},
      {"engine.x_shard_msgs", "count"},
      {"dist.wire_mib", "MiB"},
      {"dist.frames", "count"},
      {"trace.overhead", "ratio"},
  };
  const auto& names = mark_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& n = names[i];
    const char* unit = n.ends_with("_s") ? "s" : "count";
    defs.push_back({n.c_str(), unit});
  }
  return defs;
}

Report tabulate(const std::vector<MetricDef>& defs,
                const std::vector<std::pair<std::string, double>>& values) {
  for (const auto& [name, _] : values) {
    const bool declared =
        std::any_of(defs.begin(), defs.end(),
                    [&](const MetricDef& d) { return name == d.name; });
    if (!declared) {
      throw std::invalid_argument("perfbench: undeclared metric '" + name +
                                  "'");
    }
  }
  Report report;
  for (const MetricDef& d : defs) {
    double value = 0.0;
    for (const auto& [name, v] : values) {
      if (name == d.name) value = v;
    }
    report.add(d.name, d.unit, value);
  }
  return report;
}

}  // namespace perfbench
