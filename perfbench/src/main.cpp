// ldc_perf: runs one benchmark workload and prints its result.
//
//   ldc_perf --workload linial-reg16|pipeline-reg64|serve-zipf
//            --seed N --seconds S --trace 0|1 --work-dir DIR [--git-rev R]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes the spans to DIR/trace-<workload>-<seed>.json as
// Chrome trace-event JSON. The last stdout line is the result object; the
// exit code is non-zero when any output failed its check.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ldc_perf: %s\n"
               "usage: ldc_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-rev R]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::size_t end = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != s.size()) usage(what);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, git_rev = "unknown";
  WorkloadArgs args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      args.seed = parse_u64(value, "bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value, "bad --seconds"));
      have_seconds = args.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--git-rev") {
      git_rev = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || args.work_dir.empty()) {
    usage("--seed, --seconds and --work-dir are required");
  }
  args.lanes = std::max(1u, std::thread::hardware_concurrency());
  args.bin_dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
  std::filesystem::create_directories(args.work_dir);

  void (*run)(const WorkloadArgs&, SpanRecorder&, WorkloadResult&) = nullptr;
  if (workload == "linial-reg16") run = run_linial;
  if (workload == "pipeline-reg64") run = run_pipeline;
  if (workload == "serve-zipf") run = run_serve;
  if (run == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  const ldc::harness::Json host = host_fingerprint(git_rev);
  std::printf("host %s\n", host.dump().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d lanes %zu\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, static_cast<int>(args.trace), args.lanes);
  std::fflush(stdout);

  SpanRecorder spans(args.trace);
  WorkloadResult result;
  const auto steal0 = cpu_steal_jiffies();
  try {
    SpanRecorder::Scope root(spans, workload);
    run(args, spans, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_perf: %s\n", e.what());
    return 1;
  }

  // The share of CPU time the hypervisor gave to other guests during the
  // run: when it is high, every timing above is inflated.
  const auto steal1 = cpu_steal_jiffies();
  std::printf("host steal during the run: %.1f%%\n",
              100.0 * static_cast<double>(steal1.first - steal0.first) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, steal1.second - steal0.second)));

  if (args.trace) {
    // Written once, at the end, then read back: the file must parse and
    // every span must nest inside its parent.
    const std::string path = args.work_dir + "/trace-" + workload + "-" +
                             std::to_string(args.seed) + ".json";
    ldc::harness::Json meta = ldc::harness::Json::object();
    meta.add("host", host);
    meta.add("workload", workload);
    meta.add("seed", args.seed);
    std::ofstream(path) << spans.to_trace_events(meta).dump() << "\n";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const auto back =
        spans_from_trace_events(ldc::harness::Json::parse(text.str()));
    result.check(back.size() == spans.spans().size() && spans_nest(back),
                 "span file " + path);
    std::printf("spans: %zu written to %s\n", back.size(), path.c_str());
  }

  const bool correct = result.failed == 0;
  const Report report =
      args.trace ? tabulate(per_layer_defs(), result.metrics)
                 : tabulate({std::begin(kEndToEnd), std::end(kEndToEnd)},
                            result.metrics);
  for (const auto& [name, m] : report.items()) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(),
                m.at("value").as_double(), m.at("unit").as_string().c_str());
  }
  std::printf("attempted %llu failed %llu fail_frac %.6f\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0);
  std::printf("%s\n", result_line(correct, std::max<std::uint64_t>(
                                               result.attempted, 1),
                                   result.failed, report)
                          .c_str());
  return correct ? 0 : 1;
}
