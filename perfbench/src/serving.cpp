// serve-zipf: ldc_serve over its unix socket, driven open-loop.
//
// The server gets `lanes - 2` worker lanes so that its lanes, its event
// loop and this single-threaded client together use no more threads than
// the host has. Requests draw from a Zipf hot set of ring jobs that is
// larger than the result cache, so hits (cache reads) and misses plus
// evictions (cache writes) both happen. Every ok result is checked
// against the same job run in-process through the AlgorithmRegistry.
//
// Phases: set-up (server start + warm-up, five times), the reference
// rate (latency percentiles and failures), then the capacity: the server
// kept busy by a fixed number of requests in flight, its results counted
// against the CPU time it used.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ldc/service/algorithms.hpp"
#include "ldc/service/cache.hpp"
#include "ldc/service/job.hpp"
#include "load_gen.hpp"
#include "open_loop.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ldc;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;
using harness::Json;

constexpr std::size_t kHotJobs = 128;
constexpr std::uint32_t kRingN = 2000;
constexpr double kZipfS = 1.1;
/// The cache holds 48 results, well under the hot set.
constexpr std::size_t kCacheEntries = 48;
constexpr std::size_t kConnections = 4;
/// Reference rate: windows of 1000 requests, filling about 25% of the
/// run; each window's 99th percentile has ten samples beyond it, and the
/// reported percentiles are the medians over the windows, so one host
/// hiccup moves one window.
constexpr double kRefRate = 500.0;
constexpr double kRefShare = 0.25;
constexpr std::size_t kWindowRequests = 1000;
/// The capacity: the server kept busy by kInFlight requests in flight
/// (a closed loop on the same client), in chunks of kChunkRequests spread
/// over about 40% of the run between hot-set passes (the chunk count is
/// sized for kSizingRate jobs/s). Jobs per core is the results of every
/// chunk divided by the CPU time the server used for them. On a shared
/// host the wall-clock rate follows the CPU time the hypervisor steals;
/// the server's CPU clock leaves that time out.
constexpr std::uint64_t kInFlight = 16;
constexpr std::size_t kChunkRequests = 3000;
constexpr double kCapacityShare = 0.4;
constexpr double kSizingRate = 2500.0;
/// Traced runs also look for the highest offered rate whose p99 stays
/// within kLimitP99Ms with no rejections and no growing queue, bisecting
/// between the reference rate and the saturated rate. Each probe offers
/// kProbeSeconds of load, and a failing probe is repeated once. Those
/// verdicts follow stolen CPU time, so the rate is reported, not gated.
constexpr int kBisections = 5;
constexpr double kProbeSeconds = 2.0;
constexpr double kLimitP99Ms = 50.0;
/// Server start + warm-up repeats; set-up time is their median.
constexpr int kSetups = 5;
/// In-process passes over the hot set.
constexpr int kHotPasses = 12;

double secs_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// ldc_load's rank-r hot-set job (a rank-determined algorithm on a
/// ring), with its seed drawn from the workload seed.
service::Job hot_job(std::uint64_t seed, std::size_t rank) {
  bench::LoadOptions opt;
  opt.graph_n = kRingN;
  service::Job job = bench::loadgen_detail::hot_job(opt, rank);
  job.seed = seed * 1000003 + rank;
  job.normalize();
  return job;
}

/// A running ldc_serve child. The destructor stops it (SIGTERM, then
/// SIGKILL after 10 s) and always reaps it.
class Server {
 public:
  Server(const std::string& bin, const std::string& socket,
         std::size_t workers) : socket_(socket) {
    std::filesystem::remove(socket_);
    const std::vector<std::string> argv_s = {
        bin,
        "--socket", socket_,
        "--workers", std::to_string(workers),
        "--cache-bytes",
        std::to_string(kCacheEntries * service::ResultCache::kEntryBytes),
        "--queue-capacity", "256"};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("perfbench: fork failed");
    if (pid_ == 0) {
      std::vector<char*> argv;
      for (const auto& s : argv_s) argv.push_back(const_cast<char*>(s.c_str()));
      argv.push_back(nullptr);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(bin.c_str(), argv.data());
      std::_Exit(127);
    }
    // Ready when a session answers `stats`.
    const auto t = Clock::now();
    for (;;) {
      try {
        const int fd = open_session(socket_);
        round_trip(fd, R"({"op":"stats","counters_only":true})");
        ::close(fd);
        return;
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("perfbench: ldc_serve exited at start");
        }
        if (secs_since(t) > 10) {
          stop();
          throw std::runtime_error("perfbench: ldc_serve did not start");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  long pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto t = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (secs_since(t) > 10) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    std::filesystem::remove(socket_);
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Fresh sessions for one phase; closed when the phase is over.
struct Sessions {
  std::vector<int> fds;
  Sessions(const std::string& socket, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) fds.push_back(open_session(socket));
  }
  ~Sessions() {
    for (int fd : fds) ::close(fd);
  }
  Sessions(const Sessions&) = delete;
  Sessions& operator=(const Sessions&) = delete;
};

struct HotSet {
  std::vector<std::string> lines;        ///< submit line per rank
  std::vector<std::uint64_t> digest;     ///< reference color digest
  std::vector<double> cdf;               ///< Zipf(s) over ranks
};

/// Uniformly spaced arrivals at `rate`, Zipf-drawn jobs, round-robin
/// over the sessions.
std::vector<Request> schedule(const HotSet& hot, double rate,
                              std::size_t count, std::mt19937_64& rng) {
  std::vector<Request> reqs(count);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    reqs[i].due_ns = static_cast<std::uint64_t>(
        static_cast<double>(i) * 1e9 / rate);
    reqs[i].conn = i % kConnections;
    const auto it = std::lower_bound(hot.cdf.begin(), hot.cdf.end(), u(rng));
    reqs[i].job = std::min<std::size_t>(
        static_cast<std::size_t>(it - hot.cdf.begin()), hot.cdf.size() - 1);
  }
  return reqs;
}

/// One phase on fresh sessions, sampling the queue depth through `stats`
/// on a control session.
PhaseResult drive(const Server& server, const HotSet& hot,
                  const std::vector<Request>& reqs,
                  std::uint64_t max_in_flight = 0) {
  Sessions s(server.socket(), kConnections);
  Sessions control(server.socket(), 1);
  PhaseOptions opt;
  opt.line = [&](const Request& q) { return hot.lines[q.job]; };
  opt.check = [&](const Request& q, const Json& ev) {
    return ev.at("valid").as_bool() &&
           ev.at("color_digest").as_uint() == hot.digest[q.job];
  };
  opt.stats_fd = control.fds[0];
  opt.max_in_flight = max_in_flight;
  return run_phase(s.fds, reqs, opt);
}

std::vector<double> answered(const PhaseResult& r, int cached) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    if (std::isnan(r.latency_ms[i])) continue;
    if (cached >= 0 && r.cached_flag[i] != cached) continue;
    xs.push_back(r.latency_ms[i]);
  }
  return xs;
}

/// The mean queue depth over the last third of the window exceeds the
/// first third's by more than a few jobs: the backlog is growing.
bool queue_grows(const std::vector<double>& depth) {
  if (depth.size() < 6) return false;
  const std::size_t third = depth.size() / 3;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < third; ++i) {
    first += depth[i];
    last += depth[depth.size() - 1 - i];
  }
  return (last - first) / static_cast<double>(third) > 4.0;
}

}  // namespace

void run_serve(const WorkloadArgs& a, SpanRecorder& spans,
               WorkloadResult& out) {
  const std::size_t lanes = a.lanes > 3 ? a.lanes - 2 : 1;
  const std::string bin = a.bin_dir + "/ldc_serve";
  const std::string socket = a.work_dir + "/serve.sock";
  std::mt19937_64 rng(a.seed);

  // Hot set, run in-process: the reference digests, and the cost of a
  // cache miss, alone (serial) and while every server lane runs one
  // (lanes). Each job's time is its median over the passes, and the
  // reported time the mean of those over the hot set (the four
  // algorithms differ in cost, so a median over jobs would jump between
  // them). The first pass runs before the server starts; the rest run
  // while it idles between load phases, so the timings sample the whole
  // run rather than its first seconds.
  HotSet hot;
  hot.cdf = bench::loadgen_detail::zipf_cdf(kHotJobs, kZipfS);
  for (std::size_t r = 0; r < kHotJobs; ++r) {
    hot.lines.push_back(R"({"op":"submit","job":)" +
                        service::job_to_json(hot_job(a.seed, r)).dump() + "}");
  }
  auto run_job = [&](std::size_t r) {
    const service::Job job = hot_job(a.seed, r);
    const auto* algo = service::AlgorithmRegistry::instance().find(job.algorithm);
    const service::JobOutcome o =
        algo->run(service::build_graph(job.graph), job, {});
    return o.valid ? o.color_digest : 0;
  };
  hot.digest.assign(kHotJobs, 0);
  std::vector<std::vector<double>> serial_times(kHotJobs), lane_times(kHotJobs);
  int passes = 0;
  auto hot_pass = [&] {
    const int pass = passes++;
    {
      Scope sc(spans, "hot-set.AlgorithmRegistry.serial");
      for (std::size_t r = 0; r < kHotJobs; ++r) {
        const auto t = Clock::now();
        const std::uint64_t digest = run_job(r);
        serial_times[r].push_back(secs_since(t));
        if (pass == 0) hot.digest[r] = digest;
        out.check(digest != 0 && digest == hot.digest[r],
                  "hot job " + std::to_string(r) + " in-process");
      }
    }
    Scope sc(spans, "hot-set.AlgorithmRegistry.lanes");
    std::vector<std::uint64_t> digests(kHotJobs, 0);
    std::vector<double> secs(kHotJobs, 0);
    std::atomic<std::size_t> next{0};
    {
      std::vector<std::jthread> workers;
      for (std::size_t l = 0; l < lanes; ++l) {
        workers.emplace_back([&] {
          for (std::size_t r; (r = next++) < kHotJobs;) {
            const auto t = Clock::now();
            try {
              digests[r] = run_job(r);
            } catch (const std::exception&) {
              digests[r] = 0;  // counted as a failed check below
            }
            secs[r] = secs_since(t);
          }
        });
      }
    }
    for (std::size_t r = 0; r < kHotJobs; ++r) {
      lane_times[r].push_back(secs[r]);
      out.check(digests[r] != 0 && digests[r] == hot.digest[r],
                "hot job " + std::to_string(r) + " on lanes");
    }
  };
  hot_pass();

  // Set-up, kSetups times: start the server and warm it up. The last one
  // stays up for the measured phases.
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  {
    Scope sc(spans, "setup");
    for (int rep = 0; rep < kSetups; ++rep) {
      if (server) server->stop();
      const auto t = Clock::now();
      {
        Scope st(spans, "ldc_serve.start");
        server = std::make_unique<Server>(bin, socket, lanes);
      }
      // Warm-up: the whole hot set at once.
      Scope w(spans, "setup.warm-up");
      std::vector<Request> burst(kHotJobs);
      for (std::size_t r = 0; r < kHotJobs; ++r) {
        burst[r].conn = r % kConnections;
        burst[r].job = r;
      }
      const PhaseResult warm = drive(*server, hot, burst);
      setup_s.push_back(secs_since(t));
      out.check(warm.failures() == 0 && warm.reconciled(), "warm-up phase");
    }
  }

  // Reference rate.
  const std::size_t windows = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(a.seconds * kRefShare * kRefRate / kWindowRequests)),
      3, 20);
  PhaseResult ref;
  {
    Scope sc(spans, "load.reference");
    ref = drive(*server, hot,
                schedule(hot, kRefRate, windows * kWindowRequests, rng));
  }
  std::printf("reference rate %.0f jobs/s over %zu sessions: sent %llu "
              "admitted %llu rejected %llu results %llu ok %llu cached %llu\n",
              kRefRate, kConnections,
              static_cast<unsigned long long>(ref.sent),
              static_cast<unsigned long long>(ref.admitted),
              static_cast<unsigned long long>(ref.rejected),
              static_cast<unsigned long long>(ref.results),
              static_cast<unsigned long long>(ref.ok),
              static_cast<unsigned long long>(ref.cached));
  std::vector<double> p50s, p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> xs;
    for (std::size_t i = w * kWindowRequests; i < (w + 1) * kWindowRequests;
         ++i) {
      if (!std::isnan(ref.latency_ms[i])) xs.push_back(ref.latency_ms[i]);
    }
    const LatencySummary ws = summarize(xs);
    std::printf("%s\n", describe("submit->result latency, window " +
                                     std::to_string(w + 1),
                                 ws, "ms")
                            .c_str());
    p50s.push_back(ws.p50);
    p99s.push_back(ws.p99);
  }
  const double ref_p50 = median(p50s), ref_p99 = median(p99s);
  std::printf("median over %zu windows (reported, not gated): p50_ms %.4f "
              "ms, p99_ms %.4f ms\n",
              windows, ref_p50, ref_p99);
  out.attempted += ref.sent;
  out.failed += ref.failures();
  if (ref.failures() != 0 || !ref.reconciled()) {
    std::printf("FAILED: reference phase: %llu failures, reconciled %d\n",
                static_cast<unsigned long long>(ref.failures()),
                static_cast<int>(ref.reconciled()));
    if (ref.failures() == 0) ++out.failed;
  }

  hot_pass();

  // Capacity.
  const std::size_t chunks = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(
          a.seconds * kCapacityShare * kSizingRate / kChunkRequests)),
      3, 20);
  std::uint64_t cap_results = 0;
  double cap_wall_s = 0, cap_cpu_s = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    PhaseResult r;
    {
      Scope sc(spans, "load.capacity " + std::to_string(c + 1));
      std::vector<Request> reqs =
          schedule(hot, kSizingRate, kChunkRequests, rng);
      for (Request& q : reqs) q.due_ns = 0;
      const double cpu0 = process_cpu_s(server->pid());
      const auto t = Clock::now();
      r = drive(*server, hot, reqs, kInFlight);
      cap_wall_s += secs_since(t);
      cap_cpu_s += process_cpu_s(server->pid()) - cpu0;
    }
    cap_results += r.results;
    out.attempted += r.sent;
    out.failed += r.failures();
    out.check(r.reconciled(),
              "capacity chunk " + std::to_string(c + 1) + " reconciles");
    if (passes < kHotPasses) hot_pass();
  }
  const double saturated = static_cast<double>(cap_results) / cap_wall_s;
  const double per_core =
      cap_cpu_s > 0 ? static_cast<double>(cap_results) / cap_cpu_s : 0;
  std::printf("capacity with %llu requests in flight, %zu chunks: %llu "
              "results in %.3f s (%.1f jobs/s on %zu lanes) using %.3f s of "
              "server CPU: %.1f jobs per CPU second\n",
              static_cast<unsigned long long>(kInFlight), chunks,
              static_cast<unsigned long long>(cap_results), cap_wall_s,
              saturated, lanes, cap_cpu_s, per_core);
  out.check(per_core > 0, "server CPU time measured");

  // The highest rate within the latency limit: traced runs only.
  double slo_rate = 0;
  if (a.trace) {
    auto attempt = [&](double rate) {
      Scope sc(spans, "load.probe " + std::to_string(static_cast<int>(rate)));
      const auto count = static_cast<std::size_t>(rate * kProbeSeconds);
      const PhaseResult r =
          drive(*server, hot, schedule(hot, rate, count, rng));
      const double p99 = summarize(answered(r, -1)).p99;
      const bool grows = queue_grows(r.queue_depth);
      // Rejections are the expected overload signal here; anything else
      // that goes wrong is a failure.
      const std::uint64_t broken =
          r.failed + r.bad + r.errors + r.unmatched + r.missing;
      out.attempted += r.sent;
      out.failed += broken;
      const bool pass =
          r.rejected == 0 && broken == 0 && !grows && p99 <= kLimitP99Ms;
      std::printf("probe %7.1f jobs/s: p99 %8.3f ms, rejected %llu, queue "
                  "%s, %s\n", rate, p99,
                  static_cast<unsigned long long>(r.rejected),
                  grows ? "growing" : "steady", pass ? "pass" : "fail");
      return pass;
    };
    const bool ref_ok = ref.failures() == 0 && ref_p99 <= kLimitP99Ms &&
                        !queue_grows(ref.queue_depth);
    // lo: highest passing rate so far; hi: lowest failing, at first the
    // saturated rate, which no offered rate can keep up for long.
    double lo = ref_ok ? kRefRate : 0, hi = saturated;
    for (int k = 0; k < kBisections && lo > 0 && hi > lo; ++k) {
      const double mid = std::sqrt(lo * hi);
      const bool pass = attempt(mid) || attempt(mid);
      (pass ? lo : hi) = mid;
    }
    slo_rate = lo;
    std::printf("highest rate within p99 <= %.0f ms: %.1f jobs/s on %zu "
                "lanes\n", kLimitP99Ms, slo_rate, lanes);
  }

  while (passes < kHotPasses) hot_pass();
  auto per_job = [](const std::vector<std::vector<double>>& times) {
    double sum = 0;
    for (const auto& ts : times) sum += median(ts);
    return sum / static_cast<double>(times.size());
  };
  const double serial_job_s = per_job(serial_times);
  const double lane_job_s = per_job(lane_times);
  std::printf("hot set: %zu jobs over %d passes: %.4f ms per job alone, "
              "%.4f ms per job on %zu busy lanes\n",
              kHotJobs, kHotPasses, serial_job_s * 1e3, lane_job_s * 1e3,
              lanes);

  const double rss = peak_rss_mib(server->pid());
  if (a.trace) {
    Scope sc(spans, "service.stats");
    Sessions s(server->socket(), 1);
    std::vector<double> rtt_us;
    for (int i = 0; i < 200; ++i) {
      const auto t = Clock::now();
      round_trip(s.fds[0], R"({"op":"stats","counters_only":true})");
      rtt_us.push_back(secs_since(t) * 1e6);
    }
    const Json stats =
        Json::parse_line(round_trip(s.fds[0], R"({"op":"stats"})"))
            .at("metrics");
    const Json& cache = stats.at("cache");
    const double hits = cache.at("hits").as_double();
    const double misses = cache.at("misses").as_double();
    double result_p99 = 0;
    if (const Json* l = stats.find("latency")) {
      for (const auto& [algo, h] : l->as_object()) {
        result_p99 = std::max(result_p99, h.at("p99_ms").as_double());
      }
    }
    double depth_max = 0;
    for (double d : ref.queue_depth) depth_max = std::max(depth_max, d);
    out.set("service.cache_hit_ratio", hits / std::max(hits + misses, 1.0));
    out.set("service.evictions", cache.at("evictions").as_double());
    out.set("service.queue_depth_max", depth_max);
    out.set("service.result_p99_ms", result_p99);
    out.set("service.hit_p99_ms", summarize(answered(ref, 1)).p99);
    out.set("service.miss_p99_ms", summarize(answered(ref, 0)).p99);
    out.set("service.run_ms", serial_job_s * 1e3);
    out.set("frontend.rtt_us", median(rtt_us));
    out.set("load.p50_ms", ref_p50);
    out.set("load.p99_ms", ref_p99);
    out.set("load.late_p99_ms", summarize(ref.late_ms).p99);
    out.set("load.slo_jobs_per_s_core", slo_rate / static_cast<double>(lanes));
  } else {
    out.set("setup_s", median(setup_s));
    out.set("color_s", lane_job_s);
    out.set("color_serial_s", serial_job_s);
    out.set("rss_mib", rss);
    out.set("jobs_per_s_core", per_core);
  }
  server->stop();
}

}  // namespace perfbench
