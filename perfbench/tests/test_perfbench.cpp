// Tests of the benchmark's own logic: metric names, the percentile rule,
// the span file, open-loop timing from due times, and the closed loop's
// bound on requests in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include "open_loop.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using ldc::harness::Json;

TEST(MetricNames, EveryDeclaredNameIsValidAndUnique) {
  std::set<std::string> seen;
  std::vector<MetricDef> all(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const MetricDef& d : per_layer_defs()) all.push_back(d);
  for (const MetricDef& d : all) {
    EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
    EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
  }
  EXPECT_EQ(mark_metric("two-phase/phase-I"), "mark.two-phase-phase-I");
}

TEST(MetricNames, RejectsNamesOutsideTheAlphabet) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("mark.oldc-p1-index_s"));
  Report r;
  EXPECT_THROW(r.add("bad name", "s", 1.0), std::invalid_argument);
  r.add("ok", "s", 1.0);
  EXPECT_THROW(r.add("ok", "s", 2.0), std::invalid_argument);
  EXPECT_THROW(r.add("nan", "s", std::nan("")), std::invalid_argument);
}

TEST(MetricNames, TablesMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  auto check = [](const Json& list, const std::vector<MetricDef>& defs) {
    ASSERT_EQ(list.as_array().size(), defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(list.as_array()[i].at("name").as_string(), defs[i].name);
      EXPECT_EQ(list.as_array()[i].at("unit").as_string(), defs[i].unit);
    }
  };
  check(doc.at("end_to_end"),
        {std::begin(kEndToEnd), std::end(kEndToEnd)});
  check(doc.at("per_layer"), per_layer_defs());
}

TEST(Report, TabulateFillsEveryDeclaredMetricInOrder) {
  const std::vector<MetricDef> defs = {{"a", "s"}, {"b", "ms"}};
  const Report r = tabulate(defs, {{"b", 2.5}});
  ASSERT_EQ(r.items().size(), 2u);
  EXPECT_EQ(r.items()[0].first, "a");
  EXPECT_EQ(r.items()[0].second.at("value").as_double(), 0.0);
  EXPECT_EQ(r.items()[1].second.at("value").as_double(), 2.5);
  EXPECT_THROW(tabulate(defs, {{"c", 1.0}}), std::invalid_argument);
  const Json line = Json::parse(result_line(true, 3, 0, r));
  EXPECT_EQ(line.as_object().size(), 4u);
  EXPECT_EQ(line.at("metrics").at("b").at("unit").as_string(), "ms");
}

TEST(Percentiles, RuleNeedsTenSamplesBeyondThePercentile) {
  EXPECT_EQ(supported_tail(10000), 0.999);
  EXPECT_EQ(supported_tail(9999), 0.99);
  EXPECT_EQ(supported_tail(1000), 0.99);
  EXPECT_EQ(supported_tail(999), 0.95);
  EXPECT_EQ(supported_tail(200), 0.95);
  EXPECT_EQ(supported_tail(199), 0.90);
  EXPECT_EQ(supported_tail(100), 0.90);
  EXPECT_EQ(supported_tail(99), 0.50);
  EXPECT_EQ(supported_tail(20), 0.50);
  EXPECT_EQ(supported_tail(19), 0.0);
  EXPECT_EQ(supported_tail(0), 0.0);
}

TEST(Percentiles, NearestRankAndPrintedSampleCount) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const LatencySummary s = summarize(xs);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990);
  const std::string text = describe("lat", s, "ms");
  EXPECT_NE(text.find("1000 samples"), std::string::npos) << text;
  EXPECT_NE(text.find("p99 = 990"), std::string::npos) << text;
  EXPECT_NE(describe("lat", summarize({1, 2, 3}), "ms").find("too few"),
            std::string::npos);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // nearest rank: the lower middle
}

TEST(Spans, FileParsesAndChildrenNestInParents) {
  SpanRecorder rec(true);
  std::uint64_t inner_id = 0;
  {
    SpanRecorder::Scope root(rec, "root");
    {
      SpanRecorder::Scope a(rec, "a");
      SpanRecorder::Scope b(rec, "b");
      inner_id = b.id();
    }
    SpanRecorder::Scope c(rec, "c");
  }
  const Span& b = rec.spans().at(inner_id - 1);
  rec.add_closed("slice", b.id, b.start_ns, b.end_ns);
  ASSERT_EQ(rec.spans().size(), 5u);
  EXPECT_EQ(rec.spans()[1].parent, 1u);
  EXPECT_EQ(rec.spans()[2].parent, 2u);
  EXPECT_EQ(rec.spans()[3].parent, 1u);
  Json meta = Json::object();
  meta.add("workload", "test");
  const std::string text = rec.to_trace_events(meta).dump();
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 5u);
  EXPECT_EQ(doc.at("traceEvents").as_array()[0].at("ph").as_string(), "X");
  const std::vector<Span> back = spans_from_trace_events(doc);
  ASSERT_EQ(back.size(), 5u);
  EXPECT_TRUE(spans_nest(back));

  std::vector<Span> broken = back;
  broken[2].end_ns = broken[0].end_ns + 1;  // child outlives its parent
  EXPECT_FALSE(spans_nest(broken));
  broken = back;
  broken[1].parent = 3;  // parent must be an earlier span
  EXPECT_FALSE(spans_nest(broken));
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder rec(false);
  {
    SpanRecorder::Scope s(rec, "x");
  }
  rec.add_closed("y", 0, 0, 1);
  EXPECT_TRUE(rec.spans().empty());
}

/// Answers every submit line on `fd` at once with admitted + ok result,
/// until the peer closes.
void echo_server(int fd) {
  std::string in;
  char buf[4096];
  std::uint64_t id = 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return;
    in.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = in.find('\n')) != std::string::npos;) {
      in.erase(0, nl + 1);
      ++id;
      const std::string reply =
          "{\"event\":\"admitted\",\"id\":" + std::to_string(id) +
          "}\n{\"event\":\"result\",\"id\":" + std::to_string(id) +
          ",\"status\":\"ok\",\"cached\":false}\n";
      if (::write(fd, reply.data(), reply.size()) < 0) return;
    }
  }
}

TEST(OpenLoop, StallInTheClientShowsInLatencyFromDueTime) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread server(echo_server, sv[1]);
  std::vector<Request> reqs(200);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].due_ns = i * 500000;  // 2000 requests/s: gaps under 1 ms
  }
  PhaseOptions opt;
  opt.line = [](const Request&) { return std::string("{}"); };
  opt.check = [](const Request&, const Json&) { return true; };
  constexpr std::size_t kStalled = 50;
  opt.before_send = [](std::size_t i) {
    if (i == kStalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  };
  timespec cpu0{}, cpu1{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);
  const auto wall0 = std::chrono::steady_clock::now();
  const PhaseResult r = run_phase({sv[0]}, reqs, opt);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
  const double cpu_s = static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) +
                       static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec) / 1e9;
  ::shutdown(sv[0], SHUT_RDWR);
  server.join();
  ::close(sv[0]);
  ::close(sv[1]);

  EXPECT_EQ(r.sent, 200u);
  EXPECT_EQ(r.ok, 200u);
  EXPECT_TRUE(r.reconciled());
  EXPECT_EQ(r.failures(), 0u);
  // The stalled request and those due during the stall were sent late,
  // and their latency, timed from the due time, carries the stall ...
  EXPECT_GE(r.late_ms[kStalled], 40.0);
  EXPECT_GE(r.latency_ms[kStalled], 40.0);
  EXPECT_GE(r.latency_ms[kStalled + 40], 15.0);
  // ... which a send-time stamp would have hidden.
  EXPECT_LT(r.latency_ms[kStalled] - r.late_ms[kStalled], 20.0);
  // Away from the stall the client keeps to the schedule ...
  std::vector<double> calm(r.late_ms.begin(), r.late_ms.begin() + 40);
  EXPECT_LT(summarize(calm).p50, 5.0);
  // ... and sleeps through the sub-ms gaps instead of spinning at a
  // zero-millisecond timeout: its thread's CPU time stays well below the
  // phase's wall time (time the host takes away counts in neither).
  EXPECT_LT(cpu_s, 0.25 * wall_s) << cpu_s << " s CPU in " << wall_s << " s";
}

/// Answers one request at a time, 1 ms after the one before, and records
/// the most requests it ever held unanswered.
void one_at_a_time_server(int fd, std::uint64_t* max_pending) {
  std::string in;
  char buf[4096];
  std::uint64_t received = 0, answered = 0;
  for (;;) {
    // Block only when nothing is pending; otherwise take what has come.
    const ssize_t n = received == answered
                          ? ::read(fd, buf, sizeof buf)
                          : ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0 || (n < 0 && received == answered)) return;
    if (n > 0) in.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = in.find('\n')) != std::string::npos;) {
      in.erase(0, nl + 1);
      ++received;
    }
    *max_pending = std::max(*max_pending, received - answered);
    if (answered == received) continue;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++answered;
    const std::string reply =
        "{\"event\":\"admitted\",\"id\":" + std::to_string(answered) +
        "}\n{\"event\":\"result\",\"id\":" + std::to_string(answered) +
        ",\"status\":\"ok\",\"cached\":false}\n";
    if (::write(fd, reply.data(), reply.size()) < 0) return;
  }
}

/// Runs 30 requests, all due at once, against one_at_a_time_server and
/// returns the most it held unanswered.
std::uint64_t most_pending(std::uint64_t max_in_flight) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::uint64_t max_pending = 0;
  std::thread server(one_at_a_time_server, sv[1], &max_pending);
  PhaseOptions opt;
  opt.line = [](const Request&) { return std::string("{}"); };
  opt.check = [](const Request&, const Json&) { return true; };
  opt.max_in_flight = max_in_flight;
  const PhaseResult r = run_phase({sv[0]}, std::vector<Request>(30), opt);
  ::shutdown(sv[0], SHUT_RDWR);
  server.join();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_EQ(r.ok, 30u);
  EXPECT_TRUE(r.reconciled());
  EXPECT_EQ(r.failures(), 0u);
  EXPECT_EQ(r.in_flight(), 0u);
  return max_pending;
}

TEST(OpenLoop, BoundOnRequestsInFlightMakesAClosedLoop) {
  EXPECT_LE(most_pending(3), 3u);
  // Without the bound every request due at once is sent at once.
  EXPECT_GT(most_pending(0), 3u);
}

}  // namespace
}  // namespace perfbench
