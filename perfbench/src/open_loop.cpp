#include "open_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include "load_gen.hpp"

namespace perfbench {

using ldc::harness::Json;

namespace {

using Clock = std::chrono::steady_clock;

/// How long after the last due time to wait for outstanding results.
constexpr std::uint64_t kDrainTimeoutNs = 10'000'000'000;
/// How often `stats` is requested on the control session.
constexpr std::uint64_t kStatsEveryNs = 50'000'000;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// One session's buffers and its local-id -> request map.
struct Session {
  int fd = -1;
  std::string out;              ///< bytes not yet written
  std::string in;               ///< bytes not yet split into lines
  std::vector<std::size_t> req;  ///< local id - 1 -> request index
};

/// Writes as much of s.out as the socket takes now.
void flush(Session& s) {
  while (!s.out.empty()) {
    const ssize_t n = ::send(s.fd, s.out.data(), s.out.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error(std::string("perfbench: send: ") +
                               std::strerror(errno));
    }
    s.out.erase(0, static_cast<std::size_t>(n));
  }
}

/// Reads what is available; returns complete lines. Throws on EOF.
std::vector<std::string> drain_lines(Session& s) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(s.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error(std::string("perfbench: recv: ") +
                               std::strerror(errno));
    }
    if (n == 0) throw std::runtime_error("perfbench: server closed a session");
    s.in.append(buf, static_cast<std::size_t>(n));
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = s.in.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.emplace_back(s.in, start, nl - start);
  }
  s.in.erase(0, start);
  return lines;
}

timespec to_timespec(std::uint64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(ns % 1000000000ull);
  return ts;
}

}  // namespace

PhaseResult run_phase(const std::vector<int>& fds,
                      const std::vector<Request>& reqs,
                      const PhaseOptions& opt) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  PhaseResult r;
  r.latency_ms.assign(reqs.size(), kNaN);
  r.late_ms.assign(reqs.size(), kNaN);
  r.cached_flag.assign(reqs.size(), 0);
  std::vector<char> answered(reqs.size(), 0);  // admitted/rejected seen

  std::vector<Session> sessions(fds.size());
  for (std::size_t c = 0; c < fds.size(); ++c) sessions[c].fd = fds[c];
  Session stats;
  stats.fd = opt.stats_fd;

  const std::uint64_t last_due = reqs.empty() ? 0 : reqs.back().due_ns;
  std::uint64_t last_send = 0;
  std::uint64_t next_stats = 0;
  std::uint64_t stats_pending = 0;

  auto handle = [&](Session& s, const std::string& line, std::uint64_t now) {
    const Json ev = Json::parse_line(line);
    const std::string& kind = ev.at("event").as_string();
    if (kind == "error") {
      ++r.errors;
      return;
    }
    if (kind != "admitted" && kind != "rejected" && kind != "result") return;
    const std::uint64_t local = ev.at("id").as_uint();
    if (local == 0 || local > s.req.size()) {
      ++r.unmatched;
      return;
    }
    const std::size_t i = s.req[local - 1];
    if (kind == "admitted" || kind == "rejected") {
      if (answered[i]) {
        ++r.unmatched;
        return;
      }
      answered[i] = 1;
      ++(kind == "admitted" ? r.admitted : r.rejected);
      return;
    }
    if (!std::isnan(r.latency_ms[i])) {
      ++r.unmatched;
      return;
    }
    ++r.results;
    r.latency_ms[i] =
        static_cast<double>(now - reqs[i].due_ns) / 1e6;
    if (ev.at("status").as_string() != "ok") {
      ++r.failed;
    } else if (!opt.check(reqs[i], ev)) {
      ++r.bad;
    } else {
      ++r.ok;
      if (ev.at("cached").as_bool()) {
        ++r.cached;
        r.cached_flag[i] = 1;
      }
    }
  };

  auto room = [&] {
    return opt.max_in_flight == 0 || r.in_flight() < opt.max_in_flight;
  };

  std::vector<pollfd> pfds;
  const auto t0 = Clock::now();
  std::size_t next = 0;
  for (;;) {
    std::uint64_t now = ns_since(t0);
    while (next < reqs.size() && reqs[next].due_ns <= now && room()) {
      if (opt.before_send) opt.before_send(next);
      const Request& q = reqs[next];
      Session& s = sessions.at(q.conn);
      s.out += opt.line(q);
      s.out += '\n';
      s.req.push_back(next);
      now = ns_since(t0);
      r.late_ms[next] = static_cast<double>(now - q.due_ns) / 1e6;
      last_send = now;
      ++r.sent;
      flush(s);
      ++next;
    }
    if (stats.fd >= 0 && next < reqs.size() && now >= next_stats) {
      stats.out += "{\"op\":\"stats\",\"counters_only\":true}\n";
      flush(stats);
      ++stats_pending;
      next_stats = now + kStatsEveryNs;
    }
    const bool all_sent = next == reqs.size();
    if (all_sent && r.admitted + r.rejected == r.sent &&
        r.results == r.admitted) {
      break;
    }
    // Drained, or stalled waiting for room: give up on what is left.
    const std::uint64_t deadline =
        std::max(last_due, last_send) + kDrainTimeoutNs;
    const bool waiting = all_sent || reqs[next].due_ns <= now;
    if (waiting && now > deadline) break;

    std::uint64_t wake = waiting ? deadline : reqs[next].due_ns;
    if (stats.fd >= 0 && !all_sent) wake = std::min(wake, next_stats);
    pfds.clear();
    for (const Session& s : sessions) {
      pfds.push_back({s.fd, static_cast<short>(
                                POLLIN | (s.out.empty() ? 0 : POLLOUT)),
                      0});
    }
    if (stats.fd >= 0) {
      pfds.push_back({stats.fd, static_cast<short>(
                                    POLLIN | (stats.out.empty() ? 0 : POLLOUT)),
                      0});
    }
    const timespec ts = to_timespec(wake > now ? wake - now : 0);
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
        errno != EINTR) {
      throw std::runtime_error(std::string("perfbench: ppoll: ") +
                               std::strerror(errno));
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      Session& s = k < sessions.size() ? sessions[k] : stats;
      if (pfds[k].revents & POLLOUT) flush(s);
      if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::vector<std::string> lines = drain_lines(s);
      const std::uint64_t at = ns_since(t0);
      for (const std::string& line : lines) {
        if (&s == &stats) {
          const Json ev = Json::parse_line(line);
          if (stats_pending > 0) --stats_pending;
          if (const Json* m = ev.find("metrics")) {
            r.queue_depth.push_back(m->at("queue_depth").as_double());
          }
          continue;
        }
        handle(s, line, at);
      }
    }
  }
  // Collect stats replies still in flight so the control session is in
  // step for whoever uses it next.
  while (stats_pending > 0) {
    pollfd p{stats.fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) break;
    stats_pending -= std::min<std::uint64_t>(stats_pending,
                                             drain_lines(stats).size());
  }
  const std::uint64_t replied = r.admitted + r.rejected;
  r.missing = (reqs.size() - r.sent) + (r.sent - std::min(r.sent, replied)) +
              (r.admitted - std::min(r.admitted, r.results));
  return r;
}

int open_session(const std::string& path) {
  const int fd = ldc::bench::loadgen_detail::connect_unix(path);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::string round_trip(int fd, const std::string& line) {
  Session s;
  s.fd = fd;
  s.out = line + "\n";
  for (;;) {
    flush(s);
    pollfd p{fd, static_cast<short>(POLLIN | (s.out.empty() ? 0 : POLLOUT)),
             0};
    if (::poll(&p, 1, 10000) == 0) {
      throw std::runtime_error("perfbench: no reply within 10 s");
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      std::vector<std::string> lines = drain_lines(s);
      if (!lines.empty()) return lines.front();
    }
  }
}

}  // namespace perfbench
