// Single-threaded open-loop client for the ldc_serve socket protocol.
//
// Requests follow a fixed schedule of due times and are sent when due,
// whether or not earlier ones have been answered. Every latency is timed
// from the request's due time, not from when it was actually written, so
// a stall anywhere — in the server, the socket or this client — shows up
// in the latency of every request it delayed; how late the client itself
// ran is reported separately. Waits use ppoll(2) with nanosecond
// timeouts, so sub-millisecond gaps between requests are slept, not spun.
// With a bound on the requests in flight, the same driver runs a closed
// loop: a due request also waits for an earlier one to be answered.
//
// One client thread owns every connection. Each connection must be a
// fresh session: the server numbers a session's submits 1, 2, 3, ...,
// which is how replies are matched to requests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ldc/harness/json.hpp"

namespace perfbench {

struct Request {
  std::uint64_t due_ns = 0;  ///< offset from the start of the phase
  std::size_t conn = 0;      ///< index into the phase's connections
  std::size_t job = 0;       ///< caller's job index (for checks and lines)
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t results = 0;
  std::uint64_t ok = 0;           ///< status ok and the check passed
  std::uint64_t cached = 0;       ///< ok results served from the cache
  std::uint64_t failed = 0;       ///< status other than ok
  std::uint64_t bad = 0;          ///< status ok but the check failed
  std::uint64_t errors = 0;       ///< protocol error events
  std::uint64_t missing = 0;      ///< never sent, no admission reply, or
                                  ///< admitted and no result, by the drain
                                  ///< deadline
  std::uint64_t unmatched = 0;    ///< replies naming no request of ours
  /// Per request (index = request), NaN when it never got a result.
  std::vector<double> latency_ms;  ///< due time -> result arrival
  std::vector<double> late_ms;     ///< due time -> actual send
  std::vector<char> cached_flag;
  /// Queue depth from `stats` replies sampled during the send window.
  std::vector<double> queue_depth;

  /// Sent but not answered correctly: rejected, failed, checked bad,
  /// protocol errors and missing results.
  std::uint64_t failures() const {
    return rejected + failed + bad + errors + missing + unmatched;
  }
  /// sent = admitted + rejected and results = admitted.
  bool reconciled() const {
    return sent == admitted + rejected && results == admitted &&
           errors == 0 && unmatched == 0;
  }
  /// Sent and not yet answered by a rejection or a result.
  std::uint64_t in_flight() const { return sent - rejected - results; }
};

struct PhaseOptions {
  /// Renders the submit line for a request (no trailing newline).
  std::function<std::string(const Request&)> line;
  /// Validates an ok result for a request.
  std::function<bool(const Request&, const ldc::harness::Json&)> check;
  /// Called just before request i is sent (tests use it to inject a
  /// stall into the client itself).
  std::function<void(std::size_t)> before_send;
  /// A separate session on which `stats` is requested every 50 ms during
  /// the send window (-1: no sampling).
  int stats_fd = -1;
  /// At most this many requests in flight (0: no bound, open loop).
  std::uint64_t max_in_flight = 0;
};

/// Runs one phase over `fds` (fresh sessions; run_phase does not close
/// them). Requests must be sorted by due_ns. Results still outstanding
/// 10 s after the last due time or the last send, whichever is later,
/// count as missing; so do requests that waited that long for room.
PhaseResult run_phase(const std::vector<int>& fds,
                      const std::vector<Request>& reqs,
                      const PhaseOptions& opt);

/// A fresh non-blocking session on the server's unix socket.
int open_session(const std::string& path);

/// Sends one request line on a blocking-capable fd and returns the first
/// reply line (used for idle `stats` round trips). Throws on EOF.
std::string round_trip(int fd, const std::string& line);

}  // namespace perfbench
