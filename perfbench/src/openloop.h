#ifndef RRRE_PERFBENCH_OPENLOOP_H_
#define RRRE_PERFBENCH_OPENLOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// How long the generator waits for a response before the request counts
/// as failed.
constexpr int kResponseTimeoutUs = 2000000;

/// An open-loop request schedule: Poisson arrivals at `rate` per second for
/// `seconds`, drawn from `seed`. Request k is due at its arrival time
/// whatever happened to earlier requests, and goes to connection
/// k mod `connections`. A share `catalog_share` of the requests are bare-user
/// catalog requests; the rest are pair requests drawn from `pairs`.
struct OpenLoopOptions {
  uint16_t port = 0;
  int connections = 1;
  double rate = 1000.0;
  double seconds = 1.0;
  uint64_t seed = 1;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  double catalog_share = 0.0;
  int64_t num_users = 0;  ///< Catalog requests draw users in [0, num_users).
  int64_t num_items = 0;  ///< Expected line count of a catalog response.
  /// Keep the parsed score of every answered pair request (for output
  /// checks); off keeps memory flat on long runs.
  bool keep_scores = false;
  /// When set, the schedule ends early once this reads true: requests due
  /// later are never sent and not attempted. `seconds` stays the cap.
  const std::atomic<bool>* stop = nullptr;
};

/// Outcome of one schedule. Every request sent counts exactly once in
/// `attempted`; a refused, failed, torn or missing response is `failed` and
/// contributes no latency sample (it misses any latency limit).
struct OpenLoopResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Latency of answered requests, µs, from the request's due time, each
  /// with its due time (seconds from the schedule start).
  std::vector<double> pair_latency_us;
  std::vector<double> pair_due_s;
  std::vector<double> catalog_latency_us;
  std::vector<double> catalog_due_s;
  /// Due time of every failed request.
  std::vector<double> failed_due_s;
  /// How late the generator sent each request, µs (send time - due time),
  /// in schedule order, with each request's due time.
  std::vector<double> late_us;
  std::vector<double> late_due_s;
  /// Requests sent but unanswered at the moment the schedule ended.
  int64_t backlog_at_end = 0;
  /// The schedule's time origin: request k was due at origin + due_s.
  std::chrono::steady_clock::time_point origin;
  double schedule_s = 0.0;  ///< Time from the origin to the last send.
  /// With keep_scores: per pair request (schedule order), the request and
  /// its parsed rating / reliability; `answered` false when it failed.
  struct Score {
    int64_t pair = -1;  ///< Index into OpenLoopOptions::pairs.
    int64_t user = 0;
    int64_t item = 0;
    double rating = 0.0;
    double reliability = 0.0;
    bool answered = false;
  };
  std::vector<Score> scores;
};

/// Runs the schedule against a line-protocol server (rrre_served or
/// rrre_routed) on 127.0.0.1:`port` and waits until every response arrived
/// or timed out. One generator thread sends; one reader thread per
/// connection receives.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options);

/// Seconds from sending one control verb (PING, RELOAD, ...) on a fresh
/// connection to a response starting with `expect_prefix`; negative on any
/// failure or any other response.
double ControlRoundTrip(uint16_t port, const std::string& verb,
                        const std::string& expect_prefix);

/// Median round-trip time in µs of `count` PINGs on one otherwise idle
/// connection; negative when the server cannot be reached.
double PingRttUs(uint16_t port, int count);
/// Median round-trip time in µs of `count` sequential requests for one
/// pair on one otherwise idle connection; negative on any failure.
double PairRttUs(uint16_t port, const std::pair<int64_t, int64_t>& pair,
                 int count);

}  // namespace perfbench

#endif  // RRRE_PERFBENCH_OPENLOOP_H_
