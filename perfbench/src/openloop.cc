#include "openloop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include <sys/prctl.h>

#include "common/rng.h"
#include "common/socket.h"
#include "common/strings.h"
#include "measure.h"

namespace perfbench {
namespace {

using rrre::common::LineReader;
using rrre::common::Socket;

/// How long a reader waits for an outstanding response before it counts as
/// missing.
constexpr int kResponseTimeoutMs = kResponseTimeoutUs / 1000;
constexpr auto kSpin = std::chrono::microseconds(2000);

struct Request {
  double due_s = 0.0;  ///< Offset from the schedule start.
  int64_t user = 0;
  int64_t item = -1;   ///< -1: catalog request.
  int64_t pair = -1;   ///< Index into options.pairs.
};

/// One pipelined connection. The schedule is fixed before any thread
/// starts, so the reader knows which request each response answers from
/// its position alone (responses come back in request order).
struct Conn {
  Socket socket;
  std::vector<int64_t> requests;  ///< Schedule indices, in send order.
  std::atomic<int64_t> sent{0};
  std::atomic<int64_t> answered{0};
  std::thread reader;
};

bool ParseScore(const std::string& line, OpenLoopResult::Score* score) {
  const std::vector<std::string> f = rrre::common::Split(line, '\t');
  if (f.size() != 4) return false;
  score->user = std::strtoll(f[0].c_str(), nullptr, 10);
  score->item = std::strtoll(f[1].c_str(), nullptr, 10);
  score->rating = std::strtod(f[2].c_str(), nullptr);
  score->reliability = std::strtod(f[3].c_str(), nullptr);
  return true;
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options) {
  // Schedule: a pure function of the options.
  rrre::common::Rng rng(options.seed);
  std::vector<Request> schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / options.rate;
    if (t >= options.seconds) break;
    Request r;
    r.due_s = t;
    if (options.catalog_share > 0.0 && rng.Uniform() < options.catalog_share) {
      r.user = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(options.num_users)));
    } else {
      r.pair = static_cast<int64_t>(rng.UniformInt(options.pairs.size()));
      r.user = options.pairs[static_cast<size_t>(r.pair)].first;
      r.item = options.pairs[static_cast<size_t>(r.pair)].second;
    }
    schedule.push_back(r);
  }
  const int64_t n = static_cast<int64_t>(schedule.size());

  OpenLoopResult result;
  std::vector<double> latency_us(static_cast<size_t>(n), -1.0);
  if (options.keep_scores) result.scores.resize(static_cast<size_t>(n));

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < options.connections; ++c) {
    auto conn = std::make_unique<Conn>();
    auto socket = Socket::Connect("127.0.0.1", options.port);
    if (socket.ok()) {
      conn->socket = std::move(socket).ValueOrDie();
      (void)conn->socket.SetRecvTimeout(kResponseTimeoutMs);
      (void)conn->socket.SetSendTimeout(kResponseTimeoutMs);
    }
    conns.push_back(std::move(conn));
  }
  for (int64_t k = 0; k < n; ++k) {
    Conn& conn = *conns[static_cast<size_t>(k % options.connections)];
    conn.requests.push_back(k);
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  result.origin = start;
  auto since_start = [&](Clock::time_point tp) {
    return std::chrono::duration<double>(tp - start).count();
  };

  for (auto& conn_ptr : conns) {
    Conn* conn = conn_ptr.get();
    conn->reader = std::thread([&, conn] {
      if (!conn->socket.valid()) return;
      LineReader reader(&conn->socket);
      const int64_t total = static_cast<int64_t>(conn->requests.size());
      for (int64_t j = 0; j < total; ++j) {
        const int64_t k = conn->requests[static_cast<size_t>(j)];
        const Request& req = schedule[static_cast<size_t>(k)];
        auto line = reader.ReadLine();
        if (!line.ok() || !line.value().has_value()) return;  // Missing.
        const std::string& text = *line.value();
        bool ok = false;
        if (req.item >= 0) {
          OpenLoopResult::Score score;
          ok = ParseScore(text, &score) && score.user == req.user &&
               score.item == req.item;
          if (ok && options.keep_scores) {
            score.pair = req.pair;
            score.answered = true;
            result.scores[static_cast<size_t>(k)] = score;
          }
        } else if (rrre::common::StartsWith(text, "#catalog\t")) {
          const std::vector<std::string> f = rrre::common::Split(text, '\t');
          const int64_t count =
              f.size() == 3 ? std::strtoll(f[2].c_str(), nullptr, 10) : -1;
          ok = count == options.num_items;
          for (int64_t i = 0; i < count; ++i) {
            auto row = reader.ReadLine();
            if (!row.ok() || !row.value().has_value()) return;  // Torn.
          }
        }
        if (ok) {
          latency_us[static_cast<size_t>(k)] =
              since_start(Clock::now()) * 1e6 - req.due_s * 1e6;
        }
        conn->answered.store(j + 1, std::memory_order_relaxed);
      }
    });
  }

  // Generator: sleep until kSpin before the next due time and spin the
  // rest, then send everything due, coalesced into one write per
  // connection. Sleeping all the way, it woke up to 7 ms late at p99 in the
  // host's noisy stretches; a 1 ns timer slack keeps the wake-ups close.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::string> out(conns.size());
  result.late_us.reserve(static_cast<size_t>(n));
  std::vector<int64_t> next_slot(conns.size(), 0);
  bool broken = false;
  int64_t k = 0;
  while (k < n && !broken &&
         (options.stop == nullptr || !options.stop->load())) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        schedule[static_cast<size_t>(k)].due_s));
    if (Clock::now() < due - kSpin) {
      std::this_thread::sleep_until(due - kSpin);
    }
    while (Clock::now() < due) {
    }
    const double now_s = since_start(Clock::now());
    while (k < n && schedule[static_cast<size_t>(k)].due_s <= now_s) {
      const Request& req = schedule[static_cast<size_t>(k)];
      const size_t c = static_cast<size_t>(k % options.connections);
      if (req.item >= 0) {
        out[c] += rrre::common::StrFormat("%lld\t%lld\n",
                                          static_cast<long long>(req.user),
                                          static_cast<long long>(req.item));
      } else {
        out[c] += rrre::common::StrFormat("%lld\n",
                                          static_cast<long long>(req.user));
      }
      ++next_slot[c];
      result.late_us.push_back((now_s - req.due_s) * 1e6);
      result.late_due_s.push_back(req.due_s);
      ++k;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if (out[c].empty()) continue;
      Conn& conn = *conns[c];
      const bool sent = conn.socket.valid() && conn.socket.SendAll(out[c]).ok();
      out[c].clear();
      if (!sent) {
        broken = true;
        break;
      }
      conn.sent.store(next_slot[c], std::memory_order_relaxed);
    }
  }
  result.schedule_s = since_start(Clock::now());
  for (const auto& conn : conns) {
    result.backlog_at_end +=
        conn->sent.load() - conn->answered.load(std::memory_order_relaxed);
  }
  // Wait for every sent request's answer (or the response timeout), then
  // unblock readers still waiting on requests that were never sent.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kResponseTimeoutMs);
  for (auto& conn : conns) {
    while (conn->answered.load() < conn->sent.load() &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    conn->socket.ShutdownBoth();
    if (conn->reader.joinable()) conn->reader.join();
    conn->socket.Close();
  }

  result.attempted = k;
  for (int64_t i = 0; i < k; ++i) {
    const double lat = latency_us[static_cast<size_t>(i)];
    if (lat < 0.0) {
      ++result.failed;
      result.failed_due_s.push_back(schedule[static_cast<size_t>(i)].due_s);
    } else if (schedule[static_cast<size_t>(i)].item >= 0) {
      result.pair_latency_us.push_back(lat);
      result.pair_due_s.push_back(schedule[static_cast<size_t>(i)].due_s);
    } else {
      result.catalog_latency_us.push_back(lat);
      result.catalog_due_s.push_back(schedule[static_cast<size_t>(i)].due_s);
    }
  }
  return result;
}

namespace {

double LineRttUs(uint16_t port, const std::string& line, int count) {
  auto socket = Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return -1.0;
  Socket conn = std::move(socket).ValueOrDie();
  (void)conn.SetRecvTimeout(5000);
  LineReader reader(&conn);
  std::vector<double> rtt;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    if (!conn.SendAll(line).ok()) return -1.0;
    auto line = reader.ReadLine();
    if (!line.ok() || !line.value().has_value()) return -1.0;
    if (rrre::common::StartsWith(*line.value(), "!ERR")) return -1.0;
    rtt.push_back(SecondsSince(start) * 1e6);
  }
  return Median(rtt);
}

}  // namespace

double ControlRoundTrip(uint16_t port, const std::string& verb,
                        const std::string& expect_prefix) {
  auto socket = Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return -1.0;
  Socket conn = std::move(socket).ValueOrDie();
  (void)conn.SetRecvTimeout(30000);
  LineReader reader(&conn);
  const Clock::time_point start = Clock::now();
  if (!conn.SendAll(verb + "\n").ok()) return -1.0;
  auto line = reader.ReadLine();
  if (!line.ok() || !line.value().has_value() ||
      !rrre::common::StartsWith(*line.value(), expect_prefix)) {
    return -1.0;
  }
  return SecondsSince(start);
}

double PingRttUs(uint16_t port, int count) {
  return LineRttUs(port, "PING\n", count);
}

double PairRttUs(uint16_t port, const std::pair<int64_t, int64_t>& pair,
                 int count) {
  return LineRttUs(port,
                   rrre::common::StrFormat(
                       "%lld\t%lld\n", static_cast<long long>(pair.first),
                       static_cast<long long>(pair.second)),
                   count);
}

}  // namespace perfbench
