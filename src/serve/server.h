#ifndef RRRE_SERVE_SERVER_H_
#define RRRE_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "core/config.h"
#include "obs/metrics.h"
#include "serve/batcher.h"

namespace rrre::serve {

struct ServerOptions {
  /// Architecture config matching the checkpoint (the checkpoint stores
  /// parameters, not the RrreConfig).
  core::RrreConfig config;
  /// Checkpoint prefix loaded at startup and re-loaded on hot reload.
  std::string model_prefix;
  /// When non-empty, serve store-backed from this materialized tower store
  /// (mapped read-only at startup and re-mapped + fingerprint-verified on
  /// every reload — see MicroBatcher::Options::store_path). Startup fails if
  /// the store is missing, corrupt, or stale for the checkpoint.
  std::string store_path;
  /// TCP port to listen on; 0 picks an ephemeral port (see Server::port()).
  uint16_t port = 0;
  MicroBatcher::Options batcher;
  /// Connections beyond this are answered with "!ERR busy" and closed.
  int64_t max_connections = 256;
  /// Receive/send deadline on accepted connections in milliseconds; 0 = no
  /// deadline. With a deadline, a client that connects and then goes silent
  /// is disconnected instead of pinning a connection slot (and a graceful
  /// drain) forever, and a client that stops reading cannot stall the
  /// writer past the deadline either.
  int read_timeout_ms = 0;
  /// When true the server owns a MetricsRegistry, instruments itself and the
  /// batcher into it, and answers the METRICS verb with its exposition.
  /// False turns all metric writes into dead branches (the baseline the
  /// serving bench measures overhead against); METRICS then answers
  /// "!ERR metrics". STATS is unaffected either way.
  bool enable_metrics = true;
};

struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t connections_rejected = 0;
  int64_t requests = 0;      ///< Protocol requests parsed (incl. control).
  int64_t parse_errors = 0;
  int64_t range_errors = 0;
  int64_t overloads = 0;     ///< Requests refused by admission control.
  int64_t read_timeouts = 0; ///< Connections dropped by the read deadline.
  MicroBatcher::Stats batcher;
};

/// The long-lived rrre_served server: accepts concurrent line-protocol
/// connections (see serve/protocol.h), funnels score requests into the
/// MicroBatcher, and writes responses back in request order per connection.
///
/// Connection state machine: a reader thread parses lines and either answers
/// immediately (control, parse/range/overload errors) or registers an
/// ordered pending slot fulfilled later by the batcher; a writer thread
/// flushes slots strictly in request order, so pipelined clients get every
/// response, in order, exactly once.
///
/// Shutdown() drains gracefully: the listener stops, every connection's read
/// side is half-closed (clients see EOF for new requests), all admitted
/// requests still get their responses, then threads are joined.
class Server {
 public:
  /// Loads the checkpoint, binds the listener and starts the accept loop.
  static common::Result<std::unique_ptr<Server>> Start(
      const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound port (useful with options.port == 0).
  uint16_t port() const { return listener_.local_port(); }

  /// Asynchronous hot reload of options.model_prefix (the SIGHUP path).
  /// The outcome is logged; pass `done` to observe it.
  void Reload(MicroBatcher::ReloadDoneFn done = nullptr);

  /// Graceful drain; idempotent; blocks until everything is joined.
  void Shutdown();

  ServerStats stats() const;

  /// The METRICS exposition text (empty when metrics are disabled). The
  /// scrape is read-only: it never moves a metric, so back-to-back calls
  /// with no intervening traffic return byte-identical text.
  std::string RenderMetricsText() const;

  /// The scheduler, exposed for tests (Pause/Resume/Drain) and stats.
  MicroBatcher& batcher() { return *batcher_; }

 private:
  class Connection;

  Server(const ServerOptions& options,
         std::unique_ptr<obs::MetricsRegistry> metrics,
         std::unique_ptr<MicroBatcher> batcher, common::Socket listener);

  void AcceptLoop();
  /// Joins and erases finished connections (accept-loop thread only).
  void ReapFinishedConnections();
  std::string FormatStatsLine() const;
  std::string FormatMetricsResponse() const;

  ServerOptions options_;
  /// Owns the batcher's registry too (batcher options point into it); null
  /// when options_.enable_metrics is false. Declared before batcher_ so the
  /// registry outlives every handle.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* m_requests_ = nullptr;        ///< Score requests only.
  obs::Counter* m_parse_errors_ = nullptr;
  obs::Counter* m_range_errors_ = nullptr;
  obs::Counter* m_nonfinite_ = nullptr;
  obs::Counter* m_overloads_ = nullptr;
  obs::Counter* m_connections_accepted_ = nullptr;
  obs::Counter* m_connections_rejected_ = nullptr;
  obs::Counter* m_read_timeouts_ = nullptr;
  obs::Gauge* m_connections_active_ = nullptr;
  obs::HistogramMetric* m_write_us_ = nullptr;  ///< Scored-response writes.
  std::unique_ptr<MicroBatcher> batcher_;
  common::Socket listener_;

  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> parse_errors_{0};
  std::atomic<int64_t> range_errors_{0};
  std::atomic<int64_t> overloads_{0};
  std::atomic<int64_t> read_timeouts_{0};
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};

  mutable std::mutex mu_;  ///< Guards connections_ and shutdown_done_.
  std::vector<std::shared_ptr<Connection>> connections_;
  bool shutdown_done_ = false;

  std::thread accept_thread_;
};

}  // namespace rrre::serve

#endif  // RRRE_SERVE_SERVER_H_
