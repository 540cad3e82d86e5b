#include "serve/server.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "core/tower_store.h"
#include "serve/protocol.h"

namespace rrre::serve {

using common::Result;
using common::Socket;
using common::Status;

namespace {

inline void Inc(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

/// The first result with a non-finite rating or reliability, or null. Such a
/// score is answered as an error, never printed as `nan`/`inf`.
const MicroBatcher::ScoredPair* FirstNonFinite(
    const std::vector<MicroBatcher::ScoredPair>& results) {
  for (const auto& r : results) {
    if (!std::isfinite(r.rating) || !std::isfinite(r.reliability)) return &r;
  }
  return nullptr;
}

}  // namespace

/// One client connection. The reader thread owns parsing and admission; the
/// writer thread owns the socket's send side and flushes responses strictly
/// in request order. Batcher callbacks (scorer thread) only fill pending
/// slots under the connection mutex — they never touch the socket.
class Server::Connection
    : public std::enable_shared_from_this<Server::Connection> {
 public:
  Connection(Server* server, Socket socket)
      : server_(server), socket_(std::move(socket)) {}

  ~Connection() {
    // Threads are joined by the server (reap or Shutdown) before the last
    // reference can drop on a foreign thread; these joins are a no-op then.
    if (reader_.joinable()) reader_.join();
    if (writer_.joinable()) writer_.join();
  }

  void Start() {
    auto self = shared_from_this();
    reader_ = std::thread([self] { self->ReaderLoop(); });
    writer_ = std::thread([self] { self->WriterLoop(); });
  }

  /// Half-closes the read side: the reader sees EOF and stops admitting;
  /// responses already admitted still flush. Safe from any thread.
  void AbortRead() { socket_.ShutdownRead(); }

  /// Both loops have run to completion — Join will not block.
  bool Finished() const { return exited_.load() == 2; }

  void Join() {
    if (reader_.joinable()) reader_.join();
    if (writer_.joinable()) writer_.join();
  }

 private:
  /// A response slot in the per-connection FIFO. `ready` flips exactly once,
  /// under mu_. `scored` marks a slot the batcher answers: only writes that
  /// carry one are timed, so a METRICS scrape never moves what it reports.
  struct Pending {
    bool ready = false;
    bool scored = false;
    std::string payload;
  };

  std::shared_ptr<Pending> PushPending(bool scored) {
    auto pending = std::make_shared<Pending>();
    pending->scored = scored;
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(pending);
    return pending;
  }

  void PushReady(std::string payload) {
    auto pending = std::make_shared<Pending>();
    pending->ready = true;
    pending->payload = std::move(payload);
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(pending));
    cv_.notify_all();
  }

  void Fulfill(const std::shared_ptr<Pending>& pending, std::string payload) {
    std::lock_guard<std::mutex> lock(mu_);
    pending->payload = std::move(payload);
    pending->ready = true;
    cv_.notify_all();
  }

  void ReaderLoop() {
    common::LineReader reader(&socket_);
    for (;;) {
      auto line = reader.ReadLine();
      if (!line.ok()) {
        // The read deadline fired: the client sat silent past
        // read_timeout_ms. Treated like EOF — stop admitting, let already
        // admitted responses flush — but counted separately.
        if (line.status().code() == common::StatusCode::kDeadlineExceeded) {
          server_->read_timeouts_.fetch_add(1);
          Inc(server_->m_read_timeouts_);
        }
        break;
      }
      if (!line.value().has_value()) break;
      if (!HandleLine(*line.value())) break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      reader_done_ = true;
      cv_.notify_all();
    }
    exited_.fetch_add(1);
  }

  /// Returns false when the connection should close (QUIT).
  bool HandleLine(const std::string& line) {
    const Request req = ParseRequest(line);
    if (req.type == Request::Type::kBlank) return true;
    server_->requests_.fetch_add(1);
    switch (req.type) {
      case Request::Type::kPing:
        PushReady(FormatPong());
        return true;
      case Request::Type::kStats:
        PushReady(server_->FormatStatsLine());
        return true;
      case Request::Type::kMetrics:
        // The scrape is deliberately not counted in any exposed metric, so
        // it cannot perturb what it reports.
        PushReady(server_->FormatMetricsResponse());
        return true;
      case Request::Type::kQuit:
        PushReady(FormatBye());
        return false;
      case Request::Type::kReload: {
        auto pending = PushPending(/*scored=*/false);
        auto self = shared_from_this();
        server_->batcher_->RequestReload(
            server_->options_.model_prefix,
            [self, pending](const Status& status, int64_t generation) {
              self->Fulfill(pending,
                            status.ok()
                                ? FormatReloaded(generation)
                                : FormatError("reload", status.ToString()));
            });
        return true;
      }
      case Request::Type::kInvalid:
        server_->parse_errors_.fetch_add(1);
        Inc(server_->m_parse_errors_);
        PushReady(FormatError("parse", req.error));
        return true;
      case Request::Type::kPair:
      case Request::Type::kCatalog:
        Inc(server_->m_requests_);
        HandleScoreRequest(req);
        return true;
      case Request::Type::kBlank:
        return true;
    }
    return true;
  }

  void HandleScoreRequest(const Request& req) {
    const bool catalog = req.type == Request::Type::kCatalog;
    const int64_t num_users = server_->batcher_->num_users();
    const int64_t num_items = server_->batcher_->num_items();
    if (req.user < 0 || req.user >= num_users) {
      server_->range_errors_.fetch_add(1);
      Inc(server_->m_range_errors_);
      PushReady(FormatError(
          "range", "user " + std::to_string(req.user) + " out of range [0, " +
                       std::to_string(num_users) + ")"));
      return;
    }
    if (!catalog && (req.item < 0 || req.item >= num_items)) {
      server_->range_errors_.fetch_add(1);
      Inc(server_->m_range_errors_);
      PushReady(FormatError(
          "range", "item " + std::to_string(req.item) + " out of range [0, " +
                       std::to_string(num_items) + ")"));
      return;
    }
    auto pending = PushPending(/*scored=*/true);
    auto self = shared_from_this();
    const int64_t user = req.user;
    const bool accepted = server_->batcher_->TrySubmit(
        req.user, catalog ? MicroBatcher::kCatalogItem : req.item,
        [self, pending, user, catalog](
            const Status& status,
            const std::vector<MicroBatcher::ScoredPair>& results) {
          if (!status.ok()) {
            self->server_->range_errors_.fetch_add(1);
            Inc(self->server_->m_range_errors_);
            self->Fulfill(pending, FormatError("range", status.message()));
            return;
          }
          // One bad row poisons a catalog whole: the client gets a single
          // error line, as for any other per-request failure.
          if (const auto* bad = FirstNonFinite(results)) {
            Inc(self->server_->m_nonfinite_);
            self->Fulfill(pending,
                          FormatError("nonfinite",
                                      "non-finite score for user " +
                                          std::to_string(bad->user) +
                                          ", item " +
                                          std::to_string(bad->item)));
            return;
          }
          std::string out;
          if (catalog) {
            out = FormatCatalogHeader(user,
                                      static_cast<int64_t>(results.size()));
          }
          for (const auto& r : results) {
            out += FormatScoreLine(r.user, r.item, r.rating, r.reliability);
          }
          self->Fulfill(pending, std::move(out));
        });
    if (!accepted) {
      server_->overloads_.fetch_add(1);
      Inc(server_->m_overloads_);
      Fulfill(pending, FormatError("overload",
                                   "admission queue full — retry later"));
    }
  }

  void WriterLoop() {
    bool send_failed = false;
    std::vector<std::string> ready;
    std::string wire;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] {
        return (!queue_.empty() && queue_.front()->ready) ||
               (reader_done_ && queue_.empty());
      });
      if (queue_.empty()) break;
      // Take every ready slot at the head of the FIFO and send them with one
      // SendAll; the payload is assembled outside the lock.
      bool scored = false;
      while (!queue_.empty() && queue_.front()->ready) {
        scored |= queue_.front()->scored;
        ready.push_back(std::move(queue_.front()->payload));
        queue_.pop_front();
      }
      lock.unlock();
      // After a send failure (peer hung up) keep consuming so every pending
      // callback still finds its slot, but stop writing.
      if (!send_failed) {
        wire.clear();
        for (const std::string& payload : ready) wire += payload;
        obs::HistogramMetric* write_us =
            scored ? server_->m_write_us_ : nullptr;
        const auto start = write_us != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point();
        send_failed = !socket_.SendAll(wire).ok();
        if (write_us != nullptr) {
          write_us->Record(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
        }
      }
      ready.clear();
      lock.lock();
    }
    lock.unlock();
    // Reader is done and everything admitted was answered: full close so the
    // peer sees EOF promptly.
    socket_.ShutdownBoth();
    exited_.fetch_add(1);
  }

  Server* server_;
  Socket socket_;
  std::thread reader_;
  std::thread writer_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Pending>> queue_;  ///< Response FIFO.
  bool reader_done_ = false;
  std::atomic<int> exited_{0};
};

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  auto trainer = std::make_unique<core::RrreTrainer>(options.config);
  RRRE_RETURN_IF_ERROR(trainer->Load(options.model_prefix));
  std::shared_ptr<const core::TowerStore> store;
  if (!options.store_path.empty()) {
    auto mapped = core::MapTowerStoreForCheckpoint(
        options.store_path, options.model_prefix, *trainer);
    if (!mapped.ok()) return mapped.status();
    store = std::move(mapped).ValueOrDie();
  }
  auto listener = Socket::Listen(options.port);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<obs::MetricsRegistry> metrics;
  MicroBatcher::Options batcher_options = options.batcher;
  batcher_options.store_path = options.store_path;
  batcher_options.model_prefix = options.model_prefix;
  if (options.enable_metrics) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    batcher_options.metrics = metrics.get();
  } else {
    batcher_options.metrics = nullptr;
  }
  auto batcher = std::make_unique<MicroBatcher>(
      std::move(trainer), batcher_options, std::move(store));
  std::unique_ptr<Server> server(
      new Server(options, std::move(metrics), std::move(batcher),
                 std::move(listener).ValueOrDie()));
  return server;
}

Server::Server(const ServerOptions& options,
               std::unique_ptr<obs::MetricsRegistry> metrics,
               std::unique_ptr<MicroBatcher> batcher, Socket listener)
    : options_(options),
      metrics_(std::move(metrics)),
      batcher_(std::move(batcher)),
      listener_(std::move(listener)) {
  if (metrics_ != nullptr) {
    m_requests_ = metrics_->GetCounter(
        "rrre_serve_requests_total",
        "score requests received (pair + catalog; control verbs excluded)");
    m_parse_errors_ = metrics_->GetCounter("rrre_serve_parse_errors_total",
                                           "malformed request lines");
    m_range_errors_ = metrics_->GetCounter("rrre_serve_range_errors_total",
                                           "requests with out-of-range ids");
    m_nonfinite_ = metrics_->GetCounter(
        "rrre_serve_nonfinite_total",
        "score requests answered !ERR nonfinite (a NaN or infinite score)");
    m_write_us_ = metrics_->GetHistogram(
        "rrre_serve_write_us",
        "latency of each response write carrying a scored answer");
    m_overloads_ = metrics_->GetCounter(
        "rrre_serve_overloads_total", "requests refused by admission control");
    m_connections_accepted_ = metrics_->GetCounter(
        "rrre_serve_connections_accepted_total", "connections accepted");
    m_connections_rejected_ = metrics_->GetCounter(
        "rrre_serve_connections_rejected_total",
        "connections refused at the connection limit");
    m_read_timeouts_ = metrics_->GetCounter(
        "rrre_serve_read_timeouts_total",
        "connections dropped by the read deadline");
    m_connections_active_ = metrics_->GetGauge("rrre_serve_connections_active",
                                               "currently open connections");
  }
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
}

Server::~Server() { Shutdown(); }

void Server::Reload(MicroBatcher::ReloadDoneFn done) {
  batcher_->RequestReload(
      options_.model_prefix,
      [done](const Status& status, int64_t generation) {
        if (status.ok()) {
          RRRE_LOG_INFO << "hot reload complete, serving generation "
                        << generation;
        }
        if (done) done(status, generation);
      });
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    auto client = listener_.AcceptWithTimeout(/*timeout_ms=*/100);
    ReapFinishedConnections();
    if (!client.ok()) {
      if (stopping_.load()) break;
      RRRE_LOG_WARNING << "accept failed: " << client.status().ToString();
      continue;
    }
    if (!client.value().has_value()) continue;  // Poll timeout.
    Socket socket = std::move(*client.value());
    if (options_.read_timeout_ms > 0) {
      // Arm both directions: the recv deadline drops silent clients, the
      // send deadline keeps a non-reading client from stalling the writer.
      socket.SetRecvTimeout(options_.read_timeout_ms);
      socket.SetSendTimeout(options_.read_timeout_ms);
    }
    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int64_t>(connections_.size()) >=
          options_.max_connections) {
        connections_rejected_.fetch_add(1);
        Inc(m_connections_rejected_);
        socket.SendAll(FormatError("busy", "connection limit reached"));
        continue;  // Socket closes on scope exit.
      }
      conn = std::make_shared<Connection>(this, std::move(socket));
      connections_.push_back(conn);
      if (m_connections_active_ != nullptr) {
        m_connections_active_->Set(static_cast<int64_t>(connections_.size()));
      }
    }
    connections_accepted_.fetch_add(1);
    Inc(m_connections_accepted_);
    conn->Start();
  }
}

void Server::ReapFinishedConnections() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < connections_.size();) {
      if (connections_[i]->Finished()) {
        finished.push_back(std::move(connections_[i]));
        connections_[i] = std::move(connections_.back());
        connections_.pop_back();
      } else {
        ++i;
      }
    }
    if (m_connections_active_ != nullptr) {
      m_connections_active_->Set(static_cast<int64_t>(connections_.size()));
    }
  }
  for (auto& conn : finished) conn->Join();
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  // Half-close every connection: readers stop admitting, the batcher keeps
  // running so admitted requests drain to their writers.
  for (auto& conn : conns) conn->AbortRead();
  batcher_->Resume();  // A paused batcher would deadlock the drain.
  for (auto& conn : conns) conn->Join();
  batcher_->Stop();
  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();
}

ServerStats Server::stats() const {
  ServerStats out;
  out.connections_accepted = connections_accepted_.load();
  out.connections_rejected = connections_rejected_.load();
  out.requests = requests_.load();
  out.parse_errors = parse_errors_.load();
  out.range_errors = range_errors_.load();
  out.overloads = overloads_.load();
  out.read_timeouts = read_timeouts_.load();
  out.batcher = batcher_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  out.connections_active = static_cast<int64_t>(connections_.size());
  return out;
}

std::string Server::FormatStatsLine() const {
  const MicroBatcher::Stats b = batcher_->stats();
  int64_t active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = static_cast<int64_t>(connections_.size());
  }
  // `fingerprint=` is the checkpoint params fingerprint — the only version
  // field comparable *across* processes; the router's rolling-reload barrier
  // reads it to prove a shard fleet serves one parameter version.
  return common::StrFormat(
      "#stats\tusers=%lld\titems=%lld\tversion=%lld\tgeneration=%lld\t"
      "fingerprint=%llu\t"
      "requests=%lld\tparse_errors=%lld\trange_errors=%lld\toverloads=%lld\t"
      "submitted=%lld\trejected=%lld\tbatches=%lld\tpairs=%lld\t"
      "reloads=%lld\tconnections=%lld\n",
      static_cast<long long>(batcher_->num_users()),
      static_cast<long long>(batcher_->num_items()),
      static_cast<long long>(batcher_->params_version()),
      static_cast<long long>(batcher_->generation()),
      static_cast<unsigned long long>(batcher_->params_fingerprint()),
      static_cast<long long>(requests_.load()),
      static_cast<long long>(parse_errors_.load()),
      static_cast<long long>(range_errors_.load()),
      static_cast<long long>(overloads_.load()),
      static_cast<long long>(b.submitted), static_cast<long long>(b.rejected),
      static_cast<long long>(b.batches),
      static_cast<long long>(b.pairs_scored),
      static_cast<long long>(b.reloads), static_cast<long long>(active));
}

std::string Server::RenderMetricsText() const {
  return metrics_ == nullptr ? std::string() : metrics_->RenderText();
}

std::string Server::FormatMetricsResponse() const {
  if (metrics_ == nullptr) {
    return FormatError("metrics", "metrics are disabled on this server");
  }
  const std::string text = metrics_->RenderText();
  int64_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  return FormatMetricsHeader(lines) + text;
}

}  // namespace rrre::serve
