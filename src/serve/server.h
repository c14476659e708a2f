#ifndef XSDF_SERVE_SERVER_H_
#define XSDF_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/rolling.h"
#include "runtime/engine.h"
#include "serve/access_log.h"
#include "serve/http.h"
#include "wordnet/semantic_network.h"

namespace xsdf::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back from port() after
  /// Start()) — what the tests and the CI smoke job use.
  int port = 8080;
  /// Beyond this many concurrent connections the acceptor answers 503
  /// and closes — the thread-per-connection pool stays bounded.
  int max_connections = 64;
  /// Per-socket receive/send timeout.
  int io_timeout_ms = 10000;
  /// Exposes POST /admin/swap (hot lexicon swap from a snapshot path).
  bool enable_admin = true;
  /// When non-empty, /admin/swap only accepts snapshot paths that
  /// resolve inside this directory — without it any client that can
  /// reach the socket can probe/map arbitrary files on disk.
  std::string admin_snapshot_dir;
  /// When non-empty, /admin/swap requires a matching
  /// `X-Xsdf-Admin-Token` request header (shared secret).
  std::string admin_token;
  /// When non-empty, every finished request (including 429/503/504
  /// rejects) appends one JSON line here; opened at Start(). See
  /// AccessLog for the non-blocking hand-off and drop accounting.
  std::string access_log_path;
  /// Tail-based trace sampling: the N slowest requests of each rolling
  /// minute keep their full span tree, served at GET /debug/slow as
  /// Chrome trace JSON. 0 disables per-request tracing entirely (no
  /// per-request allocations or extra clock reads).
  size_t slow_request_keep = 8;
  /// Engine configuration applied to every installed lexicon. Its
  /// `metrics` field is overwritten with `metrics` below. Its
  /// `parse_limits.max_input_bytes` also caps every request body: a
  /// larger one is answered 413 before it is read.
  runtime::EngineOptions engine;
  /// Shared registry: /metrics exports it, and engines across hot
  /// swaps aggregate into the same instruments. May be null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A resident disambiguation service over the batch runtime: one
/// immutable lexicon + engine pair ("serving state") behind a swap
/// pointer, a bounded admission queue, and a small HTTP/1.1 front end.
///
/// Endpoints:
///   POST /disambiguate   body = XML document -> semantic XML
///                        (X-Xsdf-Doc-Name, X-Xsdf-Deadline-Ms headers;
///                        429 when the queue is full, 504 past deadline)
///   POST /explain?node=Q body = XML document -> per-node audit JSON
///   GET  /metrics        metrics registry JSON (same schema as the
///                        batch CLI's --metrics-out file);
///                        ?format=prom switches to Prometheus text
///                        exposition
///   GET  /stats          engine + serve counters JSON, plus rolling
///                        one-minute per-endpoint latency percentiles
///   GET  /debug/slow     the retained slowest-request span trees as
///                        Chrome trace JSON (tail-based sampling)
///   GET  /healthz        liveness probe
///   POST /admin/swap?snapshot=PATH   hot lexicon swap
///
/// Every response carries X-Xsdf-Request-Id (echoing the client's
/// X-Xsdf-Request-Id when it parses as 16 hex digits, otherwise a
/// server-generated id) plus X-Xsdf-Generation and X-Xsdf-Lexicon
/// identifying the serving state that produced it. A request resolves
/// the current state exactly once, so a concurrent swap can never mix
/// lexicons within one response; the old state's engine drains and is
/// destroyed when its last in-flight request completes
/// (shared_ptr-refcount drain, no reader locks on the hot path).
class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs a new lexicon + engine as the current serving state.
  /// First call sets generation 1; later calls are the hot-swap path
  /// (also reachable via POST /admin/swap). `name` lands in the
  /// X-Xsdf-Lexicon response header.
  Status InstallLexicon(
      std::shared_ptr<const wordnet::SemanticNetwork> network,
      std::string name);

  /// Binds and listens; resolves an ephemeral port. Call once.
  Status Start();
  /// Port actually bound (after Start()).
  int port() const { return port_; }

  /// Accept loop: blocks until Shutdown()/RequestShutdown(), then
  /// drains — stops accepting, wakes idle keep-alive connections, lets
  /// in-flight requests finish, joins every connection thread.
  void Run();

  /// Asks Run() to return. Safe from any thread and from a signal
  /// handler (one write to the wake pipe).
  void RequestShutdown();

  uint64_t generation() const;

 private:
  struct ServingState {
    std::shared_ptr<const wordnet::SemanticNetwork> network;
    std::unique_ptr<runtime::DisambiguationEngine> engine;
    uint64_t generation = 0;
    std::string name;
  };

  /// Request-scoped observability state for one in-flight request:
  /// its id, the optional span tree, and the engine attribution the
  /// access log reports. Owned by the connection thread.
  struct RequestContext {
    uint64_t request_id = 0;
    std::unique_ptr<obs::RequestTrace> trace;
    uint64_t deadline_budget_ms = 0;
    uint64_t queue_wait_us = 0;
    uint64_t engine_us = 0;
    int worker = -1;
  };

  std::shared_ptr<ServingState> CurrentState() const;
  void HandleConnection(int fd, uint64_t connection_id);
  /// Joins connection threads whose handlers have finished. Called from
  /// the accept loop so a long-lived daemon never accumulates dead
  /// threads (one stack per connection otherwise).
  void ReapFinishedConnections();
  HttpResponse Dispatch(const HttpRequest& request, RequestContext* ctx);
  HttpResponse HandleDisambiguate(const HttpRequest& request,
                                  RequestContext* ctx);
  HttpResponse HandleExplain(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleStats();
  HttpResponse HandleDebugSlow();
  HttpResponse HandleSwap(const HttpRequest& request);

  /// A fresh server-generated id (SplitMix64 over a per-process random
  /// salt + sequence — unique and unguessable enough for correlation,
  /// not a secret).
  uint64_t GenerateRequestId();
  /// The client's X-Xsdf-Request-Id if it parses as nonzero 16-digit
  /// hex, otherwise GenerateRequestId().
  uint64_t ResolveRequestId(const HttpRequest& request);
  /// Records the request into serve.request_us, the per-status-class
  /// histogram, and the endpoint's rolling window.
  void RecordRequestLatency(const std::string& path, int status,
                            uint64_t total_us, uint64_t now_ns);
  /// Formats one access-log JSONL line into `*buffer` and flushes the
  /// buffer to the sink when it crosses AccessLog::kFlushBytes.
  void AppendAccessLine(std::string* buffer, const RequestContext& ctx,
                        const std::string& method, const std::string& path,
                        int status, size_t bytes, uint64_t total_us);
  /// Seconds until the admission queue likely has room, from current
  /// depth over the rolling drain rate, clamped to [1, 30].
  uint64_t RetryAfterSeconds(const ServingState& state, uint64_t now_ns);

  ServeOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};

  mutable std::mutex state_mu_;
  std::shared_ptr<ServingState> state_;
  uint64_t next_generation_ = 1;

  std::atomic<bool> stop_{false};
  std::atomic<int> active_connections_{0};
  std::mutex connections_mu_;
  std::set<int> connection_fds_;
  /// Live connection threads keyed by connection id. Only the accept
  /// loop (Run) touches the map; handlers report completion through
  /// `finished_connections_` (under connections_mu_) and Run joins
  /// them on its next iteration.
  std::map<uint64_t, std::thread> connection_threads_;
  std::vector<uint64_t> finished_connections_;
  uint64_t next_connection_id_ = 0;

  /// Serve-level counters (mirrored into the metrics registry when one
  /// is attached).
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> overload_rejects_{0};
  std::atomic<uint64_t> deadline_rejects_{0};
  std::atomic<uint64_t> swaps_{0};
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* overload_counter_ = nullptr;
  obs::Counter* deadline_counter_ = nullptr;
  obs::Counter* swap_counter_ = nullptr;
  obs::Histogram* request_us_ = nullptr;
  /// Status-class views of the same latency (registered eagerly so
  /// they export with count 0 before the first error) — a p99 that
  /// collapses under overload is invisible when fast 429s and slow
  /// 200s share one histogram.
  obs::Histogram* request_2xx_us_ = nullptr;
  obs::Histogram* request_4xx_us_ = nullptr;
  obs::Histogram* request_5xx_us_ = nullptr;

  /// Rolling one-minute windows behind the /stats percentiles, one per
  /// endpoint group (the two document endpoints individually; all
  /// control-plane endpoints pooled).
  obs::RollingWindowHistogram rolling_disambiguate_;
  obs::RollingWindowHistogram rolling_explain_;
  obs::RollingWindowHistogram rolling_other_;
  /// Engine queue-drain events (any TryRunOne that returned — success,
  /// failure or shed): the denominator of the Retry-After estimate.
  obs::RollingWindowHistogram rolling_drain_;

  obs::SlowRequestBuffer slow_requests_;
  std::unique_ptr<AccessLog> access_log_;

  /// Canonical spec of the active similarity composition (the
  /// `--measures` string after parsing, or the paper default);
  /// reported by /explain, /stats, and every access-log line so a
  /// response can always be traced to the measure config that
  /// produced it.
  std::string measure_spec_;

  /// Request-id generator state (see ResolveRequestId).
  uint64_t request_id_salt_ = 0;
  std::atomic<uint64_t> request_id_seq_{0};
};

}  // namespace xsdf::serve

#endif  // XSDF_SERVE_SERVER_H_
