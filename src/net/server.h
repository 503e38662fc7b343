// Copyright 2026 The GraphRARE Authors.
//
// Epoll HTTP/1.1 front-end over serve::InferenceEngine — the network tier
// of the train -> artifact -> serve pipeline. A single reactor thread owns
// every connection (accept, incremental parse, response ordering for
// pipelined requests, write backpressure, idle sweeps); model evaluation
// happens on the ContinuousBatcher's worker pool, whose completions are
// marshalled back onto the loop with EventLoop::Post.
//
// Routes:
//   POST /v1/predict  {"nodes":[id,...]}          -> predictions
//   POST /v1/topk     {"node":id,"k":K}           -> top-K classes
//   POST /v1/reload   {"path":"model.grare"}      -> artifact hot-swap
//   GET  /healthz                                 -> liveness + engine info
//   GET  /metrics                                 -> text metrics (SLOs,
//                                                    latency percentiles,
//                                                    batcher counters)
//
// Hot-swap semantics: /v1/reload loads the new artifact on a side thread
// (the reactor keeps serving v1), builds the new engine with the same
// EngineOptions, then atomically publishes it through serve::EngineHandle.
// Batches in flight keep their v1 snapshot until they finish; every
// response is computed wholly by one engine version and no request is
// dropped — the hot-swap test pins this.
//
// Shutdown: Shutdown() is async-signal-safe. The server stops accepting,
// finishes every admitted request, flushes every response, then Run()
// returns — the daemon prints final percentiles afterwards.

#ifndef GRAPHRARE_NET_SERVER_H_
#define GRAPHRARE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "net/batcher.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "serve/engine.h"

namespace graphrare {
namespace net {

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port from port()
  /// Connections with no read progress and nothing in flight are closed
  /// after this long — the slow-loris guard. 0 disables the sweep.
  int idle_timeout_ms = 10000;
  /// Reactor poll granularity: idle sweeps and drain checks run per tick.
  int tick_ms = 50;
  /// Latency SLO per request; responses slower than this bump the route's
  /// slo_violations counter on /metrics.
  double slo_ms = 50.0;
  /// Default deadline for /v1/predict and /v1/topk (overridable per
  /// request with the X-Deadline-Ms header, clamped to kMaxDeadlineMs in
  /// server.cc). A request still queued when its deadline passes is shed
  /// with 503 + Retry-After instead of spending engine time. 0 = no
  /// default deadline.
  double default_deadline_ms = 0.0;
  /// Reload circuit breaker: this many consecutive reload failures open
  /// the breaker — further reloads get 503 + Retry-After until
  /// `reload_breaker_cooldown_ms` passes, then one half-open probe reload
  /// is admitted (success closes the breaker, failure reopens it). The
  /// state shows on /healthz and /metrics. 0 disables the breaker.
  int reload_breaker_threshold = 3;
  double reload_breaker_cooldown_ms = 5000.0;
  HttpLimits limits;
  BatcherOptions batcher;  ///< used when no external batcher is supplied

  Status Validate() const;
};

/// Snapshot of one route's counters.
struct RouteStats {
  std::string route;
  int64_t requests = 0;
  int64_t errors = 0;          ///< responses with status >= 400
  int64_t slo_violations = 0;  ///< responses slower than slo_ms
  int64_t shed = 0;            ///< 503s from deadlines/overload/breaker
  LatencySummary latency_ms;   ///< dispatch -> response enqueued
};

/// Renders the JSON body for a list of predictions (shared with tests and
/// the load bench so expected bodies are byte-exact).
std::string PredictionsToJson(const std::vector<serve::Prediction>& preds);
/// Renders the JSON body for a /v1/topk answer.
std::string TopKToJson(int64_t node,
                       const std::vector<std::pair<int64_t, float>>& topk);

class HttpServer {
 public:
  /// `batcher` may be null, in which case the server builds its own from
  /// options.batcher and drains it when Run() returns. A shared batcher
  /// (the daemon's file/stdin path uses the same one) stays running.
  HttpServer(std::shared_ptr<serve::EngineHandle> engine,
             std::shared_ptr<ContinuousBatcher> batcher,
             HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and listens. After success port() is the bound port.
  Status Start();
  int port() const { return port_; }

  /// Runs the reactor on the calling thread until Shutdown(). Requires a
  /// successful Start().
  void Run();

  /// Asks Run() to drain and return. Safe from any thread and from signal
  /// handlers. Idempotent.
  void Shutdown();

  /// Prometheus-style text rendering of every counter (also what
  /// GET /metrics serves).
  std::string MetricsText() const;
  std::vector<RouteStats> AllRouteStats() const;

  int64_t connections_total() const { return connections_total_.load(); }
  /// Responses computed but undeliverable because the client had gone.
  int64_t responses_client_gone() const { return client_gone_.load(); }
  const ContinuousBatcher& batcher() const { return *batcher_; }

 private:
  struct Connection;
  struct RouteMetrics;
  enum Route : int;
  struct RouteSpec;
  /// {path, method, Route} of every served path; HandleRequest resolves
  /// each request against it once.
  static const RouteSpec kRouteTable[];

  void AcceptReady();
  void ConnectionReady(uint64_t conn_id, uint32_t events);
  void ReadInput(Connection* conn);
  void ParseBuffered(Connection* conn);
  void HandleRequest(Connection* conn, HttpRequest request);
  /// /v1/predict and /v1/topk: parses the body into node ids, submits
  /// them to the batcher and answers through CompleteAsync.
  void HandleQuery(Connection* conn, uint64_t slot, Route route,
                   bool keep_alive, double deadline_ms, const Stopwatch& watch,
                   const std::string& body);
  void HandleReload(Connection* conn, uint64_t slot, bool keep_alive,
                    const Stopwatch& watch, const std::string& body);
  /// Loop thread: finishes an asynchronous route's request on connection
  /// `conn_id`, which may have closed while the request was in flight.
  void CompleteAsync(uint64_t conn_id, uint64_t slot, Route route,
                     double elapsed_ms, HttpResponse response);
  /// Records route metrics, then serialises + enqueues at `slot`, keeping
  /// pipelined responses in request order. A null `conn` (the client has
  /// gone) is counted in responses_client_gone() instead.
  void FinishRequest(Connection* conn, uint64_t slot, Route route,
                     double elapsed_ms, HttpResponse response);
  void DeliverSerialized(Connection* conn, uint64_t slot, std::string bytes,
                         bool close_after);
  void FlushOutput(Connection* conn);
  void UpdateEventMask(Connection* conn);
  void CloseConnection(Connection* conn);
  void OnTick();
  bool Drained() const;

  /// Shared with batcher completion callbacks, which may outlive the
  /// server when the batcher is externally owned. The destructor flips
  /// `alive` under the mutex: a callback that observed alive == true has
  /// finished its loop_.Post before destruction proceeds; later ones
  /// drop the response instead of touching freed memory.
  struct Liveness {
    std::mutex mu;
    bool alive = true;
  };

  std::shared_ptr<serve::EngineHandle> engine_;
  std::shared_ptr<ContinuousBatcher> batcher_;
  const bool owns_batcher_;
  HttpServerOptions options_;
  std::shared_ptr<Liveness> liveness_ = std::make_shared<Liveness>();

  EventLoop loop_;
  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;
  bool draining_ = false;
  /// accept4 hit a persistent error (fd exhaustion); the listen fd is
  /// deregistered until OnTick re-arms it.
  bool accept_paused_ = false;

  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  /// Requests admitted to the batcher whose response is still pending.
  int64_t inflight_ = 0;

  // Hot-swap state (loop thread only, except the worker body).
  bool reload_in_progress_ = false;
  std::thread reload_thread_;
  std::atomic<int64_t> reloads_total_{0};

  // Reload circuit breaker. Transitions happen on the loop thread; the
  // state and failure count are atomics so MetricsText (any thread) can
  // read them.
  enum class BreakerState : int { kClosed = 0, kHalfOpen = 1, kOpen = 2 };
  std::atomic<int> breaker_state_{0};
  std::atomic<int64_t> reload_failures_total_{0};
  int reload_failure_streak_ = 0;  ///< loop thread only
  Stopwatch breaker_opened_;       ///< loop thread only
  /// Cooldown still to wait before the next probe reload, or 0.
  double BreakerRemainingMs() const;
  void OnReloadOutcome(bool ok);

  std::atomic<int64_t> connections_total_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> client_gone_{0};
  std::unique_ptr<RouteMetrics[]> routes_;
};

}  // namespace net
}  // namespace graphrare

#endif  // GRAPHRARE_NET_SERVER_H_
