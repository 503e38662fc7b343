#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "net/json.h"
#include "serve/artifact.h"

namespace graphrare {
namespace net {

namespace {

constexpr int kListenBacklog = 128;
constexpr int kMaxConnections = 1024;
/// Ceiling for client-supplied X-Deadline-Ms values.
constexpr double kMaxDeadlineMs = 60000.0;

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

std::string ErrorBody(const std::string& message) {
  return StrFormat("{\"error\":\"%s\"}", JsonEscape(message).c_str());
}

HttpResponse ErrorResponse(int status, const std::string& message,
                           bool keep_alive = true) {
  HttpResponse r;
  r.status = status;
  r.body = ErrorBody(message);
  r.keep_alive = keep_alive;
  return r;
}

/// The request target without its query string.
std::string TargetPath(const std::string& target) {
  const size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

/// A parsed /v1/predict or /v1/topk body: the node ids to submit to the
/// batcher and the renderer of its answer.
struct Query {
  std::vector<int64_t> ids;
  std::function<std::string(const std::vector<serve::Prediction>&)> render;
};

Result<Query> ParsePredict(const std::string& body) {
  GR_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(body));
  const JsonValue* nodes = doc.Find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->items().empty()) {
    return Status::InvalidArgument("body must be {\"nodes\":[id,...]}");
  }
  Query query;
  query.ids.reserve(nodes->items().size());
  for (const JsonValue& item : nodes->items()) {
    auto id_or = item.AsInt64();
    if (!id_or.ok()) {
      return Status::InvalidArgument("nodes must be integers");
    }
    query.ids.push_back(*id_or);
  }
  query.render = PredictionsToJson;
  return query;
}

Result<Query> ParseTopK(const std::string& body) {
  GR_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(body));
  int64_t k = 1;
  if (const JsonValue* kv = doc.Find("k")) {
    auto k_or = kv->AsInt64();
    if (!k_or.ok() || *k_or < 1) {
      return Status::InvalidArgument("k must be a positive integer");
    }
    k = *k_or;
  }
  const JsonValue* node_value = doc.Find("node");
  if (node_value == nullptr) {
    return Status::InvalidArgument("body must be {\"node\":id,\"k\":K}");
  }
  GR_ASSIGN_OR_RETURN(const int64_t node, node_value->AsInt64());
  Query query;
  query.ids = {node};
  query.render = [node, k](const std::vector<serve::Prediction>& preds) {
    return TopKToJson(node, serve::TopKOf(preds[0], k));
  };
  return query;
}

}  // namespace

std::string PredictionsToJson(const std::vector<serve::Prediction>& preds) {
  std::string out = "{\"predictions\":[";
  for (size_t i = 0; i < preds.size(); ++i) {
    const serve::Prediction& p = preds[i];
    if (i) out += ",";
    out += StrFormat("{\"node\":%lld,\"class\":%lld,\"probabilities\":[",
                     static_cast<long long>(p.node),
                     static_cast<long long>(p.predicted_class));
    for (size_t c = 0; c < p.probabilities.size(); ++c) {
      if (c) out += ",";
      out += StrFormat("%.9g", static_cast<double>(p.probabilities[c]));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TopKToJson(int64_t node,
                       const std::vector<std::pair<int64_t, float>>& topk) {
  std::string out =
      StrFormat("{\"node\":%lld,\"topk\":[", static_cast<long long>(node));
  for (size_t i = 0; i < topk.size(); ++i) {
    if (i) out += ",";
    out += StrFormat("{\"class\":%lld,\"probability\":%.9g}",
                     static_cast<long long>(topk[i].first),
                     static_cast<double>(topk[i].second));
  }
  out += "]}";
  return out;
}

Status HttpServerOptions::Validate() const {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  if (idle_timeout_ms < 0) {
    return Status::InvalidArgument("idle_timeout_ms must be >= 0");
  }
  if (tick_ms < 1) {
    return Status::InvalidArgument("tick_ms must be >= 1");
  }
  if (slo_ms <= 0.0) {
    return Status::InvalidArgument("slo_ms must be > 0");
  }
  if (default_deadline_ms < 0.0) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  if (reload_breaker_threshold < 0) {
    return Status::InvalidArgument("reload_breaker_threshold must be >= 0");
  }
  if (reload_breaker_cooldown_ms < 0.0) {
    return Status::InvalidArgument("reload_breaker_cooldown_ms must be >= 0");
  }
  return batcher.Validate();
}

enum HttpServer::Route : int {
  kRoutePredict = 0,
  kRouteTopk,
  kRouteReload,
  kRouteHealthz,
  kRouteMetrics,
  kRouteOther,
  kNumRoutes,
};

struct HttpServer::RouteSpec {
  const char* path;
  const char* method;  ///< the one method the route answers
  Route route;
};

const HttpServer::RouteSpec HttpServer::kRouteTable[] = {
    {"/v1/predict", "POST", kRoutePredict},
    {"/v1/topk", "POST", kRouteTopk},
    {"/v1/reload", "POST", kRouteReload},
    {"/healthz", "GET", kRouteHealthz},
    {"/metrics", "GET", kRouteMetrics},
};

struct HttpServer::RouteMetrics {
  const char* name = "";
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> slo_violations{0};
  std::atomic<int64_t> shed{0};  ///< 503s from deadlines/overload/breaker
  LatencyRecorder latency_ms;
};

struct HttpServer::Connection {
  int fd = -1;
  uint64_t id = 0;
  HttpParser parser;
  Stopwatch last_activity;

  // Pipelined-response ordering: each parsed request takes the next slot;
  // serialized responses wait in `ready` until all predecessors shipped.
  uint64_t next_dispatch_slot = 0;
  uint64_t next_send_slot = 0;
  std::map<uint64_t, std::string> ready;

  std::string outbuf;
  size_t outpos = 0;
  int inflight = 0;  ///< requests at the batcher / reload thread
  bool stopped_reading = false;  ///< no further requests will be parsed
  bool saw_eof = false;          ///< peer half-closed; no more bytes arrive
  bool close_after_flush = false;
  uint32_t event_mask = 0;

  explicit Connection(HttpLimits limits) : parser(limits) {}

  bool HasPendingOutput() const { return outpos < outbuf.size(); }
  bool FullyIdle() const {
    return inflight == 0 && !HasPendingOutput() && ready.empty();
  }
};

HttpServer::HttpServer(std::shared_ptr<serve::EngineHandle> engine,
                       std::shared_ptr<ContinuousBatcher> batcher,
                       HttpServerOptions options)
    : engine_(std::move(engine)),
      batcher_(std::move(batcher)),
      owns_batcher_(batcher_ == nullptr),
      options_(std::move(options)) {
  GR_CHECK(engine_ != nullptr) << "HttpServer needs an engine handle";
  GR_CHECK(options_.Validate().ok()) << options_.Validate().ToString();
  if (batcher_ == nullptr) {
    batcher_ =
        std::make_shared<ContinuousBatcher>(engine_, options_.batcher);
  }
  routes_.reset(new RouteMetrics[kNumRoutes]);
  for (const RouteSpec& spec : kRouteTable) {
    routes_[spec.route].name = spec.path;
  }
  routes_[kRouteOther].name = "other";
}

HttpServer::~HttpServer() {
  Shutdown();
  if (reload_thread_.joinable()) reload_thread_.join();
  // An externally owned batcher keeps running after we are gone; revoke
  // the liveness token so completions for requests this server submitted
  // drop their responses instead of posting into a destroyed loop.
  {
    std::lock_guard<std::mutex> lock(liveness_->mu);
    liveness_->alive = false;
  }
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (owns_batcher_) batcher_->Stop();
}

Status HttpServer::Start() {
  GR_RETURN_IF_ERROR(loop_.Ok());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) return Errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));

  GR_RETURN_IF_ERROR(
      loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); }));
  started_ = true;
  return Status::OK();
}

void HttpServer::Run() {
  GR_CHECK(started_) << "HttpServer::Run before a successful Start";
  // Phase 1: serve until Shutdown() stops the loop.
  loop_.Run(options_.tick_ms, [this] { OnTick(); });

  // Phase 2: drain. Stop accepting, finish every admitted request, flush
  // every response, then return. Idle keep-alive connections are closed
  // immediately; busy ones as they complete.
  draining_ = true;
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!Drained()) {
    loop_.ResetStop();
    loop_.Run(options_.tick_ms, [this] {
      OnTick();
      if (Drained()) loop_.Stop();
    });
  }
  // Close whatever survives (idle keep-alive connections).
  while (!conns_.empty()) CloseConnection(conns_.begin()->second.get());
  if (owns_batcher_) batcher_->Stop();
}

void HttpServer::Shutdown() { loop_.Stop(); }

bool HttpServer::Drained() const {
  if (inflight_ != 0 || reload_in_progress_) return false;
  for (const auto& [id, conn] : conns_) {
    if (!conn->FullyIdle()) return false;
  }
  return true;
}

void HttpServer::OnTick() {
  if (draining_) {
    // Shed idle connections so the drain converges.
    std::vector<Connection*> idle;
    for (auto& [id, conn] : conns_) {
      if (conn->FullyIdle()) idle.push_back(conn.get());
    }
    for (Connection* conn : idle) CloseConnection(conn);
    return;
  }
  if (accept_paused_ && listen_fd_ >= 0) {
    accept_paused_ =
        !loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); })
             .ok();
  }
  if (options_.idle_timeout_ms <= 0) return;
  std::vector<Connection*> expired;
  for (auto& [id, conn] : conns_) {
    if (conn->inflight == 0 && !conn->HasPendingOutput() &&
        conn->last_activity.ElapsedMillis() > options_.idle_timeout_ms) {
      expired.push_back(conn.get());
    }
  }
  for (Connection* conn : expired) CloseConnection(conn);
}

void HttpServer::AcceptReady() {
  while (true) {
    const int fd = failpoint::Accept4("net.accept", listen_fd_, nullptr,
                                      nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // backlog empty
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // A persistent failure (EMFILE/ENFILE fd exhaustion and kin): the
      // level-triggered listen fd would report readable on every poll and
      // busy-spin the reactor. Pause accepting; OnTick re-arms once the
      // pressure may have eased (closed connections free fds).
      loop_.Remove(listen_fd_);
      accept_paused_ = true;
      return;
    }
    if (static_cast<int>(conns_.size()) >= kMaxConnections) {
      connections_rejected_.fetch_add(1);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->event_mask = EPOLLIN;
    Connection* raw = conn.get();
    conns_.emplace(raw->id, std::move(conn));
    connections_total_.fetch_add(1);
    const uint64_t id = raw->id;
    if (!loop_.Add(fd, EPOLLIN, [this, id](uint32_t events) {
          ConnectionReady(id, events);
        }).ok()) {
      CloseConnection(raw);
    }
  }
}

void HttpServer::ConnectionReady(uint64_t conn_id, uint32_t events) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConnection(conn);
    return;
  }
  if (events & EPOLLOUT) {
    FlushOutput(conn);
    if (conns_.find(conn_id) == conns_.end()) return;  // closed by flush
  }
  if (events & EPOLLIN) ReadInput(conn);
}

void HttpServer::ReadInput(Connection* conn) {
  char buf[4096];
  while (!conn->stopped_reading && !conn->saw_eof) {
    const ssize_t n = failpoint::Read("net.read", conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->last_activity.Restart();
      conn->parser.Feed(buf, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {
      // Peer half-closed its sending side. Complete requests may still
      // sit in the parser buffer — answer them, then close once every
      // response is flushed. (ParseBuffered handles the close.)
      conn->saw_eof = true;
      conn->close_after_flush = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  ParseBuffered(conn);
}

void HttpServer::ParseBuffered(Connection* conn) {
  const uint64_t id = conn->id;
  while (!conn->stopped_reading) {
    const HttpParser::State state = conn->parser.Next();
    if (state == HttpParser::State::kNeedMore) break;
    if (state == HttpParser::State::kError) {
      // Framing is unrecoverable: answer (in pipeline order) and close.
      conn->stopped_reading = true;
      const uint64_t slot = conn->next_dispatch_slot++;
      const Stopwatch watch;
      FinishRequest(conn, slot, kRouteOther, watch.ElapsedMillis(),
                    ErrorResponse(conn->parser.error_status_code(),
                                  conn->parser.error().message(),
                                  /*keep_alive=*/false));
      break;
    }
    HandleRequest(conn, std::move(conn->parser.request()));
    if (conns_.find(id) == conns_.end()) return;  // closed
  }
  // FinishRequest can close the connection inline (error response fully
  // flushed with nothing in flight) — conn is gone then.
  if (conns_.find(id) == conns_.end()) return;
  if (conn->saw_eof && conn->FullyIdle()) {
    // EOF with nothing in flight, queued, or buffered to write; a
    // trailing partial request can never complete. Close now.
    CloseConnection(conn);
    return;
  }
  UpdateEventMask(conn);
}

void HttpServer::HandleRequest(Connection* conn, HttpRequest request) {
  const uint64_t slot = conn->next_dispatch_slot++;
  const bool keep_alive = request.keep_alive;
  if (!keep_alive) conn->stopped_reading = true;
  const std::string path = TargetPath(request.target);
  const Stopwatch watch;

  const RouteSpec* spec = nullptr;
  for (const RouteSpec& s : kRouteTable) {
    if (path == s.path) spec = &s;
  }
  const Route route = spec != nullptr ? spec->route : kRouteOther;
  auto reply = [&](HttpResponse r) {
    FinishRequest(conn, slot, route, watch.ElapsedMillis(), std::move(r));
  };
  if (spec == nullptr) {
    reply(ErrorResponse(404, "no such route: " + path, keep_alive));
    return;
  }
  if (request.method != spec->method) {
    reply(ErrorResponse(405, StrFormat("use %s", spec->method), keep_alive));
    return;
  }
  if (route == kRouteHealthz) {
    const auto engine = engine_->Get();
    const BreakerState breaker =
        static_cast<BreakerState>(breaker_state_.load());
    const char* breaker_name = breaker == BreakerState::kOpen ? "open"
                               : breaker == BreakerState::kHalfOpen
                                   ? "half_open"
                                   : "closed";
    HttpResponse r;
    r.keep_alive = keep_alive;
    r.body = StrFormat(
        "{\"status\":\"%s\",\"generation\":%lld,\"nodes\":%lld,"
        "\"classes\":%lld,\"mode\":\"%s\",\"reload_breaker\":\"%s\"}",
        breaker == BreakerState::kOpen ? "degraded" : "ok",
        static_cast<long long>(engine_->generation()),
        static_cast<long long>(engine->num_nodes()),
        static_cast<long long>(engine->num_classes()),
        engine->full_graph_mode() ? "full" : "sampled", breaker_name);
    reply(std::move(r));
    return;
  }
  if (route == kRouteMetrics) {
    HttpResponse r;
    r.keep_alive = keep_alive;
    r.content_type = "text/plain; version=0.0.4";
    r.body = MetricsText();
    reply(std::move(r));
    return;
  }
  // The POST routes. Per-request deadline: the route default, overridable
  // (within the configured ceiling) by X-Deadline-Ms.
  double deadline_ms = options_.default_deadline_ms;
  if (const std::string* header = request.FindHeader("x-deadline-ms")) {
    char* end = nullptr;
    const double v = std::strtod(header->c_str(), &end);
    if (end == header->c_str() || *end != '\0' || !(v > 0.0)) {
      reply(ErrorResponse(400, "X-Deadline-Ms must be a positive number",
                          keep_alive));
      return;
    }
    deadline_ms = std::min(v, kMaxDeadlineMs);
  }
  if (route == kRouteReload) {
    HandleReload(conn, slot, keep_alive, watch, request.body);
  } else {
    HandleQuery(conn, slot, route, keep_alive, deadline_ms, watch,
                request.body);
  }
}

void HttpServer::HandleQuery(Connection* conn, uint64_t slot, Route route,
                             bool keep_alive, double deadline_ms,
                             const Stopwatch& watch,
                             const std::string& body) {
  Result<Query> query =
      route == kRoutePredict ? ParsePredict(body) : ParseTopK(body);
  if (!query.ok()) {
    FinishRequest(conn, slot, route, watch.ElapsedMillis(),
                  ErrorResponse(400, query.status().message(), keep_alive));
    return;
  }

  const uint64_t conn_id = conn->id;
  const std::shared_ptr<Liveness> liveness = liveness_;
  const Status admitted = batcher_->Submit(
      std::move(query->ids), deadline_ms,
      [this, liveness, conn_id, slot, route, keep_alive, watch,
       render = std::move(query->render)](
          Result<std::vector<serve::Prediction>> result) {
        // Worker thread: marshal onto the reactor — unless the server has
        // been destroyed under a longer-lived external batcher.
        std::lock_guard<std::mutex> lock(liveness->mu);
        if (!liveness->alive) return;
        loop_.Post([this, conn_id, slot, route, keep_alive, watch, render,
                    result = std::move(result)] {
          HttpResponse r;
          r.keep_alive = keep_alive;
          if (result.ok()) {
            r.body = render(result.value());
          } else if (result.status().code() ==
                     StatusCode::kDeadlineExceeded) {
            // Shed in queue: tell the client to back off briefly.
            r.status = 503;
            r.retry_after_s = 1;
            r.body = ErrorBody(result.status().message());
            routes_[route].shed.fetch_add(1);
          } else {
            r.status =
                result.status().code() == StatusCode::kOutOfRange ? 400 : 500;
            r.body = ErrorBody(result.status().message());
          }
          CompleteAsync(conn_id, slot, route, watch.ElapsedMillis(),
                        std::move(r));
        });
      });
  if (!admitted.ok()) {
    // Queue full (or shutdown): shed at admission with the same contract.
    HttpResponse r = ErrorResponse(503, admitted.message(), keep_alive);
    r.retry_after_s = 1;
    routes_[route].shed.fetch_add(1);
    FinishRequest(conn, slot, route, watch.ElapsedMillis(), std::move(r));
    return;
  }
  ++inflight_;
  ++conn->inflight;
}

void HttpServer::HandleReload(Connection* conn, uint64_t slot,
                              bool keep_alive, const Stopwatch& watch,
                              const std::string& body) {
  auto reply = [&](HttpResponse r) {
    FinishRequest(conn, slot, kRouteReload, watch.ElapsedMillis(),
                  std::move(r));
  };
  auto doc_or = JsonValue::Parse(body);
  const JsonValue* path_value = doc_or.ok() ? doc_or->Find("path") : nullptr;
  if (path_value == nullptr || !path_value->is_string() ||
      path_value->AsString().empty()) {
    reply(ErrorResponse(400, "body must be {\"path\":\"...\"}", keep_alive));
    return;
  }
  if (reload_in_progress_) {
    reply(ErrorResponse(409, "a reload is already in progress", keep_alive));
    return;
  }
  // Circuit breaker: while open, reloads are refused outright until the
  // cooldown passes; the first reload after cooldown runs as a half-open
  // probe (success closes the breaker, failure reopens it).
  if (static_cast<BreakerState>(breaker_state_.load()) ==
      BreakerState::kOpen) {
    const double remaining_ms = BreakerRemainingMs();
    if (remaining_ms > 0.0) {
      HttpResponse r = ErrorResponse(
          503,
          StrFormat("reload circuit breaker is open (%d consecutive "
                    "failures); retry after cooldown",
                    options_.reload_breaker_threshold),
          keep_alive);
      r.retry_after_s =
          static_cast<int>((remaining_ms + 999.0) / 1000.0);
      routes_[kRouteReload].shed.fetch_add(1);
      reply(std::move(r));
      return;
    }
    breaker_state_.store(static_cast<int>(BreakerState::kHalfOpen));
  }
  if (reload_thread_.joinable()) reload_thread_.join();
  reload_in_progress_ = true;
  ++inflight_;
  ++conn->inflight;

  const std::string path = path_value->AsString();
  const serve::EngineOptions engine_options = engine_->Get()->options();
  const uint64_t conn_id = conn->id;
  // The artifact load + engine build (the expensive part: a full forward
  // pass in full-graph mode) runs beside the serving engine; the reactor
  // and the batch workers keep answering on v1 throughout.
  reload_thread_ = std::thread([this, path, engine_options, conn_id, slot,
                                keep_alive, watch] {
    auto swap_in = [&]() -> Result<int64_t> {
      GR_ASSIGN_OR_RETURN(serve::ModelArtifact artifact,
                          serve::ModelArtifact::Load(path));
      GR_ASSIGN_OR_RETURN(serve::InferenceEngine engine,
                          serve::InferenceEngine::FromArtifact(
                              std::move(artifact), engine_options));
      engine_->Swap(std::make_shared<const serve::InferenceEngine>(
          std::move(engine)));
      return engine_->generation();
    };
    auto generation_or = swap_in();
    loop_.Post([this, path, conn_id, slot, keep_alive, watch,
                generation_or = std::move(generation_or)] {
      reload_in_progress_ = false;
      if (generation_or.ok()) reloads_total_.fetch_add(1);
      OnReloadOutcome(generation_or.ok());
      HttpResponse r;
      r.keep_alive = keep_alive;
      if (generation_or.ok()) {
        r.body = StrFormat(
            "{\"status\":\"ok\",\"generation\":%lld,\"path\":\"%s\"}",
            static_cast<long long>(generation_or.value()),
            JsonEscape(path).c_str());
      } else {
        // The incumbent engine was never unpublished: swap_in only swaps
        // after a fully validated load, so a failure is a clean rollback.
        r.status = 500;
        r.body = StrFormat(
            "{\"error\":\"%s\",\"rolled_back\":true,\"generation\":%lld}",
            JsonEscape(generation_or.status().ToString()).c_str(),
            static_cast<long long>(engine_->generation()));
      }
      CompleteAsync(conn_id, slot, kRouteReload, watch.ElapsedMillis(),
                    std::move(r));
    });
  });
}

void HttpServer::CompleteAsync(uint64_t conn_id, uint64_t slot, Route route,
                               double elapsed_ms, HttpResponse response) {
  --inflight_;
  const auto it = conns_.find(conn_id);
  Connection* conn = it == conns_.end() ? nullptr : it->second.get();
  if (conn != nullptr) --conn->inflight;
  FinishRequest(conn, slot, route, elapsed_ms, std::move(response));
}

double HttpServer::BreakerRemainingMs() const {
  const double elapsed = breaker_opened_.ElapsedMillis();
  return elapsed >= options_.reload_breaker_cooldown_ms
             ? 0.0
             : options_.reload_breaker_cooldown_ms - elapsed;
}

void HttpServer::OnReloadOutcome(bool ok) {
  if (ok) {
    reload_failure_streak_ = 0;
    breaker_state_.store(static_cast<int>(BreakerState::kClosed));
    return;
  }
  reload_failures_total_.fetch_add(1);
  ++reload_failure_streak_;
  const BreakerState state =
      static_cast<BreakerState>(breaker_state_.load());
  if (options_.reload_breaker_threshold > 0 &&
      (state == BreakerState::kHalfOpen ||
       reload_failure_streak_ >= options_.reload_breaker_threshold)) {
    breaker_state_.store(static_cast<int>(BreakerState::kOpen));
    breaker_opened_.Restart();
  }
}

void HttpServer::FinishRequest(Connection* conn, uint64_t slot, Route route,
                               double elapsed_ms, HttpResponse response) {
  RouteMetrics& m = routes_[route];
  m.requests.fetch_add(1);
  if (response.status >= 400) m.errors.fetch_add(1);
  if (elapsed_ms > options_.slo_ms) m.slo_violations.fetch_add(1);
  m.latency_ms.Record(elapsed_ms);
  if (conn == nullptr) {  // the client left while the request was in flight
    client_gone_.fetch_add(1);
    return;
  }
  const bool close_after = !response.keep_alive;
  DeliverSerialized(conn, slot, SerializeResponse(response), close_after);
}

void HttpServer::DeliverSerialized(Connection* conn, uint64_t slot,
                                   std::string bytes, bool close_after) {
  if (close_after) conn->close_after_flush = true;
  conn->ready.emplace(slot, std::move(bytes));
  while (true) {
    const auto it = conn->ready.find(conn->next_send_slot);
    if (it == conn->ready.end()) break;
    conn->outbuf.append(it->second);
    conn->ready.erase(it);
    ++conn->next_send_slot;
  }
  conn->last_activity.Restart();
  FlushOutput(conn);
}

void HttpServer::FlushOutput(Connection* conn) {
  while (conn->HasPendingOutput()) {
    const ssize_t n =
        failpoint::Write("net.write", conn->fd,
                         conn->outbuf.data() + conn->outpos,
                         conn->outbuf.size() - conn->outpos);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);  // peer reset mid-response
    return;
  }
  if (!conn->HasPendingOutput()) {
    conn->outbuf.clear();
    conn->outpos = 0;
    if (conn->close_after_flush && conn->inflight == 0 &&
        conn->ready.empty()) {
      CloseConnection(conn);
      return;
    }
  }
  UpdateEventMask(conn);
}

void HttpServer::UpdateEventMask(Connection* conn) {
  uint32_t mask = 0;
  // After EOF the fd stays level-triggered readable forever; dropping
  // EPOLLIN keeps the reactor from spinning while responses are pending.
  if (!conn->stopped_reading && !conn->saw_eof) mask |= EPOLLIN;
  if (conn->HasPendingOutput()) mask |= EPOLLOUT;
  if (mask != conn->event_mask) {
    conn->event_mask = mask;
    loop_.Modify(conn->fd, mask);
  }
}

void HttpServer::CloseConnection(Connection* conn) {
  loop_.Remove(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  // In-flight completions look the connection up by id and find nothing;
  // the global inflight_ count still reaches zero through their Posts.
  conns_.erase(conn->id);
}

std::vector<RouteStats> HttpServer::AllRouteStats() const {
  std::vector<RouteStats> out;
  out.reserve(kNumRoutes);
  for (int r = 0; r < kNumRoutes; ++r) {
    RouteStats s;
    s.route = routes_[r].name;
    s.requests = routes_[r].requests.load();
    s.errors = routes_[r].errors.load();
    s.slo_violations = routes_[r].slo_violations.load();
    s.shed = routes_[r].shed.load();
    s.latency_ms = routes_[r].latency_ms.Summary();
    out.push_back(std::move(s));
  }
  return out;
}

std::string HttpServer::MetricsText() const {
  std::string out;
  out += StrFormat("graphrare_engine_generation %lld\n",
                   static_cast<long long>(engine_->generation()));
  out += StrFormat("graphrare_engine_reloads_total %lld\n",
                   static_cast<long long>(reloads_total_.load()));
  out += StrFormat("graphrare_reload_failures_total %lld\n",
                   static_cast<long long>(reload_failures_total_.load()));
  // 0 = closed, 1 = half-open, 2 = open.
  out += StrFormat("graphrare_reload_breaker_state %d\n",
                   breaker_state_.load());
  out += StrFormat("graphrare_connections_total %lld\n",
                   static_cast<long long>(connections_total_.load()));
  out += StrFormat("graphrare_connections_rejected_total %lld\n",
                   static_cast<long long>(connections_rejected_.load()));
  out += StrFormat("graphrare_responses_client_gone_total %lld\n",
                   static_cast<long long>(client_gone_.load()));

  const BatcherStats b = batcher_->Stats();
  out += StrFormat("graphrare_batch_requests_submitted_total %lld\n",
                   static_cast<long long>(b.submitted));
  out += StrFormat("graphrare_batch_requests_rejected_total %lld\n",
                   static_cast<long long>(b.rejected));
  out += StrFormat("graphrare_batches_total %lld\n",
                   static_cast<long long>(b.batches));
  out += StrFormat("graphrare_batch_requests_total %lld\n",
                   static_cast<long long>(b.batched_requests));
  out += StrFormat("graphrare_batch_max_size %lld\n",
                   static_cast<long long>(b.max_batch_seen));
  out += StrFormat("graphrare_batch_queue_depth %lld\n",
                   static_cast<long long>(b.queue_depth));
  out += StrFormat("graphrare_batch_shed_total %lld\n",
                   static_cast<long long>(b.shed));
  out += StrFormat("graphrare_batch_effective_max %lld\n",
                   static_cast<long long>(b.effective_max_batch));
  out += StrFormat("graphrare_batch_overload_shrinks_total %lld\n",
                   static_cast<long long>(b.overload_shrinks));
  out += StrFormat(
      "graphrare_batch_queue_delay_ms{quantile=\"0.5\"} %.6g\n",
      b.queue_delay_ms.p50);
  out += StrFormat(
      "graphrare_batch_queue_delay_ms{quantile=\"0.99\"} %.6g\n",
      b.queue_delay_ms.p99);

  for (const RouteStats& s : AllRouteStats()) {
    const char* route = s.route.c_str();
    out += StrFormat("graphrare_requests_total{route=\"%s\"} %lld\n", route,
                     static_cast<long long>(s.requests));
    out += StrFormat("graphrare_request_errors_total{route=\"%s\"} %lld\n",
                     route, static_cast<long long>(s.errors));
    out += StrFormat("graphrare_requests_shed_total{route=\"%s\"} %lld\n",
                     route, static_cast<long long>(s.shed));
    out += StrFormat(
        "graphrare_slo_violations_total{route=\"%s\",slo_ms=\"%.6g\"} %lld\n",
        route, options_.slo_ms, static_cast<long long>(s.slo_violations));
    if (s.latency_ms.count > 0) {
      out += StrFormat(
          "graphrare_request_latency_ms{route=\"%s\",quantile=\"0.5\"} %.6g\n",
          route, s.latency_ms.p50);
      out += StrFormat(
          "graphrare_request_latency_ms{route=\"%s\",quantile=\"0.95\"} "
          "%.6g\n",
          route, s.latency_ms.p95);
      out += StrFormat(
          "graphrare_request_latency_ms{route=\"%s\",quantile=\"0.99\"} "
          "%.6g\n",
          route, s.latency_ms.p99);
    }
  }
  return out;
}

}  // namespace net
}  // namespace graphrare
