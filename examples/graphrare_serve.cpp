// Serving daemon for GraphRARE model artifacts — the deploy half of the
// train -> artifact -> serve pipeline. Two front-ends, one dispatch path:
// every query, whether it arrives on stdin, from a --queries file, or over
// HTTP, goes through the same serve::EngineHandle ->
// net::ContinuousBatcher pipeline, and every completion lands in the same
// latency accounting, so the percentile report printed at shutdown means
// the same thing in all modes.
//
// Usage:
//   graphrare_serve --artifact=model.grare [--queries=FILE] [--topk=3]
//                   [--fanouts=10,10] [--seed=1]
//                   [--http=PORT] [--max-batch=16] [--max-delay-ms=2]
//                   [--workers=1] [--slo-ms=50] [--deadline-ms=0]
//                   [--batch-budget-ms=0] [--breaker-threshold=3]
//                   [--breaker-cooldown-ms=5000]
//
// Numeric flags parse strictly: a value that is not wholly a number of the
// flag's type (--topk=3x, --seed=-1) exits 2 and names the flag, as an
// unknown flag does.
//
// Robustness knobs (HTTP mode): --deadline-ms gives every /v1/predict and
// /v1/topk request a default deadline (clients override per request with
// X-Deadline-Ms); queued work that outlives its deadline is shed with
// 503 + Retry-After. --batch-budget-ms arms the overload watchdog that
// adaptively shrinks the batch cap when engine calls blow their budget.
// --breaker-threshold/--breaker-cooldown-ms tune the reload circuit
// breaker. The GRAPHRARE_FAILPOINTS environment variable injects faults
// for chaos drills (see src/common/failpoint.h for the spec grammar).
//
// CLI mode (default): one query per line, each a whitespace-separated list
// of node ids. Queries run one at a time through the batcher, answered as
// each line arrives (the per-query latency percentiles measure exactly
// that).
//
// HTTP mode (--http=PORT): serves POST /v1/predict, POST /v1/topk,
// POST /v1/reload (artifact hot-swap), GET /healthz, and GET /metrics on
// 127.0.0.1:PORT until SIGINT/SIGTERM.
//
// Both modes shut down gracefully on SIGINT/SIGTERM: stop admitting work,
// drain everything in flight, then print final percentiles.
//
// Produce an artifact with:
//   graphrare_cli --dataset=cornell --rare --save-artifact=model.grare

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "core/graphrare.h"
#include "net/batcher.h"
#include "net/server.h"

using namespace graphrare;

namespace {

std::atomic<net::HttpServer*> g_server{nullptr};
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) {
  g_stop = 1;
  if (net::HttpServer* server = g_server.load()) server->Shutdown();
}

void InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked stdin read must return so
                    // the CLI loop can drain and report
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Strict numeric flag values; anything else exits 2 naming the flag.
[[noreturn]] void InvalidFlag(const std::string& arg, const char* want) {
  std::fprintf(stderr, "invalid %s (want %s)\n", arg.c_str(), want);
  std::exit(2);
}

int IntFlag(const std::string& arg, const char* v) {
  int64_t x = 0;
  if (!ParseInt64(v, &x) || x < INT_MIN || x > INT_MAX) {
    InvalidFlag(arg, "an integer");
  }
  return static_cast<int>(x);
}

uint64_t Uint64Flag(const std::string& arg, const char* v) {
  uint64_t x = 0;
  if (!ParseUint64(v, &x)) InvalidFlag(arg, "a non-negative integer");
  return x;
}

double DoubleFlag(const std::string& arg, const char* v) {
  double x = 0.0;
  if (!ParseDouble(v, &x)) InvalidFlag(arg, "a number");
  return x;
}

void PrintLatencySummary(const char* label, const LatencySummary& s) {
  if (s.count == 0) return;
  std::printf("# %s latency (n=%lld): p50 %.3fms  p90 %.3fms  "
              "p99 %.3fms  max %.3fms\n",
              label, static_cast<long long>(s.count), s.p50, s.p90, s.p99,
              s.max);
}

/// The shared dispatch seam: submits through the batcher and records the
/// submit->completion time of every query into one recorder.
struct Dispatcher {
  net::ContinuousBatcher& batcher;
  LatencyRecorder latency_ms;

  /// Submits one query and blocks for its answer. Retries briefly when the
  /// admission queue is full; any other Submit failure is returned.
  Result<std::vector<serve::Prediction>> Ask(std::vector<int64_t> ids) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::vector<serve::Prediction>> out =
        Status::Internal("no completion delivered");
    const Stopwatch watch;
    while (true) {
      Status admitted = batcher.Submit(
          ids, [&](Result<std::vector<serve::Prediction>> r) {
            std::lock_guard<std::mutex> lock(mu);
            out = std::move(r);
            done = true;
            cv.notify_one();
          });
      if (admitted.ok()) break;
      if (g_stop || admitted.message() != "request queue is full") {
        return admitted;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    latency_ms.Record(watch.ElapsedMillis());
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  std::string artifact_path, queries_path, fanout_spec;
  int topk = 1;
  uint64_t seed = 1;
  int http_port = -1;
  net::BatcherOptions batcher_opts;
  double slo_ms = 50.0;
  double deadline_ms = 0.0;
  int breaker_threshold = 3;
  double breaker_cooldown_ms = 5000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                       : nullptr;
    };
    if (const char* v = value("--artifact=")) {
      artifact_path = v;
    } else if (const char* v = value("--queries=")) {
      queries_path = v;
    } else if (const char* v = value("--fanouts=")) {
      fanout_spec = v;
    } else if (const char* v = value("--topk=")) {
      topk = IntFlag(arg, v);
    } else if (const char* v = value("--seed=")) {
      seed = Uint64Flag(arg, v);
    } else if (const char* v = value("--http=")) {
      http_port = IntFlag(arg, v);
    } else if (const char* v = value("--max-batch=")) {
      batcher_opts.max_batch = IntFlag(arg, v);
    } else if (const char* v = value("--max-delay-ms=")) {
      batcher_opts.max_queue_delay_ms = DoubleFlag(arg, v);
    } else if (const char* v = value("--workers=")) {
      batcher_opts.num_workers = IntFlag(arg, v);
    } else if (const char* v = value("--slo-ms=")) {
      slo_ms = DoubleFlag(arg, v);
    } else if (const char* v = value("--deadline-ms=")) {
      deadline_ms = DoubleFlag(arg, v);
    } else if (const char* v = value("--batch-budget-ms=")) {
      batcher_opts.batch_budget_ms = DoubleFlag(arg, v);
    } else if (const char* v = value("--breaker-threshold=")) {
      breaker_threshold = IntFlag(arg, v);
    } else if (const char* v = value("--breaker-cooldown-ms=")) {
      breaker_cooldown_ms = DoubleFlag(arg, v);
    } else {
      std::fprintf(stderr, "unrecognised argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (artifact_path.empty()) {
    std::fprintf(stderr,
                 "usage: graphrare_serve --artifact=model.grare "
                 "[--queries=FILE] [--topk=K] [--fanouts=10,10] "
                 "[--http=PORT] [--max-batch=N] [--max-delay-ms=MS] "
                 "[--workers=N] [--slo-ms=MS] [--deadline-ms=MS] "
                 "[--batch-budget-ms=MS] [--breaker-threshold=N] "
                 "[--breaker-cooldown-ms=MS]\n");
    return 2;
  }
  if (const Status s = batcher_opts.Validate(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }

  // Chaos drills: GRAPHRARE_FAILPOINTS=site=spec;... arms fault injection
  // before any artifact or socket I/O happens.
  if (const int n = failpoint::ConfigureFromEnv(); n > 0) {
    std::printf("# fail points armed from GRAPHRARE_FAILPOINTS: %d site%s\n",
                n, n == 1 ? "" : "s");
  }

  serve::EngineOptions opts;
  if (!fanout_spec.empty() &&
      !ParseInt64List(fanout_spec, &opts.fanouts)) {
    std::fprintf(stderr, "error: invalid --fanouts=%s\n",
                 fanout_spec.c_str());
    return 2;
  }
  opts.seed = seed;  // fanout *values* are validated by the engine

  Stopwatch load_watch;
  auto engine_or = serve::InferenceEngine::LoadFrom(artifact_path, opts);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 engine_or.status().ToString().c_str());
    return 1;
  }
  auto handle = std::make_shared<serve::EngineHandle>(
      std::make_shared<const serve::InferenceEngine>(
          std::move(engine_or.value())));
  {
    const auto engine = handle->Get();
    std::printf("# loaded %s (%s, %lld nodes, %lld classes, %s mode) "
                "in %.3fs\n",
                artifact_path.c_str(),
                nn::BackboneName(engine->artifact().backbone),
                static_cast<long long>(engine->num_nodes()),
                static_cast<long long>(engine->num_classes()),
                engine->full_graph_mode() ? "full-graph" : "sampled",
                load_watch.ElapsedSeconds());
  }

  auto batcher =
      std::make_shared<net::ContinuousBatcher>(handle, batcher_opts);
  InstallSignalHandlers();

  if (http_port >= 0) {
    net::HttpServerOptions server_opts;
    server_opts.port = http_port;
    server_opts.slo_ms = slo_ms;
    server_opts.default_deadline_ms = deadline_ms;
    server_opts.reload_breaker_threshold = breaker_threshold;
    server_opts.reload_breaker_cooldown_ms = breaker_cooldown_ms;
    server_opts.batcher = batcher_opts;
    net::HttpServer server(handle, batcher, server_opts);
    if (const Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("# serving on http://%s:%d (max_batch=%d, "
                "max_delay=%.1fms, workers=%d, slo=%.1fms)\n",
                server_opts.host.c_str(), server.port(),
                batcher_opts.max_batch, batcher_opts.max_queue_delay_ms,
                batcher_opts.num_workers, slo_ms);
    std::fflush(stdout);
    g_server.store(&server);
    if (g_stop) server.Shutdown();  // signal raced the store
    server.Run();
    g_server.store(nullptr);

    const net::BatcherStats stats = server.batcher().Stats();
    std::printf("# shutdown: %lld connections, %lld requests in %lld "
                "batches (max batch %lld)\n",
                static_cast<long long>(server.connections_total()),
                static_cast<long long>(stats.submitted),
                static_cast<long long>(stats.batches),
                static_cast<long long>(stats.max_batch_seen));
    for (const net::RouteStats& route : server.AllRouteStats()) {
      PrintLatencySummary(route.route.c_str(), route.latency_ms);
    }
    batcher->Stop();
    return 0;
  }

  // CLI mode: queries from a file, or stdin when --queries is omitted.
  std::ifstream file;
  if (!queries_path.empty()) {
    file.open(queries_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   queries_path.c_str());
      return 1;
    }
  }
  std::istream& in = queries_path.empty() ? std::cin : file;

  auto parse_line = [](const std::string& line) {
    std::istringstream ss(line);
    std::vector<int64_t> ids;
    int64_t id = 0;
    while (ss >> id) ids.push_back(id);
    return ids;
  };
  auto print_predictions = [&](const std::vector<serve::Prediction>& preds) {
    for (const serve::Prediction& p : preds) {
      std::printf("node %lld -> class %lld",
                  static_cast<long long>(p.node),
                  static_cast<long long>(p.predicted_class));
      if (topk > 1) {
        // Rank the returned probabilities directly so the list always
        // agrees with the prediction on this line (a second Predict
        // would re-sample in sampled mode).
        for (const auto& [cls, prob] : serve::TopKOf(p, topk)) {
          std::printf(" %lld=%.4f", static_cast<long long>(cls), prob);
        }
      }
      std::printf("\n");
    }
  };

  Dispatcher dispatcher{*batcher, LatencyRecorder()};
  size_t num_queries = 0;
  int64_t total_nodes = 0;
  const Stopwatch total_watch;
  std::string line;

  // Streaming: answer each line as it arrives. A signal interrupts the
  // blocked read (no SA_RESTART), so the loop falls through to the
  // drain + report below.
  while (!g_stop && std::getline(in, line)) {
    auto ids = parse_line(line);
    if (ids.empty()) continue;
    total_nodes += static_cast<int64_t>(ids.size());
    auto result = dispatcher.Ask(std::move(ids));
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    print_predictions(result.value());
    ++num_queries;
  }
  const bool interrupted = g_stop != 0;
  batcher->Stop();  // drains anything still queued

  if (num_queries == 0 && !interrupted) {
    std::fprintf(stderr, "error: no queries (one 'id id ...' per line)\n");
    return 2;
  }
  const double total_s = total_watch.ElapsedSeconds();
  std::printf("# %zu queries (%lld nodes) in %.3fs -> %.0f nodes/s%s\n",
              num_queries, static_cast<long long>(total_nodes), total_s,
              total_s > 0 ? static_cast<double>(total_nodes) / total_s : 0.0,
              interrupted ? " (interrupted; drained)" : "");
  PrintLatencySummary("per-query", dispatcher.latency_ms.Summary());
  return 0;
}
