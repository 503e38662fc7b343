// Open-loop HTTP load generator for the serving workloads.
//
// One client thread multiplexes every connection with ppoll, so the load
// generator adds a single busy thread next to the server's reactor and
// batch workers. Requests go out at pre-computed Poisson arrival times
// whether or not earlier answers are back (an open loop), latency is taken
// from the *scheduled* send time so a stall also charges the requests it
// delayed, and how late the generator ran is recorded per request. A rung
// ends when its last response arrives (or a drain timeout passes), never on
// the server's idle sweep.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/status.h"

namespace perfbench {

/// One complete HTTP response off the wire.
struct ResponseFrame {
  int status = 0;
  std::string body;
};

/// Splits a byte stream of Content-Length-framed HTTP/1.1 responses (the
/// form net::SerializeResponse writes) into complete responses, however the
/// stream was cut across reads.
class ResponseFramer {
 public:
  /// Appends bytes and moves every response they complete into `out`.
  /// Returns false once the stream is malformed; that state is sticky.
  bool Feed(const char* data, size_t n, std::vector<ResponseFrame>* out);
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool broken_ = false;
};

/// `count` predict requests of `ids_per_request` node ids each, drawn from
/// a Zipf(1.1) popularity law over [0, num_nodes) whose ranks map to a
/// seeded permutation of the ids, so hot nodes spread over the graph.
std::vector<std::vector<int64_t>> ZipfRequests(int64_t num_nodes,
                                               int64_t count,
                                               int ids_per_request,
                                               uint64_t seed);

/// Poisson arrival offsets (seconds, ascending) at `rate_qps` over
/// [0, duration_s).
std::vector<double> PoissonArrivals(double rate_qps, double duration_s,
                                    uint64_t seed);

/// {"nodes":[...]} and its full POST /v1/predict wire form.
std::string PredictBody(const std::vector<int64_t>& ids);
std::string PredictWire(const std::vector<int64_t>& ids);

/// What happened to one request.
struct Outcome {
  int status = 0;            ///< 0 = no response before the drain timeout
  double latency_ms = 0.0;   ///< response - scheduled send
  double lateness_ms = 0.0;  ///< actual send - scheduled send
  std::string body;
  int engine = 0;            ///< engine id live when the request was sent
  /// A reload was in flight or finished while this request was.
  bool engine_ambiguous = false;
};

struct ReloadOutcome {
  int status = 0;
  double round_trip_ms = 0.0;
};

struct ClientOptions {
  int port = 0;
  int connections = 1;
  /// Periodic POST /v1/reload on a separate control connection, so a slow
  /// reload never blocks pipelined predictions. 0 = none. Reload k loads
  /// reload_paths[k % size]; engine ids count 0 (initial), 1, 2, ... and
  /// reload k installs engine id reload_engine_ids[k % size].
  double reload_every_s = 0.0;
  std::vector<std::string> reload_paths;
  std::vector<int> reload_engine_ids;
};

/// Outcomes of one rung, in request order.
struct RungRun {
  std::vector<Outcome> outcomes;
  std::vector<ReloadOutcome> reloads;
  double drain_ms = 0.0;  ///< last response - last scheduled send
};

/// Connections persist across rungs; so does the live-engine bookkeeping.
class LoadClient {
 public:
  explicit LoadClient(ClientOptions options) : options_(std::move(options)) {}
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  graphrare::Status Connect();

  /// Sends wires[i] at schedule[i] seconds after the start, request i on
  /// connection i % connections.
  RungRun Run(const std::vector<std::string>& wires,
              const std::vector<double>& schedule);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    ResponseFramer framer;
    std::deque<int64_t> inflight;
    bool dead = false;
  };

  ClientOptions options_;
  std::vector<Conn> conns_;
  Conn control_;
  int live_engine_ = 0;
  int64_t reloads_sent_ = 0;
};

/// Per-rung summary the ladder rule reads.
struct RungSummary {
  double offered_qps = 0.0;
  double duration_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;      ///< non-200 or no response
  int64_t wrong = 0;       ///< 200 whose body differs from the engine's
  int64_t within_slo = 0;  ///< correct 200s no slower than the SLO
  Quantile p50_ms;         ///< over answered requests
  Quantile p99_ms;
  Quantile lateness_p99_ms;
  double lateness_max_ms = 0.0;
  double drain_ms = 0.0;
};

/// The ladder rule: a rung holds when every request was answered correctly,
/// p99 latency is within the SLO, and the queue drained within one SLO of
/// the last scheduled send (a backlog that grows over the rung does not).
bool RungHolds(const RungSummary& rung, double slo_ms);

/// Highest rung that holds, or -1.
int GoodputRung(const std::vector<RungSummary>& rungs, double slo_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
