// Copyright 2026 The GraphRARE Authors.
//
// Continuous-batching scheduler over serve::InferenceEngine. Requests are
// admitted into a bounded queue and stamped with a global arrival sequence
// number; a small worker pool repeatedly drains up to `max_batch` queued
// requests into one PredictBatchWithSeeds call. There are no fixed batch
// boundaries: the moment a worker frees up it takes whatever has arrived
// (optionally waiting up to `max_queue_delay_ms` for a fuller batch), so
// under load batches stay full and under light traffic latency stays at
// one engine call.
//
// Determinism contract: request i's answer depends only on (its node ids,
// its arrival index) — the arrival index is the sampling seed — so for a
// fixed submission order the responses are bitwise identical to one direct
// engine.PredictBatchWithSeeds(all requests, {0, 1, ...}) call, no matter
// how arrivals interleave with batch boundaries, how many workers run, or
// when a hot-swap lands relative to the batches (each batch runs wholly
// against one engine snapshot).

#ifndef GRAPHRARE_NET_BATCHER_H_
#define GRAPHRARE_NET_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "serve/engine.h"

namespace graphrare {
namespace net {

struct BatcherOptions {
  /// Most requests one engine call may carry. 1 reproduces a plain
  /// serial request-per-call server.
  int max_batch = 16;
  /// How long a worker holding a non-full batch waits for joiners before
  /// running anyway. 0 = never wait (take whatever is queued).
  double max_queue_delay_ms = 2.0;
  /// Admission bound: Submit fails once this many requests are queued
  /// (in-flight batches do not count). The HTTP tier maps this to 503.
  int max_queue_depth = 1024;
  /// Engine-call workers. Extra workers only help when the engine's own
  /// parallelism leaves cores idle (e.g. serial full-graph lookups).
  int num_workers = 1;
  /// Overload watchdog: when one batch's wall-clock (engine call included)
  /// exceeds this budget, the effective max batch halves (floor 1); after
  /// `overload_recover_batches` consecutive in-budget batches it grows
  /// back by one toward `max_batch`. 0 disables the watchdog.
  double batch_budget_ms = 0.0;
  /// Consecutive in-budget batches required before the effective max
  /// batch recovers one step.
  int overload_recover_batches = 4;

  Status Validate() const;
};

/// Point-in-time counters, plus a queue-delay summary.
struct BatcherStats {
  int64_t submitted = 0;       ///< accepted Submits
  int64_t rejected = 0;        ///< queue-full rejections
  int64_t completed = 0;       ///< callbacks invoked
  int64_t batches = 0;         ///< engine calls issued
  int64_t batched_requests = 0;  ///< sum of batch sizes
  int64_t max_batch_seen = 0;
  int64_t queue_depth = 0;     ///< currently queued (not yet in a batch)
  int64_t shed = 0;            ///< requests expired in queue (DeadlineExceeded)
  int64_t overload_shrinks = 0;  ///< watchdog halvings of the batch cap
  int64_t effective_max_batch = 0;  ///< current adaptive batch cap
  LatencySummary queue_delay_ms;  ///< submit -> batch formation
};

class ContinuousBatcher {
 public:
  /// Receives the request's predictions (or the engine's error).
  using Callback =
      std::function<void(Result<std::vector<serve::Prediction>>)>;

  /// The handle is shared with whoever performs hot-swaps. Workers start
  /// immediately.
  ContinuousBatcher(std::shared_ptr<serve::EngineHandle> engine,
                    BatcherOptions options);
  ~ContinuousBatcher();

  ContinuousBatcher(const ContinuousBatcher&) = delete;
  ContinuousBatcher& operator=(const ContinuousBatcher&) = delete;

  /// Enqueues one request. Fails fast when the queue is full or the
  /// batcher is stopping; otherwise `done` is guaranteed to be invoked
  /// exactly once, from a worker thread.
  Status Submit(std::vector<int64_t> node_ids, Callback done);

  /// Same, with a deadline: a request still queued `deadline_ms` after
  /// submission is shed at batch-formation time — its callback receives
  /// Status::DeadlineExceeded and no engine time is spent on it. 0 means
  /// no deadline. A request already inside a running batch completes
  /// normally (batches are never aborted mid-engine-call).
  Status Submit(std::vector<int64_t> node_ids, double deadline_ms,
                Callback done);

  /// Stops admission, drains every queued request through the engine, and
  /// joins the workers. Idempotent.
  void Stop();

  BatcherStats Stats() const;

 private:
  struct Pending {
    std::vector<int64_t> node_ids;
    Callback done;
    uint64_t seq = 0;
    double deadline_ms = 0.0;  ///< relative to `queued`; 0 = none
    Stopwatch queued;
  };

  void WorkerLoop();

  std::shared_ptr<serve::EngineHandle> engine_;
  BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  uint64_t next_seq_ = 0;
  // Overload watchdog state (guarded by mu_).
  int effective_max_batch_ = 1;
  int in_budget_streak_ = 0;
  // Stats (guarded by mu_ except the recorder, which locks itself).
  int64_t submitted_ = 0, rejected_ = 0, completed_ = 0;
  int64_t batches_ = 0, batched_requests_ = 0, max_batch_seen_ = 0;
  int64_t shed_ = 0, overload_shrinks_ = 0;
  LatencyRecorder queue_delay_ms_;

  std::vector<std::thread> workers_;
};

}  // namespace net
}  // namespace graphrare

#endif  // GRAPHRARE_NET_BATCHER_H_
