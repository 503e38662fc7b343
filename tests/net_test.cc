// Network-tier unit tests that need no socket: the incremental HTTP/1.1
// parser's negative-path surface (truncation, oversized inputs, malformed
// framing, pipelining), the JSON body parser, the hardened stats helpers,
// and the continuous batcher's contracts — bitwise determinism against a
// direct PredictBatchWithSeeds call for any arrival/batch interleaving,
// queue-full admission control, drain-on-Stop, and hot-swap at the batcher
// seam.

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/graphrare.h"
#include "net/batcher.h"
#include "net/http.h"
#include "net/json.h"

namespace graphrare {
namespace {

// ---- HTTP parser: positive paths ------------------------------------------

TEST(HttpParserTest, ParsesSimpleGet) {
  net::HttpParser parser;
  parser.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_TRUE(parser.request().keep_alive);
  EXPECT_TRUE(parser.request().body.empty());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, ParsesPostBodyByContentLength) {
  net::HttpParser parser;
  parser.Feed(
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().body, "hello");
}

TEST(HttpParserTest, ByteByByteFeedReachesReady) {
  const std::string wire =
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  net::HttpParser parser;
  for (size_t i = 0; i < wire.size(); ++i) {
    const net::HttpParser::State state = parser.Next();
    ASSERT_EQ(state, net::HttpParser::State::kNeedMore)
        << "premature state after " << i << " bytes";
    parser.Feed(&wire[i], 1);
  }
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().body, "abcd");
}

TEST(HttpParserTest, HeaderNamesLowercasedValuesTrimmed) {
  net::HttpParser parser;
  parser.Feed("GET / HTTP/1.1\r\nX-Thing:   padded value  \r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  const std::string* v = parser.request().FindHeader("x-thing");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "padded value");
  EXPECT_EQ(parser.request().FindHeader("absent"), nullptr);
}

TEST(HttpParserTest, KeepAliveResolution) {
  {
    net::HttpParser parser;  // 1.1 default: keep alive
    parser.Feed("GET / HTTP/1.1\r\n\r\n");
    ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
    EXPECT_TRUE(parser.request().keep_alive);
  }
  {
    net::HttpParser parser;  // 1.1 + Connection: close
    parser.Feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
    EXPECT_FALSE(parser.request().keep_alive);
  }
  {
    net::HttpParser parser;  // 1.0 default: close
    parser.Feed("GET / HTTP/1.0\r\n\r\n");
    ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
    EXPECT_FALSE(parser.request().keep_alive);
  }
  {
    net::HttpParser parser;  // 1.0 + keep-alive opt-in
    parser.Feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
    EXPECT_TRUE(parser.request().keep_alive);
  }
}

TEST(HttpParserTest, PipelinedRequestsParseInOrder) {
  net::HttpParser parser;
  parser.Feed(
      "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c");  // trailing partial third request stays buffered
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().target, "/a");
  EXPECT_EQ(parser.request().body, "xy");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.Next(), net::HttpParser::State::kNeedMore);
  EXPECT_GT(parser.buffered_bytes(), 0u);
  parser.Feed(" HTTP/1.1\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().target, "/c");
}

// ---- HTTP parser: negative paths ------------------------------------------

TEST(HttpParserTest, TruncatedRequestLineNeedsMore) {
  net::HttpParser parser;
  parser.Feed("GET /heal");
  EXPECT_EQ(parser.Next(), net::HttpParser::State::kNeedMore);
  parser.Feed("thz HTTP/1.1\r\n");
  EXPECT_EQ(parser.Next(), net::HttpParser::State::kNeedMore);
  parser.Feed("\r\n");
  EXPECT_EQ(parser.Next(), net::HttpParser::State::kReady);
}

TEST(HttpParserTest, OversizedRequestLineIs431) {
  net::HttpLimits limits;
  limits.max_request_line = 64;
  net::HttpParser parser(limits);
  parser.Feed("GET /" + std::string(200, 'a'));  // no CRLF yet — still over
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 431);
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  net::HttpLimits limits;
  limits.max_header_bytes = 128;
  net::HttpParser parser(limits);
  parser.Feed("GET / HTTP/1.1\r\nX-Pad: " + std::string(300, 'b') +
              "\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 431);
}

TEST(HttpParserTest, TooManyHeadersIs431) {
  net::HttpLimits limits;
  limits.max_headers = 4;
  net::HttpParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i) wire += "H" + std::to_string(i) + ": v\r\n";
  parser.Feed(wire + "\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 431);
}

TEST(HttpParserTest, OversizedBodyIs413) {
  net::HttpLimits limits;
  limits.max_body_bytes = 16;
  net::HttpParser parser(limits);
  parser.Feed("POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 413);
}

TEST(HttpParserTest, MalformedFramingIs400) {
  const char* kBad[] = {
      "GET/missing-spaces HTTP/1.1\r\n\r\n",
      "GET  /double-space HTTP/1.1\r\n\r\n",
      "GET / HTTP/1.1 extra\r\n\r\n",
      "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
      "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
  };
  for (const char* wire : kBad) {
    SCOPED_TRACE(wire);
    net::HttpParser parser;
    parser.Feed(wire);
    ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
    EXPECT_EQ(parser.error_status_code(), 400);
  }
}

TEST(HttpParserTest, ConflictingContentLengthIs400) {
  // RFC 7230 §3.3.2: differing Content-Length values are a smuggling
  // vector — a proxy in front may frame the body by the other one.
  net::HttpParser parser;
  parser.Feed(
      "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"
      "helloX");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 400);
}

TEST(HttpParserTest, IdenticalDuplicateContentLengthParses) {
  net::HttpParser parser;
  parser.Feed(
      "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n"
      "hello");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kReady);
  EXPECT_EQ(parser.request().body, "hello");
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  net::HttpParser parser;
  parser.Feed("GET / HTTP/2.0\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 505);
}

TEST(HttpParserTest, ChunkedTransferIs501) {
  net::HttpParser parser;
  parser.Feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  EXPECT_EQ(parser.error_status_code(), 501);
}

TEST(HttpParserTest, ErrorsAreSticky) {
  net::HttpParser parser;
  parser.Feed("BROKEN\r\n\r\n");
  ASSERT_EQ(parser.Next(), net::HttpParser::State::kError);
  parser.Feed("GET / HTTP/1.1\r\n\r\n");  // resync is impossible by design
  EXPECT_EQ(parser.Next(), net::HttpParser::State::kError);
}

TEST(HttpResponseTest, SerializeCarriesFramingHeaders) {
  net::HttpResponse r;
  r.status = 200;
  r.body = "{\"ok\":true}";
  const std::string wire = net::SerializeResponse(r);
  EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("Connection: close"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  r.status = 503;
  r.keep_alive = false;
  const std::string closed = net::SerializeResponse(r);
  EXPECT_EQ(closed.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);
}

// ---- JSON ------------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  auto doc = net::JsonValue::Parse(
      R"({"nodes":[1,2,3],"k":2,"opts":{"deep":[true,null,"s\n"]}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const net::JsonValue* nodes = doc->Find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_TRUE(nodes->is_array());
  ASSERT_EQ(nodes->items().size(), 3u);
  EXPECT_EQ(nodes->items()[1].AsInt64().value(), 2);
  EXPECT_EQ(doc->Find("k")->AsInt64().value(), 2);
  const net::JsonValue* deep = doc->Find("opts")->Find("deep");
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(deep->items()[0].AsBool());
  EXPECT_TRUE(deep->items()[1].is_null());
  EXPECT_EQ(deep->items()[2].AsString(), "s\n");
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  auto doc = net::JsonValue::Parse(R"("aé中b")");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->AsString(), "a\xC3\xA9\xE4\xB8\xAD" "b");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* kBad[] = {
      "",        "{",         "[1,]",      "{\"a\":}",  "nul",
      "1 2",     "\"open",    "{\"a\" 1}", "[1 2]",     "tru",
  };
  for (const char* text : kBad) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(net::JsonValue::Parse(text).ok());
  }
}

TEST(JsonTest, EnforcesDepthBound) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  EXPECT_FALSE(net::JsonValue::Parse(deep, /*max_depth=*/32).ok());
  EXPECT_TRUE(net::JsonValue::Parse("[[[[0]]]]", /*max_depth=*/32).ok());
}

TEST(JsonTest, AsInt64RejectsNonIntegers) {
  EXPECT_FALSE(net::JsonValue::Parse("1.5")->AsInt64().ok());
  EXPECT_FALSE(net::JsonValue::Parse("\"7\"")->AsInt64().ok());
  EXPECT_FALSE(net::JsonValue::Parse("1e30")->AsInt64().ok());
  EXPECT_EQ(net::JsonValue::Parse("-42")->AsInt64().value(), -42);
}

TEST(JsonTest, EscapeRoundTripsThroughParse) {
  const std::string raw = "quote\" slash\\ ctrl\x01 tab\t";
  auto doc = net::JsonValue::Parse("\"" + net::JsonEscape(raw) + "\"");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->AsString(), raw);
}

// ---- Stats hardening -------------------------------------------------------

TEST(StatsTest, PercentileHandlesDegenerateInputs) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  const std::vector<double> two = {1.0, 9.0};
  EXPECT_EQ(Percentile(two, -1.0), 1.0);   // p clamped to [0, 1]
  EXPECT_EQ(Percentile(two, 2.0), 9.0);
}

TEST(StatsTest, SummarizeHandlesEmptyAndSingle) {
  const LatencySummary empty = Summarize({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.p99, 0.0);
  const LatencySummary one = Summarize({3.5});
  EXPECT_EQ(one.count, 1);
  EXPECT_EQ(one.mean, 3.5);
  EXPECT_EQ(one.p50, 3.5);
  EXPECT_EQ(one.max, 3.5);
}

TEST(StatsTest, SummarizeSortsInternally) {
  const LatencySummary s = Summarize({9.0, 1.0, 5.0, 3.0, 7.0});
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.p50, 5.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(StatsTest, RecorderIsExactBelowCapacity) {
  LatencyRecorder recorder(/*capacity=*/128);
  for (int i = 1; i <= 100; ++i) recorder.Record(static_cast<double>(i));
  const LatencySummary s = recorder.Summary();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 0.5);  // nearest rank of 1..100
}

TEST(StatsTest, RecorderReservoirKeepsBoundedPlausibleSample) {
  LatencyRecorder recorder(/*capacity=*/64);
  for (int i = 0; i < 10000; ++i) {
    recorder.Record(static_cast<double>(i % 100));  // values in [0, 99]
  }
  const LatencySummary s = recorder.Summary();
  EXPECT_EQ(s.count, 10000);  // observation count stays exact
  EXPECT_GE(s.p50, 0.0);
  EXPECT_LE(s.max, 99.0);
  EXPECT_GT(s.max, 50.0);  // a uniform reservoir can't miss the top half
}

// ---- Continuous batcher ----------------------------------------------------

serve::InferenceEngine MakeEngine(uint64_t model_seed,
                                  std::vector<int64_t> fanouts) {
  auto ds_or = data::MakeDatasetScaled("cornell", /*shrink=*/1, 3);
  GR_CHECK(ds_or.ok()) << ds_or.status().ToString();
  const data::Dataset& ds = *ds_or;
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 16;
  mo.num_classes = ds.num_classes;
  mo.seed = model_seed;
  auto model = nn::MakeModel(nn::BackboneKind::kGcn, mo);
  auto artifact_or = core::PackageArtifact(*model, nn::BackboneKind::kGcn,
                                           mo, model_seed, ds.graph, ds);
  GR_CHECK(artifact_or.ok()) << artifact_or.status().ToString();
  serve::EngineOptions opts;
  opts.fanouts = std::move(fanouts);
  auto engine_or = serve::InferenceEngine::FromArtifact(
      std::move(artifact_or).value(), opts);
  GR_CHECK(engine_or.ok()) << engine_or.status().ToString();
  return std::move(engine_or).value();
}

std::shared_ptr<serve::EngineHandle> MakeHandle(uint64_t model_seed,
                                                std::vector<int64_t> fanouts) {
  return std::make_shared<serve::EngineHandle>(
      std::make_shared<const serve::InferenceEngine>(
          MakeEngine(model_seed, std::move(fanouts))));
}

std::vector<std::vector<int64_t>> SampleRequests() {
  return {{0, 1, 2}, {5}, {7, 9}, {11, 3}, {2},
          {42, 1},   {8}, {0},    {19, 20, 21}, {4, 4}};
}

/// The batcher's seeds for n requests submitted in order: 0, 1, ..., n-1.
std::vector<uint64_t> ArrivalSeeds(size_t n) {
  std::vector<uint64_t> seeds(n);
  for (size_t i = 0; i < n; ++i) seeds[i] = i;
  return seeds;
}

void ExpectPredictionsBitwise(const std::vector<serve::Prediction>& a,
                              const std::vector<serve::Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].predicted_class, b[i].predicted_class);
    ASSERT_EQ(a[i].probabilities.size(), b[i].probabilities.size());
    EXPECT_EQ(0, std::memcmp(a[i].probabilities.data(),
                             b[i].probabilities.data(),
                             a[i].probabilities.size() * sizeof(float)));
  }
}

/// Submits every request in order and blocks until all completions land.
std::vector<Result<std::vector<serve::Prediction>>> RunThroughBatcher(
    net::ContinuousBatcher& batcher,
    const std::vector<std::vector<int64_t>>& requests) {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = requests.size();
  std::vector<Result<std::vector<serve::Prediction>>> results(
      requests.size(), Status::Internal("no completion delivered"));
  for (size_t i = 0; i < requests.size(); ++i) {
    const Status s = batcher.Submit(
        requests[i], [&, i](Result<std::vector<serve::Prediction>> r) {
          std::lock_guard<std::mutex> lock(mu);
          results[i] = std::move(r);
          if (--remaining == 0) cv.notify_one();
        });
    GR_CHECK(s.ok()) << s.ToString();
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  return results;
}

TEST(BatcherTest, ResponsesBitwiseEqualDirectPredictBatch) {
  // Sampled mode: answers depend on the sampling seed, so this is the
  // strong version of the contract — the arrival index must be the seed.
  const auto handle = MakeHandle(7, {3, 2});
  const auto requests = SampleRequests();
  const auto expected = handle->Get()->PredictBatchWithSeeds(
      requests, ArrivalSeeds(requests.size()));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Any scheduler shape must reproduce the direct call bitwise.
  const net::BatcherOptions kShapes[] = {
      {/*max_batch=*/1, /*max_queue_delay_ms=*/0.0, 1024, /*num_workers=*/1},
      {/*max_batch=*/4, /*max_queue_delay_ms=*/0.0, 1024, /*num_workers=*/2},
      {/*max_batch=*/16, /*max_queue_delay_ms=*/2.0, 1024, /*num_workers=*/4},
      {/*max_batch=*/3, /*max_queue_delay_ms=*/0.5, 1024, /*num_workers=*/3},
  };
  for (const net::BatcherOptions& options : kShapes) {
    SCOPED_TRACE(options.max_batch * 100 + options.num_workers);
    net::ContinuousBatcher batcher(handle, options);
    const auto results = RunThroughBatcher(batcher, requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      ExpectPredictionsBitwise(results[i].value(), expected.value()[i]);
    }
    batcher.Stop();
    const net::BatcherStats stats = batcher.Stats();
    EXPECT_EQ(stats.submitted, static_cast<int64_t>(requests.size()));
    EXPECT_EQ(stats.completed, static_cast<int64_t>(requests.size()));
    EXPECT_LE(stats.max_batch_seen, options.max_batch);
  }
}

TEST(BatcherTest, PacedArrivalsWithRacingDelayWaitersComplete) {
  // Regression: with several workers parked in the max_queue_delay wait,
  // one worker taking the whole queue used to leave the others re-entering
  // the fill-wait loop and reading queue_.front() of an empty deque.
  // Paced single-request arrivals keep workers in that window constantly;
  // under ASan the old code crashes here.
  const auto handle = MakeHandle(7, {});
  net::BatcherOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 3.0;
  options.num_workers = 4;
  net::ContinuousBatcher batcher(handle, options);

  constexpr int kRequests = 64;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kRequests;
  int failures = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Status s = batcher.Submit(
        {i % 8}, [&](Result<std::vector<serve::Prediction>> r) {
          std::lock_guard<std::mutex> lock(mu);
          if (!r.ok()) ++failures;
          if (--remaining == 0) cv.notify_one();
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  EXPECT_EQ(failures, 0);
  batcher.Stop();
  EXPECT_EQ(batcher.Stats().completed, kRequests);
}

TEST(BatcherTest, InvalidRequestFailsAloneNotItsBatchmates) {
  const auto handle = MakeHandle(7, {3, 2});
  net::BatcherOptions options;
  options.max_batch = 8;
  options.max_queue_delay_ms = 20.0;  // force the good + bad into one batch
  net::ContinuousBatcher batcher(handle, options);
  const std::vector<std::vector<int64_t>> requests = {
      {0, 1}, {999999}, {2}};
  const auto results = RunThroughBatcher(batcher, requests);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(results[2].ok());
  // The valid members still match the direct call at their arrival seeds.
  const auto engine = handle->Get();
  ExpectPredictionsBitwise(
      results[0].value(),
      engine->PredictBatchWithSeeds({{0, 1}}, {0}).value()[0]);
  ExpectPredictionsBitwise(
      results[2].value(),
      engine->PredictBatchWithSeeds({{2}}, {2}).value()[0]);
}

TEST(BatcherTest, QueueFullRejectsDeterministically) {
  const auto handle = MakeHandle(7, {});
  net::BatcherOptions options;
  options.max_batch = 1;
  options.max_queue_delay_ms = 0.0;
  options.max_queue_depth = 2;
  options.num_workers = 1;
  net::ContinuousBatcher batcher(handle, options);

  // Block the single worker inside the first completion callback so the
  // queue depth is under test control.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false, blocked = false;
  int completions = 0;
  ASSERT_TRUE(batcher
                  .Submit({0},
                          [&](Result<std::vector<serve::Prediction>>) {
                            std::unique_lock<std::mutex> lock(mu);
                            blocked = true;
                            cv.notify_all();
                            cv.wait(lock, [&] { return release; });
                            ++completions;
                          })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  auto count_completion = [&](Result<std::vector<serve::Prediction>>) {
    std::lock_guard<std::mutex> lock(mu);
    ++completions;
  };
  ASSERT_TRUE(batcher.Submit({1}, count_completion).ok());
  ASSERT_TRUE(batcher.Submit({2}, count_completion).ok());
  const Status overflow = batcher.Submit({3}, count_completion);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(overflow.message().find("queue is full"), std::string::npos);
  EXPECT_EQ(batcher.Stats().rejected, 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  batcher.Stop();  // drains the two queued requests
  EXPECT_EQ(completions, 3);
}

TEST(BatcherTest, StopDrainsEverythingThenRejects) {
  const auto handle = MakeHandle(7, {3, 2});
  net::BatcherOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 50.0;  // requests sit queued when Stop lands
  net::ContinuousBatcher batcher(handle, options);
  std::mutex mu;
  int completions = 0;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(batcher
                    .Submit({i % 5},
                            [&](Result<std::vector<serve::Prediction>> r) {
                              std::lock_guard<std::mutex> lock(mu);
                              EXPECT_TRUE(r.ok());
                              ++completions;
                            })
                    .ok());
  }
  batcher.Stop();
  EXPECT_EQ(completions, 9);  // every admitted request was answered
  const Status late = batcher.Submit(
      {0}, [](Result<std::vector<serve::Prediction>>) {});
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.message().find("shutting down"), std::string::npos);
}

TEST(BatcherTest, HotSwapNeverDropsOrMixesWithinABatch) {
  // Two engines with different weights: their answers differ, so a
  // response identifies which engine computed it.
  const auto handle = MakeHandle(7, {});
  const auto v1 = handle->Get();
  const auto v2 = std::make_shared<const serve::InferenceEngine>(
      MakeEngine(1234, {}));
  const std::vector<int64_t> probe = {0, 1, 2, 3};
  const auto v1_expected = v1->Predict(probe).value();
  const auto v2_expected = v2->Predict(probe).value();
  ASSERT_NE(0, std::memcmp(v1_expected[0].probabilities.data(),
                           v2_expected[0].probabilities.data(),
                           v1_expected[0].probabilities.size() *
                               sizeof(float)))
      << "engines must disagree for this test to mean anything";

  net::BatcherOptions options;
  options.max_batch = 4;
  options.num_workers = 2;
  net::ContinuousBatcher batcher(handle, options);
  std::mutex mu;
  std::condition_variable cv;
  int v1_hits = 0, v2_hits = 0, other = 0, completed = 0;
  const int kWave = 60;  // per wave; one wave before the swap, one after
  auto classify = [&](Result<std::vector<serve::Prediction>> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& probs = r.value()[0].probabilities;
    std::lock_guard<std::mutex> lock(mu);
    if (std::memcmp(probs.data(), v1_expected[0].probabilities.data(),
                    probs.size() * sizeof(float)) == 0) {
      ++v1_hits;
    } else if (std::memcmp(probs.data(),
                           v2_expected[0].probabilities.data(),
                           probs.size() * sizeof(float)) == 0) {
      ++v2_hits;
    } else {
      ++other;
    }
    ++completed;
    cv.notify_one();
  };
  auto submit_wave = [&] {
    for (int i = 0; i < kWave; ++i) {
      while (!batcher.Submit(probe, classify).ok()) {
        std::this_thread::yield();  // queue full under the burst; retry
      }
    }
  };
  auto await = [&](int target) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed >= target; });
  };

  submit_wave();
  // Everything completed before the swap was computed wholly by v1 —
  // regardless of how the scheduler grouped the wave into batches.
  await(kWave);
  handle->Swap(v2);
  EXPECT_EQ(handle->generation(), 2);
  // Everything submitted after the swap must see v2: Swap is a fence for
  // new batch snapshots.
  submit_wave();
  await(2 * kWave);
  batcher.Stop();

  // Zero drops, and every answer is wholly one version's.
  EXPECT_EQ(other, 0);
  EXPECT_EQ(v1_hits, kWave);
  EXPECT_EQ(v2_hits, kWave);
}

// v1 stays alive (and correct) for in-flight batches even after the handle
// has moved on and the server-side reference is gone.
TEST(EngineHandleTest, OldEngineSurvivesUntilLastSnapshotReleases) {
  auto handle = MakeHandle(7, {});
  std::shared_ptr<const serve::InferenceEngine> snapshot = handle->Get();
  const auto before = snapshot->Predict({0}).value();
  handle->Swap(std::make_shared<const serve::InferenceEngine>(
      MakeEngine(1234, {})));
  const auto after = snapshot->Predict({0}).value();  // old engine, alive
  ExpectPredictionsBitwise(before, after);
  EXPECT_EQ(handle->generation(), 2);
}

}  // namespace
}  // namespace graphrare
