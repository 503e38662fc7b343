// Loopback tests for the epoll HTTP front-end: request/response round
// trips against a live server on an ephemeral port, HTTP error statuses,
// keep-alive + pipelining, the slow-loris idle sweep, graceful shutdown,
// and the headline serving guarantee — artifact hot-swap under concurrent
// load with zero dropped and zero mixed-version responses.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/graphrare.h"
#include "net/server.h"

namespace graphrare {
namespace {

// ---- Minimal blocking HTTP client -----------------------------------------

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    struct timeval tv = {10, 0};  // nothing here should take 10s
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  void Request(const std::string& method, const std::string& target,
               const std::string& body = "", bool close = false) {
    std::string wire = method + " " + target + " HTTP/1.1\r\n";
    if (close) wire += "Connection: close\r\n";
    if (!body.empty() || method == "POST") {
      wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    wire += "\r\n" + body;
    Send(wire);
  }

  /// Reads one complete response off the connection. Leftover bytes stay
  /// buffered, so pipelined responses read back one call at a time.
  bool ReadResponse(ClientResponse* out) {
    while (buf_.find("\r\n\r\n") == std::string::npos) {
      if (!Fill()) return false;
    }
    const size_t head_end = buf_.find("\r\n\r\n");
    const std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end + 4);

    out->headers.clear();
    size_t line_start = 0;
    size_t line_end = head.find("\r\n");
    const std::string status_line = head.substr(0, line_end);
    if (std::sscanf(status_line.c_str(), "HTTP/1.1 %d", &out->status) != 1) {
      return false;
    }
    while (line_end != std::string::npos) {
      line_start = line_end + 2;
      line_end = head.find("\r\n", line_start);
      std::string line = head.substr(
          line_start, line_end == std::string::npos ? std::string::npos
                                                    : line_end - line_start);
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      out->headers[name] = value;
    }
    size_t content_length = 0;
    const auto it = out->headers.find("content-length");
    if (it != out->headers.end()) {
      content_length = static_cast<size_t>(std::stoul(it->second));
    }
    while (buf_.size() < content_length) {
      if (!Fill()) return false;
    }
    out->body = buf_.substr(0, content_length);
    buf_.erase(0, content_length);
    return true;
  }

  /// Half-closes the sending side (FIN); the server can still respond.
  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  /// True once the server closes the connection (read returns 0).
  bool WaitClosed() {
    char tmp[256];
    while (true) {
      const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
      if (n == 0) return true;
      if (n < 0) return false;  // timeout — still open
    }
  }

 private:
  bool Fill() {
    char tmp[4096];
    const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

// ---- Server fixture --------------------------------------------------------

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

serve::ModelArtifact MakeArtifact(uint64_t model_seed) {
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
  return std::move(artifact_or).value();
}

/// Full-graph engines: answers ignore sampling seeds, so expected response
/// bodies are byte-exact regardless of batching/arrival order.
std::shared_ptr<const serve::InferenceEngine> MakeEngine(uint64_t seed) {
  auto engine_or =
      serve::InferenceEngine::FromArtifact(MakeArtifact(seed), {});
  GR_CHECK(engine_or.ok()) << engine_or.status().ToString();
  return std::make_shared<const serve::InferenceEngine>(
      std::move(engine_or).value());
}

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(net::HttpServerOptions options = {},
                   uint64_t model_seed = 7) {
    handle_ = std::make_shared<serve::EngineHandle>(MakeEngine(model_seed));
    server_ = std::make_unique<net::HttpServer>(handle_, nullptr, options);
    ASSERT_TRUE(server_->Start().ok());
    loop_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
    if (loop_.joinable()) loop_.join();
  }

  int port() const { return server_->port(); }
  std::string ExpectedPredictBody(const std::vector<int64_t>& nodes) {
    return net::PredictionsToJson(handle_->Get()->Predict(nodes).value());
  }

  std::shared_ptr<serve::EngineHandle> handle_;
  std::unique_ptr<net::HttpServer> server_;
  std::thread loop_;
};

// ---- Round trips -----------------------------------------------------------

TEST_F(HttpServerTest, HealthzReportsEngine) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Request("GET", "/healthz");
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"mode\":\"full\""), std::string::npos);
}

TEST_F(HttpServerTest, PredictBodyIsByteExact) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Request("POST", "/v1/predict", "{\"nodes\":[0,1,2]}");
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, ExpectedPredictBody({0, 1, 2}));
  EXPECT_EQ(r.headers["content-type"], "application/json");
}

TEST_F(HttpServerTest, TopKBodyIsByteExact) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  const auto pred = handle_->Get()->Predict({5}).value();
  const int64_t num_classes = handle_->Get()->num_classes();
  const struct {
    const char* body;
    int64_t k;  // the ranking the body must return
  } kCases[] = {
      {"{\"node\":5,\"k\":3}", 3},
      // 2^32 + 1: a k narrowed to 32 bits would read as 1.
      {"{\"node\":5,\"k\":4294967297}", num_classes},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.body);
    client.Request("POST", "/v1/topk", c.body);
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, net::TopKToJson(5, serve::TopKOf(pred[0], c.k)));
  }
}

TEST_F(HttpServerTest, MetricsCountRequests) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Request("POST", "/v1/predict", "{\"nodes\":[0]}");
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  ASSERT_EQ(r.status, 200);
  client.Request("GET", "/metrics");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("graphrare_requests_total{route=\"/v1/predict\"} 1"),
            std::string::npos);
  EXPECT_NE(r.body.find("graphrare_request_latency_ms{route=\"/v1/predict\","
                        "quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(r.body.find("graphrare_batches_total 1"), std::string::npos);
  EXPECT_NE(r.body.find("graphrare_engine_generation 1"), std::string::npos);
}

// ---- Error statuses --------------------------------------------------------

TEST_F(HttpServerTest, ErrorStatusesPerRouteContract) {
  StartServer();
  struct Case {
    const char* method;
    const char* target;
    const char* body;
    int want_status;
  };
  const Case kCases[] = {
      {"GET", "/no/such/route", "", 404},
      {"GET", "/v1/predict", "", 405},
      {"GET", "/v1/topk", "", 405},
      {"GET", "/v1/reload", "", 405},
      {"POST", "/healthz", "", 405},
      {"POST", "/metrics", "", 405},
      {"POST", "/v1/predict", "not json", 400},
      {"POST", "/v1/predict", "{\"nodes\":[]}", 400},
      {"POST", "/v1/predict", "{\"nodes\":[1.5]}", 400},
      {"POST", "/v1/predict", "{\"nodes\":[999999]}", 400},  // out of range
      {"POST", "/v1/topk", "{\"node\":5,\"k\":0}", 400},
      {"POST", "/v1/topk", "{\"k\":2}", 400},  // no node
      {"POST", "/v1/topk", "{\"node\":1.5}", 400},
      {"POST", "/v1/topk", "{\"node\":999999}", 400},  // out of range
      {"POST", "/v1/reload", "{}", 400},
  };
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(c.method) + " " + c.target + " " + c.body);
    client.Request(c.method, c.target, c.body);
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_EQ(r.status, c.want_status);
    EXPECT_NE(r.body.find("\"error\""), std::string::npos);
  }
}

TEST_F(HttpServerTest, OversizedBodyIs413AndCloses) {
  net::HttpServerOptions options;
  options.limits.max_body_bytes = 64;
  StartServer(options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Send("POST /v1/predict HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 413);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(client.WaitClosed());
}

TEST_F(HttpServerTest, MalformedFramingIs400AndCloses) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Send("NOT A REQUEST AT ALL\r\n\r\n");
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 400);
  EXPECT_TRUE(client.WaitClosed());
}

// ---- Connection behavior ---------------------------------------------------

TEST_F(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    client.Request("POST", "/v1/predict",
                   "{\"nodes\":[" + std::to_string(i) + "]}");
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, ExpectedPredictBody({i}));
  }
  EXPECT_EQ(server_->connections_total(), 1);
}

TEST_F(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  // Three requests in one write; the middle one is an error. Responses
  // must come back in request order despite async dispatch.
  std::string wire;
  wire += "POST /v1/predict HTTP/1.1\r\nContent-Length: 13\r\n\r\n"
          "{\"nodes\":[1]}";
  wire += "GET /no/such HTTP/1.1\r\n\r\n";
  wire += "POST /v1/predict HTTP/1.1\r\nContent-Length: 13\r\n\r\n"
          "{\"nodes\":[2]}";
  client.Send(wire);
  ClientResponse r1, r2, r3;
  ASSERT_TRUE(client.ReadResponse(&r1));
  ASSERT_TRUE(client.ReadResponse(&r2));
  ASSERT_TRUE(client.ReadResponse(&r3));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.body, ExpectedPredictBody({1}));
  EXPECT_EQ(r2.status, 404);
  EXPECT_EQ(r3.status, 200);
  EXPECT_EQ(r3.body, ExpectedPredictBody({2}));
}

TEST_F(HttpServerTest, SlowLorisConnectionIsSwept) {
  net::HttpServerOptions options;
  options.idle_timeout_ms = 100;
  options.tick_ms = 20;
  StartServer(options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Send("GET /hea");  // partial request line, then silence
  EXPECT_TRUE(client.WaitClosed());
  // A live connection making progress is not swept: full request works.
  TestClient healthy(port());
  ASSERT_TRUE(healthy.ok());
  healthy.Request("GET", "/healthz");
  ClientResponse r;
  ASSERT_TRUE(healthy.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
}

TEST_F(HttpServerTest, HalfClosedClientStillGetsItsResponses) {
  // A client that sends complete requests then shutdown(SHUT_WR) must get
  // every answer before the server closes — EOF stops reading, not the
  // parsing of what is already buffered.
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  std::string wire;
  wire += "POST /v1/predict HTTP/1.1\r\nContent-Length: 15\r\n\r\n"
          "{\"nodes\":[0,1]}";
  wire += "GET /healthz HTTP/1.1\r\n\r\n";
  client.Send(wire);
  client.HalfClose();
  ClientResponse r1, r2;
  ASSERT_TRUE(client.ReadResponse(&r1));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.body, ExpectedPredictBody({0, 1}));
  ASSERT_TRUE(client.ReadResponse(&r2));
  EXPECT_EQ(r2.status, 200);
  EXPECT_TRUE(client.WaitClosed());
}

TEST_F(HttpServerTest, HalfCloseAfterPartialRequestClosesPromptly) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Send("POST /v1/predict HTTP/1.1\r\nContent-Le");  // truncated
  client.HalfClose();
  // The trailing partial request can never complete; no response, and the
  // connection closes without waiting for the idle sweep (10s default).
  EXPECT_TRUE(client.WaitClosed());
}

TEST_F(HttpServerTest, ConnectionCloseIsHonored) {
  StartServer();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.Request("GET", "/healthz", "", /*close=*/true);
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(client.WaitClosed());
}

// ---- Hot swap under load ---------------------------------------------------

TEST_F(HttpServerTest, HotSwapUnderLoadDropsNothingMixesNothing) {
  const std::string v2_path = TempPath("hot_swap_v2.grare");
  ASSERT_TRUE(MakeArtifact(1234).Save(v2_path).ok());

  StartServer({}, /*model_seed=*/7);
  const std::vector<int64_t> probe = {0, 1, 2, 3};
  const std::string v1_body = ExpectedPredictBody(probe);
  // What the server will compute after swapping: the same artifact loaded
  // back through the same engine options (bitwise-reproducible logits).
  const std::string v2_body = net::PredictionsToJson(
      serve::InferenceEngine::LoadFrom(v2_path, handle_->Get()->options())
          .value()
          .Predict(probe)
          .value());
  ASSERT_NE(v1_body, v2_body)
      << "engines must disagree for this test to mean anything";

  // Hammer /v1/predict from several connections while the swap lands.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> v1_hits{0}, v2_hits{0}, anomalies{0};
  std::vector<std::thread> clients;
  const std::string body = "{\"nodes\":[0,1,2,3]}";
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      TestClient client(port());
      if (!client.ok()) {
        anomalies.fetch_add(kPerThread);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        client.Request("POST", "/v1/predict", body);
        ClientResponse r;
        if (!client.ReadResponse(&r) || r.status != 200) {
          anomalies.fetch_add(1);  // a dropped or failed request
          continue;
        }
        if (r.body == v1_body) {
          v1_hits.fetch_add(1);
        } else if (r.body == v2_body) {
          v2_hits.fetch_add(1);
        } else {
          anomalies.fetch_add(1);  // a mixed-version response
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TestClient admin(port());
  ASSERT_TRUE(admin.ok());
  admin.Request("POST", "/v1/reload", "{\"path\":\"" + v2_path + "\"}");
  ClientResponse reload;
  ASSERT_TRUE(admin.ReadResponse(&reload));
  EXPECT_EQ(reload.status, 200);
  EXPECT_NE(reload.body.find("\"generation\":2"), std::string::npos);

  for (std::thread& t : clients) t.join();

  // Every request answered, every answer wholly one version's.
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_EQ(v1_hits.load() + v2_hits.load(), kThreads * kPerThread);
  EXPECT_GT(v1_hits.load(), 0);  // load started before the swap

  // The swap is complete: new requests are answered by v2.
  admin.Request("POST", "/v1/predict", body);
  ClientResponse after;
  ASSERT_TRUE(admin.ReadResponse(&after));
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, v2_body);
  EXPECT_EQ(handle_->generation(), 2);

  // A second reload while none is pending also works (409 only *during*).
  admin.Request("POST", "/v1/reload", "{\"path\":\"" + v2_path + "\"}");
  ASSERT_TRUE(admin.ReadResponse(&after));
  EXPECT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("\"generation\":3"), std::string::npos);
}

// ---- Graceful shutdown -----------------------------------------------------

TEST_F(HttpServerTest, ShutdownDrainsInFlightWork) {
  StartServer();
  constexpr int kThreads = 3;
  constexpr int kPerThread = 20;
  std::atomic<int> answered{0}, failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      TestClient client(port());
      if (!client.ok()) return;
      for (int i = 0; i < kPerThread; ++i) {
        client.Request("POST", "/v1/predict", "{\"nodes\":[0,1]}");
        ClientResponse r;
        if (!client.ReadResponse(&r)) return;  // server drained us mid-run
        if (r.status == 200) {
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->Shutdown();
  loop_.join();
  for (std::thread& t : clients) t.join();
  // Whatever was admitted got a well-formed 200; nothing errored.
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(answered.load(), 0);

  // Post-shutdown metrics still render (counters survive the loop).
  const std::string metrics = server_->MetricsText();
  EXPECT_NE(metrics.find("graphrare_requests_total"), std::string::npos);
}

}  // namespace
}  // namespace graphrare
