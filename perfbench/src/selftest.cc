// Self-test of the benchmark's own logic: response framing across split
// reads, the goodput ladder rule, percentiles with their sample counts,
// the output digest, and the seeded trace generators. Exits non-zero on any
// failure.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "loadgen.h"
#include "net/http.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

using graphrare::net::HttpResponse;
using graphrare::net::SerializeResponse;
using namespace perfbench;

std::string ThreeResponses() {
  HttpResponse a;
  a.body = "{\"predictions\":[{\"node\":3}]}";
  HttpResponse b;
  b.status = 503;
  b.retry_after_s = 1;
  b.body = "";
  HttpResponse c;
  c.body = std::string(1234, 'x');  // multi-digit Content-Length
  return SerializeResponse(a) + SerializeResponse(b) + SerializeResponse(c);
}

void ExpectThree(const std::vector<ResponseFrame>& frames) {
  EXPECT(frames.size() == 3);
  if (frames.size() != 3) return;
  EXPECT(frames[0].status == 200);
  EXPECT(frames[0].body == "{\"predictions\":[{\"node\":3}]}");
  EXPECT(frames[1].status == 503);
  EXPECT(frames[1].body.empty());
  EXPECT(frames[2].status == 200);
  EXPECT(frames[2].body == std::string(1234, 'x'));
}

void TestFramingAtEverySplit() {
  const std::string wire = ThreeResponses();
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    ResponseFramer framer;
    std::vector<ResponseFrame> frames;
    EXPECT(framer.Feed(wire.data(), cut, &frames));
    EXPECT(framer.Feed(wire.data() + cut, wire.size() - cut, &frames));
    ExpectThree(frames);
    EXPECT(framer.buffered() == 0);
  }
}

void TestFramingByteAtATime() {
  const std::string wire = ThreeResponses();
  ResponseFramer framer;
  std::vector<ResponseFrame> frames;
  for (const char c : wire) EXPECT(framer.Feed(&c, 1, &frames));
  ExpectThree(frames);
}

void TestFramingHeaderCaseAndGarbage() {
  {
    ResponseFramer framer;
    std::vector<ResponseFrame> frames;
    const std::string wire = "HTTP/1.1 200 OK\r\ncontent-LENGTH:  2\r\n\r\nok";
    EXPECT(framer.Feed(wire.data(), wire.size(), &frames));
    EXPECT(frames.size() == 1 && frames[0].body == "ok");
  }
  {
    ResponseFramer framer;
    std::vector<ResponseFrame> frames;
    const std::string wire = "HTTP/1.1 200 OK\r\nServer: x\r\n\r\n";
    EXPECT(!framer.Feed(wire.data(), wire.size(), &frames));  // no length
    EXPECT(!framer.Feed("HTTP/1.1 200 OK\r\n", 17, &frames));  // sticky
    EXPECT(frames.empty());
  }
  {
    ResponseFramer framer;
    std::vector<ResponseFrame> frames;
    const std::string wire = "garbage\r\n\r\n";
    EXPECT(!framer.Feed(wire.data(), wire.size(), &frames));
  }
}

void TestPredictWireParses() {
  const std::vector<int64_t> ids = {5, 0, 19999};
  graphrare::net::HttpParser parser;
  parser.Feed(PredictWire(ids));
  EXPECT(parser.Next() == graphrare::net::HttpParser::State::kReady);
  EXPECT(parser.request().target == "/v1/predict");
  EXPECT(parser.request().body == "{\"nodes\":[5,0,19999]}");
  EXPECT(parser.buffered_bytes() == 0);
}

RungSummary HoldingRung() {
  RungSummary r;
  r.attempted = 1000;
  r.p99_ms.value = 9.0;
  r.drain_ms = 4.0;
  return r;
}

void TestLadderRule() {
  const double slo = 10.0;
  EXPECT(RungHolds(HoldingRung(), slo));
  RungSummary r = HoldingRung();
  r.p99_ms.value = 10.0;
  EXPECT(RungHolds(r, slo));  // the SLO is inclusive
  r.p99_ms.value = 10.5;
  EXPECT(!RungHolds(r, slo));
  r = HoldingRung();
  r.failed = 1;
  EXPECT(!RungHolds(r, slo));  // a refused request misses the SLO
  r = HoldingRung();
  r.wrong = 1;
  EXPECT(!RungHolds(r, slo));
  r = HoldingRung();
  r.drain_ms = 50.0;
  EXPECT(!RungHolds(r, slo));  // growing backlog
  r = HoldingRung();
  r.attempted = 0;
  EXPECT(!RungHolds(r, slo));

  RungSummary miss = HoldingRung();
  miss.p99_ms.value = 99.0;
  EXPECT(GoodputRung({HoldingRung(), HoldingRung(), miss, HoldingRung()},
                     slo) == 3);
  EXPECT(GoodputRung({HoldingRung(), miss, miss}, slo) == 0);
  EXPECT(GoodputRung({miss, miss}, slo) == -1);
  EXPECT(GoodputRung({}, slo) == -1);
}

void TestPercentiles() {
  EXPECT(QuantileOf({}, 0.99).count == 0);
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const Quantile p99 = QuantileOf(v, 0.99);
  EXPECT(p99.count == 1000);
  EXPECT(p99.value == 990.0);
  EXPECT(p99.beyond == 10);
  const Quantile p50 = QuantileOf(v, 0.5);
  EXPECT(p50.value == 500.0 || p50.value == 501.0);
  EXPECT(p50.beyond == 1000 - static_cast<int64_t>(p50.value));
  // Fewer than 100 samples: the nearest-rank p99 is the maximum, and the
  // count says how little it rests on.
  const Quantile small = QuantileOf({3.0, 1.0, 2.0}, 0.99);
  EXPECT(small.value == 3.0 && small.count == 3 && small.beyond == 0);
  const Quantile ties = QuantileOf({1, 2, 2, 2, 3}, 0.5);
  EXPECT(ties.value == 2.0 && ties.beyond == 1);
  EXPECT(MedianOf({4.0}) == 4.0);
}

void TestDigest() {
  auto digest_of = [](const std::vector<double>& a,
                      const std::vector<double>& b) {
    Digest d;
    d.AddDoubles(a);
    d.AddDoubles(b);
    return d.Hex();
  };
  EXPECT(digest_of({1, 2}, {3}) == digest_of({1, 2}, {3}));
  EXPECT(digest_of({1, 2}, {3}) != digest_of({1}, {2, 3}));  // boundaries
  EXPECT(digest_of({1, 2}, {3}) != digest_of({2, 1}, {3}));  // order
  EXPECT(digest_of({0.1}, {}) != digest_of({std::nextafter(0.1, 1.0)}, {}));
  EXPECT(digest_of({0.0}, {}) != digest_of({-0.0}, {}));
  Digest e1, e2;
  e1.AddEdges({{0, 1}, {1, 2}});
  e2.AddEdges({{0, 1}, {1, 3}});
  EXPECT(e1.Hex() != e2.Hex());
  EXPECT(e1.Hex().size() == 16);
}

void TestTraces() {
  const auto a = PoissonArrivals(500.0, 2.0, 7);
  EXPECT(a == PoissonArrivals(500.0, 2.0, 7));
  EXPECT(a != PoissonArrivals(500.0, 2.0, 8));
  EXPECT(a.size() > 800 && a.size() < 1200);
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending &= a[i] >= a[i - 1];
  EXPECT(ascending && a.front() >= 0.0 && a.back() < 2.0);

  const auto r = ZipfRequests(1000, 300, 4, 11);
  EXPECT(r == ZipfRequests(1000, 300, 4, 11));
  EXPECT(r.size() == 300);
  bool in_range = true;
  for (const auto& q : r) {
    in_range &= q.size() == 4;
    for (const int64_t id : q) in_range &= id >= 0 && id < 1000;
  }
  EXPECT(in_range);
}

}  // namespace

int main() {
  TestFramingAtEverySplit();
  TestFramingByteAtATime();
  TestFramingHeaderCaseAndGarbage();
  TestPredictWireParses();
  TestLadderRule();
  TestPercentiles();
  TestDigest();
  TestTraces();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
