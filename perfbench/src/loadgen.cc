#include "loadgen.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.h"

namespace perfbench {

using graphrare::Rng;
using graphrare::Status;

// ---- Framing ---------------------------------------------------------------

namespace {

/// Case-insensitive "Content-Length:" lookup within the header block
/// [0, head_end). Returns false when absent or malformed.
bool FindContentLength(const std::string& buf, size_t head_end,
                       size_t* length) {
  static const char kName[] = "content-length:";
  const size_t name_len = sizeof(kName) - 1;
  size_t line = buf.find("\r\n");
  while (line != std::string::npos && line < head_end) {
    const size_t start = line + 2;
    bool match = start + name_len <= head_end;
    for (size_t i = 0; match && i < name_len; ++i) {
      match = std::tolower(static_cast<unsigned char>(buf[start + i])) ==
              kName[i];
    }
    if (match) {
      const char* p = buf.c_str() + start + name_len;
      while (*p == ' ' || *p == '\t') ++p;
      if (*p < '0' || *p > '9') return false;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(p, &end, 10);
      if (v > (1ULL << 30)) return false;
      *length = static_cast<size_t>(v);
      return true;
    }
    line = buf.find("\r\n", start);
  }
  return false;
}

}  // namespace

bool ResponseFramer::Feed(const char* data, size_t n,
                          std::vector<ResponseFrame>* out) {
  if (broken_) return false;
  buf_.append(data, n);
  size_t pos = 0;
  while (true) {
    const size_t head_end = buf_.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) break;
    // Status line: "HTTP/1.x NNN reason".
    if (buf_.compare(pos, 5, "HTTP/") != 0) {
      broken_ = true;
      break;
    }
    const size_t sp = buf_.find(' ', pos);
    if (sp == std::string::npos || sp + 4 > head_end) {
      broken_ = true;
      break;
    }
    int status = 0;
    for (size_t i = sp + 1; i < sp + 4; ++i) {
      const char c = buf_[i];
      if (c < '0' || c > '9') {
        broken_ = true;
        break;
      }
      status = status * 10 + (c - '0');
    }
    if (broken_) break;
    size_t length = 0;
    // Look for the header within this response only.
    const std::string head = buf_.substr(pos, head_end - pos);
    if (!FindContentLength(head, head.size(), &length)) {
      broken_ = true;
      break;
    }
    const size_t body_start = head_end + 4;
    if (buf_.size() < body_start + length) break;
    ResponseFrame frame;
    frame.status = status;
    frame.body.assign(buf_, body_start, length);
    out->push_back(std::move(frame));
    pos = body_start + length;
  }
  buf_.erase(0, pos);
  return !broken_;
}

// ---- Traces ----------------------------------------------------------------

std::vector<std::vector<int64_t>> ZipfRequests(int64_t num_nodes,
                                               int64_t count,
                                               int ids_per_request,
                                               uint64_t seed) {
  const double s = 1.1;
  std::vector<double> cdf(static_cast<size_t>(num_nodes));
  double total = 0.0;
  for (int64_t r = 0; r < num_nodes; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  Rng rng(seed ^ 0x5A17F00DULL);
  std::vector<int64_t> ids(static_cast<size_t>(num_nodes));
  for (int64_t i = 0; i < num_nodes; ++i) ids[static_cast<size_t>(i)] = i;
  rng.Shuffle(&ids);
  std::vector<std::vector<int64_t>> requests(static_cast<size_t>(count));
  for (auto& request : requests) {
    request.reserve(static_cast<size_t>(ids_per_request));
    for (int j = 0; j < ids_per_request; ++j) {
      const double u = rng.Uniform() * total;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      const size_t rank = std::min(static_cast<size_t>(it - cdf.begin()),
                                   cdf.size() - 1);
      request.push_back(ids[rank]);
    }
  }
  return requests;
}

std::vector<double> PoissonArrivals(double rate_qps, double duration_s,
                                    uint64_t seed) {
  Rng rng(seed ^ 0xA881AE5ULL);
  std::vector<double> at;
  at.reserve(static_cast<size_t>(rate_qps * duration_s * 1.1) + 8);
  double t = 0.0;
  while (true) {
    double u = rng.Uniform();
    while (u <= 1e-12) u = rng.Uniform();
    t += -std::log(u) / rate_qps;
    if (t >= duration_s) break;
    at.push_back(t);
  }
  return at;
}

std::string PredictBody(const std::vector<int64_t>& ids) {
  std::string body = "{\"nodes\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(ids[i]);
  }
  body += "]}";
  return body;
}

std::string PredictWire(const std::vector<int64_t>& ids) {
  const std::string body = PredictBody(ids);
  return "POST /v1/predict HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// ---- Client ----------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSpinMarginS = 0.002;

/// A rung gives up on responses this long after its last scheduled send.
constexpr double kDrainTimeoutS = 5.0;

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Writes as much of `out` as the socket takes. False on a hard error.
bool Flush(int fd, std::string* out) {
  while (!out->empty()) {
    const ssize_t n = ::write(fd, out->data(), out->size());
    if (n > 0) {
      out->erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

/// Reads until EAGAIN and frames the bytes. False on EOF, error, or a
/// malformed stream.
bool Drain(int fd, ResponseFramer* framer, std::vector<ResponseFrame>* out) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      if (!framer->Feed(buf, static_cast<size_t>(n), out)) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EOF or error
  }
}

}  // namespace

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (control_.fd >= 0) ::close(control_.fd);
}

Status LoadClient::Connect() {
  conns_.resize(static_cast<size_t>(std::max(1, options_.connections)));
  for (Conn& c : conns_) {
    c.fd = ConnectLoopback(options_.port);
    if (c.fd < 0) return Status::Internal("load client: connect failed");
  }
  if (options_.reload_every_s > 0.0) {
    if (options_.reload_paths.empty() ||
        options_.reload_paths.size() != options_.reload_engine_ids.size()) {
      return Status::InvalidArgument("load client: bad reload plan");
    }
    control_.fd = ConnectLoopback(options_.port);
    if (control_.fd < 0) return Status::Internal("load client: connect failed");
  }
  return Status::OK();
}

RungRun LoadClient::Run(const std::vector<std::string>& wires,
                        const std::vector<double>& schedule) {
  const size_t n = wires.size();
  RungRun run;
  run.outcomes.resize(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto now_s = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double last_due = n > 0 ? schedule[n - 1] : 0.0;
  const double deadline = last_due + kDrainTimeoutS;
  const bool reloading = options_.reload_every_s > 0.0 && control_.fd >= 0;
  double next_reload_at =
      reloading ? options_.reload_every_s
                : std::numeric_limits<double>::infinity();
  bool reload_pending = false;
  double reload_sent_at = 0.0;
  int reload_target = 0;
  // Requests whose lifetime overlaps a reload accept either engine.
  std::vector<char> overlapped(n, 0);

  size_t next = 0;
  size_t completed = 0;
  double last_recv = 0.0;
  std::vector<ResponseFrame> frames;
  std::vector<struct pollfd> pfds;

  auto fail_conn = [&](Conn* c) {
    c->dead = true;
    for (const int64_t idx : c->inflight) {
      run.outcomes[static_cast<size_t>(idx)].status = 0;
      ++completed;
    }
    c->inflight.clear();
  };

  while (true) {
    double now = now_s();
    while (next < n && schedule[next] <= now) {
      Outcome& o = run.outcomes[next];
      o.lateness_ms = (now - schedule[next]) * 1e3;
      o.engine = live_engine_;
      overlapped[next] = reload_pending ? 1 : 0;
      Conn& c = conns_[next % conns_.size()];
      if (c.dead) {
        ++completed;  // status stays 0: counted as failed
      } else {
        c.out += wires[next];
        c.inflight.push_back(static_cast<int64_t>(next));
        if (!Flush(c.fd, &c.out)) fail_conn(&c);
      }
      ++next;
    }
    if (reloading && !reload_pending && now >= next_reload_at && next < n) {
      const size_t k = static_cast<size_t>(reloads_sent_) %
                       options_.reload_paths.size();
      const std::string body =
          "{\"path\":\"" + options_.reload_paths[k] + "\"}";
      control_.out += "POST /v1/reload HTTP/1.1\r\nHost: bench\r\n"
                      "Content-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body;
      reload_target = options_.reload_engine_ids[k];
      ++reloads_sent_;
      reload_pending = true;
      reload_sent_at = now;
      next_reload_at += options_.reload_every_s;
      // Everything already in flight may be answered by either engine.
      for (const Conn& c : conns_) {
        for (const int64_t idx : c.inflight) {
          overlapped[static_cast<size_t>(idx)] = 1;
        }
      }
      if (!Flush(control_.fd, &control_.out)) {
        run.reloads.push_back(ReloadOutcome{0, 0.0});
        reload_pending = false;
      }
    }
    if (completed == n && !reload_pending) break;
    if (now > deadline) break;

    double wake = deadline;
    if (next < n) wake = std::min(wake, schedule[next]);
    if (reloading && !reload_pending && next < n) {
      wake = std::min(wake, next_reload_at);
    }
    // Sleep until shortly before the next send, then poll without blocking:
    // a timed wake-up can land milliseconds late on a virtualised host,
    // and that lateness would be charged to every request it delays.
    const double wait_s = std::max(0.0, wake - now - kSpinMarginS);

    pfds.clear();
    for (const Conn& c : conns_) {
      struct pollfd p;
      p.fd = c.dead ? -1 : c.fd;
      p.events = static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      p.revents = 0;
      pfds.push_back(p);
    }
    if (reloading) {
      struct pollfd p;
      p.fd = control_.fd;
      p.events =
          static_cast<short>(POLLIN | (control_.out.empty() ? 0 : POLLOUT));
      p.revents = 0;
      pfds.push_back(p);
    }
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) *
                                   1e9);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      const short revents = pfds[i].revents;
      if (c.dead || revents == 0) continue;
      if ((revents & POLLOUT) && !Flush(c.fd, &c.out)) {
        fail_conn(&c);
        continue;
      }
      if (!(revents & (POLLIN | POLLHUP | POLLERR))) continue;
      frames.clear();
      const bool alive = Drain(c.fd, &c.framer, &frames);
      const double recv = now_s();
      for (ResponseFrame& f : frames) {
        if (c.inflight.empty()) break;  // unsolicited bytes: ignore
        const size_t idx = static_cast<size_t>(c.inflight.front());
        c.inflight.pop_front();
        Outcome& o = run.outcomes[idx];
        o.status = f.status;
        o.body = std::move(f.body);
        o.latency_ms = (recv - schedule[idx]) * 1e3;
        o.engine_ambiguous = overlapped[idx] != 0 || reload_pending;
        ++completed;
        last_recv = std::max(last_recv, recv);
      }
      if (!alive) fail_conn(&c);
    }
    if (reloading && pfds.back().revents != 0) {
      if (pfds.back().revents & POLLOUT) Flush(control_.fd, &control_.out);
      frames.clear();
      Drain(control_.fd, &control_.framer, &frames);
      const double recv = now_s();
      for (const ResponseFrame& f : frames) {
        if (!reload_pending) break;
        run.reloads.push_back(
            ReloadOutcome{f.status, (recv - reload_sent_at) * 1e3});
        if (f.status == 200) live_engine_ = reload_target;
        reload_pending = false;
        // Requests still in flight may have been batched on either side
        // of the swap.
        for (const Conn& c : conns_) {
          for (const int64_t idx : c.inflight) {
            overlapped[static_cast<size_t>(idx)] = 1;
          }
        }
      }
    }
  }
  // Anything still outstanding at the deadline stays status 0 (failed). Its
  // connection is out of step with the server now, so retire it.
  for (Conn& c : conns_) {
    if (!c.inflight.empty()) {
      c.inflight.clear();
      c.dead = true;
    }
  }
  if (reload_pending) run.reloads.push_back(ReloadOutcome{0, 0.0});
  run.drain_ms = std::max(0.0, (last_recv - last_due) * 1e3);
  return run;
}

// ---- Ladder rule -----------------------------------------------------------

bool RungHolds(const RungSummary& rung, double slo_ms) {
  return rung.attempted > 0 && rung.failed == 0 && rung.wrong == 0 &&
         rung.p99_ms.value <= slo_ms && rung.drain_ms <= slo_ms;
}

int GoodputRung(const std::vector<RungSummary>& rungs, double slo_ms) {
  for (int i = static_cast<int>(rungs.size()) - 1; i >= 0; --i) {
    if (RungHolds(rungs[static_cast<size_t>(i)], slo_ms)) return i;
  }
  return -1;
}

}  // namespace perfbench
