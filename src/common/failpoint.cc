#include "common/failpoint.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "common/string_util.h"

namespace graphrare {
namespace failpoint {

namespace internal {
std::atomic<int> g_active_sites{0};
}  // namespace internal

namespace {

struct SiteConfig {
  Action action;
  double probability = 1.0;  ///< chance each eligible evaluation fires
  int64_t skip_first = 0;    ///< evaluations to let pass before arming
  int64_t max_hits = -1;     ///< -1 = unlimited
  int64_t evaluations = 0;
  int64_t fired = 0;
  uint64_t rng_state = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteConfig> sites;
  uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

Registry& TheRegistry() {
  static Registry* r = new Registry();  // leaked: shims run at any time
  return *r;
}

uint64_t HashSite(const std::string& site) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// splitmix64 step; uniform in [0, 1).
double NextUniform(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool ParseErrno(const std::string& name, int* err) {
  static const std::unordered_map<std::string, int> kNames = {
      {"EIO", EIO},         {"ENOSPC", ENOSPC},   {"EBADF", EBADF},
      {"EMFILE", EMFILE},   {"ENFILE", ENFILE},   {"EACCES", EACCES},
      {"ENOENT", ENOENT},   {"EAGAIN", EAGAIN},   {"EPIPE", EPIPE},
      {"ECONNRESET", ECONNRESET}, {"EINTR", EINTR}, {"EINVAL", EINVAL},
  };
  const auto it = kNames.find(name);
  if (it != kNames.end()) {
    *err = it->second;
    return true;
  }
  int64_t v = 0;
  if (!ParseInt64(name, &v) || v <= 0 || v > INT_MAX) return false;
  *err = static_cast<int>(v);
  return true;
}

/// Parses the spec grammar (see failpoint.h). Returns the config or an
/// error; "off" maps to kNone with probability 0 and is handled upstream.
Status ParseSpec(const std::string& raw, SiteConfig* out) {
  std::string spec;
  for (const char c : raw) {
    if (!std::isspace(static_cast<unsigned char>(c))) spec += c;
  }
  SiteConfig cfg;
  size_t pos = 0;

  // [P%]
  const size_t pct = spec.find('%');
  if (pct != std::string::npos && pct > 0 &&
      spec.find_first_not_of("0123456789.", 0) == pct) {
    double p = 0.0;
    if (!ParseDouble(spec.substr(0, pct), &p) || p <= 0.0 || p > 100.0) {
      return Status::InvalidArgument(
          StrFormat("failpoint probability not a number in (0, 100]: '%s'",
                    raw.c_str()));
    }
    cfg.probability = p / 100.0;
    pos = pct + 1;
  }

  // [after(N)]
  if (spec.compare(pos, 6, "after(") == 0) {
    const size_t close = spec.find(')', pos);
    if (close == std::string::npos) {
      return Status::InvalidArgument("failpoint: unclosed after(): " + raw);
    }
    if (!ParseInt64(spec.substr(pos + 6, close - pos - 6), &cfg.skip_first) ||
        cfg.skip_first < 0) {
      return Status::InvalidArgument(
          "failpoint: after(N) needs an integer N >= 0: " + raw);
    }
    pos = close + 1;
  }

  // [M*]
  const size_t star = spec.find('*', pos);
  if (star != std::string::npos &&
      spec.find_first_not_of("0123456789", pos) == star) {
    if (!ParseInt64(spec.substr(pos, star - pos), &cfg.max_hits) ||
        cfg.max_hits < 1) {
      return Status::InvalidArgument("failpoint: bad hit count: " + raw);
    }
    pos = star + 1;
  }

  // action [(arg)]
  std::string kind = spec.substr(pos);
  std::string arg;
  const size_t paren = kind.find('(');
  if (paren != std::string::npos) {
    if (kind.back() != ')') {
      return Status::InvalidArgument("failpoint: unclosed argument: " + raw);
    }
    arg = kind.substr(paren + 1, kind.size() - paren - 2);
    kind = kind.substr(0, paren);
  }
  if (kind == "error") {
    cfg.action.kind = Action::Kind::kError;
    if (!ParseErrno(arg, &cfg.action.err)) {
      return Status::InvalidArgument(
          StrFormat("failpoint: unknown errno '%s' in '%s'", arg.c_str(),
                    raw.c_str()));
    }
  } else if (kind == "eintr") {
    cfg.action.kind = Action::Kind::kEintr;
  } else if (kind == "short") {
    cfg.action.kind = Action::Kind::kShort;
  } else if (kind == "delay") {
    cfg.action.kind = Action::Kind::kDelay;
    int64_t ms = 0;
    if (!ParseInt64(arg, &ms) || ms < 0 || ms > INT_MAX) {
      return Status::InvalidArgument(
          "failpoint: delay(MS) needs an integer MS in [0, INT_MAX]: " + raw);
    }
    cfg.action.delay_ms = static_cast<int>(ms);
  } else {
    return Status::InvalidArgument(
        StrFormat("failpoint: unknown action '%s' in '%s'", kind.c_str(),
                  raw.c_str()));
  }
  *out = cfg;
  return Status::OK();
}

}  // namespace

namespace internal {

Action ConsultSlow(const char* site) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.sites.find(site);
  if (it == reg.sites.end()) return {};
  SiteConfig& cfg = it->second;
  ++cfg.evaluations;
  if (cfg.evaluations <= cfg.skip_first) return {};
  if (cfg.max_hits >= 0 && cfg.fired >= cfg.max_hits) return {};
  if (cfg.probability < 1.0 &&
      NextUniform(&cfg.rng_state) >= cfg.probability) {
    return {};
  }
  ++cfg.fired;
  return cfg.action;
}

}  // namespace internal

Status Configure(const std::string& site, const std::string& spec) {
  if (site.empty()) {
    return Status::InvalidArgument("failpoint: empty site name");
  }
  if (spec == "off") {
    Disable(site);
    return Status::OK();
  }
  SiteConfig cfg;
  GR_RETURN_IF_ERROR(ParseSpec(spec, &cfg));
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  cfg.rng_state = reg.seed ^ HashSite(site);
  reg.sites[site] = cfg;
  internal::g_active_sites.store(static_cast<int>(reg.sites.size()),
                                 std::memory_order_relaxed);
  return Status::OK();
}

Status ConfigureFromList(const std::string& list) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t end = list.find(';', start);
    if (end == std::string::npos) end = list.size();
    const std::string entry = list.substr(start, end - start);
    start = end + 1;
    if (entry.find_first_not_of(" \t") == std::string::npos) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          "failpoint: entry without '=': " + entry);
    }
    std::string site = entry.substr(0, eq);
    while (!site.empty() && std::isspace(static_cast<unsigned char>(
                                site.front()))) {
      site.erase(0, 1);
    }
    while (!site.empty() &&
           std::isspace(static_cast<unsigned char>(site.back()))) {
      site.pop_back();
    }
    GR_RETURN_IF_ERROR(Configure(site, entry.substr(eq + 1)));
  }
  return Status::OK();
}

int ConfigureFromEnv() {
  const char* env = std::getenv("GRAPHRARE_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  const Status s = ConfigureFromList(env);
  GR_CHECK(s.ok()) << "GRAPHRARE_FAILPOINTS: " << s.ToString();
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return static_cast<int>(reg.sites.size());
}

void Disable(const std::string& site) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites.erase(site);
  internal::g_active_sites.store(static_cast<int>(reg.sites.size()),
                                 std::memory_order_relaxed);
}

void DisableAll() {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites.clear();
  internal::g_active_sites.store(0, std::memory_order_relaxed);
}

void SetSeed(uint64_t seed) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.seed = seed;
  for (auto& [site, cfg] : reg.sites) {
    cfg.rng_state = seed ^ HashSite(site);
  }
}

int64_t Fired(const std::string& site) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fired;
}

namespace {

void SleepMs(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Applies the non-performing actions; returns true when the caller must
/// return -1 with errno already set. kShort clamps *count (when allowed);
/// kDelay sleeps.
bool PreCall(const char* site, bool can_shorten, size_t* count) {
  const Action a = Consult(site);
  switch (a.kind) {
    case Action::Kind::kNone:
      return false;
    case Action::Kind::kError:
      errno = a.err;
      return true;
    case Action::Kind::kEintr:
      errno = EINTR;
      return true;
    case Action::Kind::kShort:
      if (can_shorten && count != nullptr && *count > 1) {
        *count = (*count + 1) / 2;
      }
      return false;
    case Action::Kind::kDelay:
      SleepMs(a.delay_ms);
      return false;
  }
  return false;
}

}  // namespace

void InjectDelay(const char* site) {
  const Action a = Consult(site);
  if (a.kind == Action::Kind::kDelay) SleepMs(a.delay_ms);
}

ssize_t Read(const char* site, int fd, void* buf, size_t count) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/true, &count)) return -1;
  return ::read(fd, buf, count);
}

ssize_t Write(const char* site, int fd, const void* buf, size_t count) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/true, &count)) return -1;
  return ::write(fd, buf, count);
}

int Accept4(const char* site, int sockfd, struct sockaddr* addr,
            unsigned int* addrlen, int flags) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/false, nullptr)) return -1;
  return ::accept4(sockfd, addr, addrlen, flags);
}

int EpollWait(const char* site, int epfd, struct epoll_event* events,
              int maxevents, int timeout_ms) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/false, nullptr)) return -1;
  return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

int Open(const char* site, const char* path, int flags, unsigned int mode) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/false, nullptr)) return -1;
  return ::open(path, flags, static_cast<mode_t>(mode));
}

int Fsync(const char* site, int fd) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/false, nullptr)) return -1;
  return ::fsync(fd);
}

int Rename(const char* site, const char* from, const char* to) {
  if (AnyActive() && PreCall(site, /*can_shorten=*/false, nullptr)) return -1;
  return ::rename(from, to);
}

}  // namespace failpoint
}  // namespace graphrare
