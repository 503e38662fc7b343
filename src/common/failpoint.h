// Copyright 2026 The GraphRARE Authors.
//
// Fail-point framework: named fault-injection sites compiled into the
// serving stack, switched on at runtime (tests such as chaos_test, or the
// GRAPHRARE_FAILPOINTS environment variable) and free when off — an
// unconfigured site costs one relaxed atomic load.
//
// A site is configured with a spec string:
//
//   spec  := [P%] [after(N)] [M*] action
//   action:= error(E) | eintr | short | delay(MS) | off
//
//   error(E)   fail the call with errno E (a name such as EIO/ENOSPC or a
//              number) without performing it
//   eintr      fail the call with EINTR — the interrupted-syscall storm
//   short      perform the call but halve the requested byte count — a
//              partial read/write
//   delay(MS)  sleep MS milliseconds, then perform the call
//   off        remove the site (same as Disable)
//
//   P%         fire with probability P (deterministic per-site stream;
//              see SetSeed), e.g. "1%eintr"
//   after(N)   let the first N evaluations pass untouched, e.g.
//              "after(2)error(ENOSPC)" fails the third write onward
//   M*         fire at most M times, then fall dormant, e.g. "3*eintr"
//
// Numbers parse strictly: N >= 0 and M >= 1 are base-10 integers, MS an
// integer in [0, INT_MAX], E a positive int or a name, P a decimal in
// (0, 100]. A spec with anything else ("after(x)", "delay(5ms)",
// "50.5.5%") is rejected as a whole.
//
// Sites are plain strings; the serving tier uses "net.read", "net.write",
// "net.accept", "net.epoll_wait", "artifact.open", "artifact.read",
// "artifact.write", "artifact.fsync", "artifact.rename", "batcher.batch".
// Several sites are configured at once with "site=spec;site=spec".
//
// The syscall shims below are drop-in replacements for the raw calls with
// one leading site-name argument; call sites keep full responsibility for
// EINTR retries and partial-I/O handling — the whole point is that the
// injected faults exercise those paths.

#ifndef GRAPHRARE_COMMON_FAILPOINT_H_
#define GRAPHRARE_COMMON_FAILPOINT_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

struct epoll_event;
struct sockaddr;

namespace graphrare {
namespace failpoint {

/// What a Consult() decided for one call.
struct Action {
  enum class Kind { kNone, kError, kEintr, kShort, kDelay };
  Kind kind = Kind::kNone;
  int err = 0;       ///< errno injected by kError
  int delay_ms = 0;  ///< sleep injected by kDelay
};

namespace internal {
extern std::atomic<int> g_active_sites;
Action ConsultSlow(const char* site);
}  // namespace internal

/// True when at least one site is configured. The disabled-path cost of
/// every shim: one relaxed load.
inline bool AnyActive() {
  return internal::g_active_sites.load(std::memory_order_relaxed) != 0;
}

/// Evaluates `site` and consumes one hit when it fires. Returns kNone for
/// unconfigured sites, skipped evaluations (after/probability/M*), or when
/// the framework is globally idle.
inline Action Consult(const char* site) {
  if (!AnyActive()) return {};
  return internal::ConsultSlow(site);
}

/// Configures (or reconfigures) one site from a spec string (see the file
/// comment for the grammar). "off" removes the site.
Status Configure(const std::string& site, const std::string& spec);

/// Configures several sites from "site=spec;site=spec". Whitespace around
/// tokens is ignored; empty entries are skipped.
Status ConfigureFromList(const std::string& list);

/// Configures from the GRAPHRARE_FAILPOINTS environment variable, if set.
/// Returns the number of configured sites (0 when the variable is unset);
/// a malformed spec aborts via GR_CHECK so a typo cannot silently run a
/// chaos experiment with no faults.
int ConfigureFromEnv();

/// Removes one site / every site.
void Disable(const std::string& site);
void DisableAll();

/// Reseeds every site's probability stream (deterministic chaos runs).
void SetSeed(uint64_t seed);

/// How many times `site` has fired (actions actually taken).
int64_t Fired(const std::string& site);

/// Consults `site` and sleeps when the action is a delay; every other
/// action kind is ignored. For non-syscall sites (e.g. "batcher.batch").
void InjectDelay(const char* site);

// ---- Syscall shims --------------------------------------------------------
// Identical to the raw syscalls plus the leading site name. kError/kEintr
// set errno and return -1 without calling the kernel; kShort halves the
// byte count (reads and writes only); kDelay sleeps first.

ssize_t Read(const char* site, int fd, void* buf, size_t count);
ssize_t Write(const char* site, int fd, const void* buf, size_t count);
int Accept4(const char* site, int sockfd, struct sockaddr* addr,
            unsigned int* addrlen, int flags);
int EpollWait(const char* site, int epfd, struct epoll_event* events,
              int maxevents, int timeout_ms);
int Open(const char* site, const char* path, int flags, unsigned int mode);
int Fsync(const char* site, int fd);
int Rename(const char* site, const char* from, const char* to);

}  // namespace failpoint
}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_FAILPOINT_H_
