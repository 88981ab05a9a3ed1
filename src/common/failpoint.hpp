// Failpoint registry: named fault-injection sites (resilience layer).
//
// A failpoint is a named hook compiled into a production code path:
//
//   QRE_FAILPOINT("store.persist.before_rename");
//
// Inactive failpoints cost one relaxed atomic load and a predictable
// branch. When the build compiles them out (-DQRE_FAILPOINTS=OFF defines
// QRE_FAILPOINTS_DISABLED), the macro expands to nothing at all.
//
// Sites are armed at process start from the QRE_FAILPOINTS environment
// variable or a --failpoints flag, using a gofail-style spec — a
// semicolon-separated list of `name=[N%]action`:
//
//   store.persist.before_rename=crash          crash (_exit(42)) at the site
//   engine.evaluate.before=delay(50)           sleep 50 ms at the site
//   server.conn.before_read=25%error           throw qre::Error 25% of hits
//   jobqueue.worker.before_run=off             explicitly disarm
//
// Actions: `error` (throw qre::Error — the site's normal failure path
// handles it), `delay(MS)` (sleep, for latency/deadline drills), `crash`
// (immediate _exit(42), for crash-recovery drills), `off`. An optional
// `N%` prefix triggers the action on roughly N% of hits (deterministic
// per-registry LCG, not wall-clock seeded, so runs are reproducible).
//
// Every site name must be unique in the tree and documented in
// docs/robustness.md — `qre_lint` enforces both.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qre::failpoint {

namespace detail {

// Count of currently armed failpoints; the macro's fast path reads this
// once and skips the registry entirely when zero.
extern std::atomic<int> g_active_count;

inline bool any_active() { return g_active_count.load(std::memory_order_relaxed) > 0; }

// Slow path: look up `name` in the registry and perform its action
// (throw / sleep / _exit). No-op when the site is not armed.
void hit(const char* name);

}  // namespace detail

/// True when the build carries failpoint hooks (QRE_FAILPOINTS=ON).
/// Tests use this to skip injection drills in compiled-out builds.
bool compiled_in();

/// Arms failpoints from a spec string (grammar above). Replaces the
/// configuration of every site named in the spec; sites not named keep
/// their state. Throws qre::Error on a malformed spec, an unknown action,
/// or when called with a non-empty spec in a compiled-out build.
void configure(const std::string& spec);

/// Arms failpoints from the QRE_FAILPOINTS environment variable. A
/// malformed spec throws; a non-empty variable in a compiled-out build
/// warns on stderr instead of throwing (so exported chaos env vars do not
/// break production binaries).
void configure_from_env();

/// Disarms every failpoint and clears hit counters.
void reset();

/// Number of times the named site performed its action (0 if never armed
/// or unknown).
std::uint64_t hits(const std::string& name);

/// Currently armed failpoint terms (the /metrics "active" gauge; the
/// access log records it per request as "failpointsArmed").
inline int active_count() {
  return detail::g_active_count.load(std::memory_order_relaxed);
}

/// Every armed site with its trigger count, sorted by name and read under
/// one lock — the /metrics "failpoints" section (its size is the "active"
/// gauge).
std::vector<std::pair<std::string, std::uint64_t>> triggered();

}  // namespace qre::failpoint

#if defined(QRE_FAILPOINTS_DISABLED)
#define QRE_FAILPOINT(name) \
  do {                      \
  } while (false)
#else
#define QRE_FAILPOINT(name)                       \
  do {                                            \
    if (::qre::failpoint::detail::any_active()) { \
      ::qre::failpoint::detail::hit(name);        \
    }                                             \
  } while (false)
#endif
