#include "common/failpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/mutex.hpp"

namespace qre::failpoint {

namespace detail {
std::atomic<int> g_active_count{0};
}  // namespace detail

namespace {

enum class Action { kError, kDelay, kCrash };

struct Site {
  Action action = Action::kError;
  int delay_ms = 0;
  int percent = 100;      // fire on roughly this fraction of hits
  std::uint32_t rng = 1;  // per-site LCG state: deterministic, not wall-clock seeded
  std::uint64_t hits = 0;
};

Mutex g_mutex;
std::unordered_map<std::string, Site> g_sites QRE_GUARDED_BY(g_mutex);

void sync_active_count() QRE_REQUIRES(g_mutex) {
  detail::g_active_count.store(static_cast<int>(g_sites.size()), std::memory_order_relaxed);
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) text.remove_suffix(1);
  return text;
}

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

// Parses one `name=[N%]action[(arg)]` term and applies it to the registry.
void apply_term(std::string_view term) QRE_REQUIRES(g_mutex) {
  const std::size_t eq = term.find('=');
  QRE_REQUIRE(eq != std::string_view::npos,
              "failpoint spec term '" + std::string(term) + "' is missing '='");
  const std::string name(trim(term.substr(0, eq)));
  QRE_REQUIRE(valid_name(name),
              "failpoint name '" + name + "' is invalid (want [a-z0-9_.]+)");
  std::string_view action = trim(term.substr(eq + 1));
  QRE_REQUIRE(!action.empty(), "failpoint '" + name + "' has an empty action");

  Site site;
  const std::size_t percent = action.find('%');
  if (percent != std::string_view::npos) {
    int value = 0;
    const std::string digits(action.substr(0, percent));
    QRE_REQUIRE(!digits.empty() && digits.find_first_not_of("0123456789") == std::string::npos,
                "failpoint '" + name + "': bad percentage '" + digits + "%'");
    value = std::atoi(digits.c_str());
    QRE_REQUIRE(value >= 0 && value <= 100,
                "failpoint '" + name + "': percentage must be 0..100");
    site.percent = value;
    action = trim(action.substr(percent + 1));
  }

  if (action == "off") {
    g_sites.erase(name);
    sync_active_count();
    return;
  }
  if (action == "error") {
    site.action = Action::kError;
  } else if (action == "crash") {
    site.action = Action::kCrash;
  } else if (action.rfind("delay(", 0) == 0 && action.back() == ')') {
    const std::string digits(action.substr(6, action.size() - 7));
    QRE_REQUIRE(!digits.empty() && digits.find_first_not_of("0123456789") == std::string::npos,
                "failpoint '" + name + "': bad delay '" + std::string(action) + "'");
    site.action = Action::kDelay;
    site.delay_ms = std::atoi(digits.c_str());
  } else {
    throw_error("failpoint '" + name + "': unknown action '" + std::string(action) +
                "' (want error, delay(MS), crash, or off)");
  }
  g_sites[name] = site;
  sync_active_count();
}

}  // namespace

namespace detail {

void hit(const char* name) {
  Action action = Action::kError;
  int delay_ms = 0;
  {
    MutexLock lock(g_mutex);
    const auto it = g_sites.find(name);
    if (it == g_sites.end()) return;
    Site& site = it->second;
    if (site.percent < 100) {
      site.rng = site.rng * 1664525u + 1013904223u;
      if (static_cast<int>((site.rng >> 16) % 100u) >= site.percent) return;
    }
    ++site.hits;
    action = site.action;
    delay_ms = site.delay_ms;
  }
  switch (action) {
    case Action::kError:
      throw Error(std::string("failpoint '") + name + "' injected error");
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return;
    case Action::kCrash:
      std::fprintf(stderr, "failpoint '%s': injected crash, _exit(42)\n", name);
      std::fflush(stderr);
      ::_exit(42);
  }
}

}  // namespace detail

bool compiled_in() {
#if defined(QRE_FAILPOINTS_DISABLED)
  return false;
#else
  return true;
#endif
}

void configure(const std::string& spec) {
  if (trim(spec).empty()) return;
  QRE_REQUIRE(compiled_in(),
              "failpoints are compiled out; rebuild with -DQRE_FAILPOINTS=ON");
  MutexLock lock(g_mutex);
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view term =
        trim(semi == std::string_view::npos ? rest : rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view() : rest.substr(semi + 1);
    if (!term.empty()) apply_term(term);
  }
}

void configure_from_env() {
  const char* spec = std::getenv("QRE_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return;
  if (!compiled_in()) {
    std::fprintf(stderr,
                 "warning: QRE_FAILPOINTS is set but failpoints are compiled out; ignoring\n");
    return;
  }
  configure(spec);
}

void reset() {
  MutexLock lock(g_mutex);
  g_sites.clear();
  sync_active_count();
}

std::uint64_t hits(const std::string& name) {
  MutexLock lock(g_mutex);
  const auto it = g_sites.find(name);
  return it == g_sites.end() ? 0 : it->second.hits;
}

std::vector<std::pair<std::string, std::uint64_t>> triggered() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    MutexLock lock(g_mutex);
    out.reserve(g_sites.size());
    for (const auto& [name, site] : g_sites) out.emplace_back(name, site.hits);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace qre::failpoint
