// Seeded request generators and regime guards for the three workloads.
//
// Every request body is a pure function of (workload, seed, global request
// index): connection c of C sends indices warmup + c, warmup + c + C, ...,
// so the bytes the server receives never depend on timing, only on how far
// each connection got. README.md gives the rationale for each workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "servebench.hpp"

namespace servebench {

namespace {

const char* const kProfiles[] = {"qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_gate_us_e3",
                                 "qubit_gate_us_e4", "qubit_maj_ns_e4",  "qubit_maj_ns_e6"};
constexpr std::uint64_t kNumProfiles = 6;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent hash streams per (seed, purpose), indexed by request/item.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return splitmix(splitmix(splitmix(seed) ^ (stream * 0x2545f4914f6cdd1dULL)) + index);
}

/// An injective map index -> [0, modulus) for index < modulus (modulus
/// prime), so distinct requests get distinct values under every seed.
std::uint64_t permute(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                      std::uint64_t modulus) {
  const std::uint64_t a = 1 + draw(seed, stream, 0) % (modulus - 1);
  const std::uint64_t b = draw(seed, stream, 1) % modulus;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * (index % modulus) + b) % modulus);
}

// sweep-dense: distinct numQubits per request (so every item misses the
// estimate cache) over fixed T/CCZ/rotation counts (so the 198 T-factory
// problems repeat).
constexpr std::uint64_t kSweepQubitModulus = 1000003;  // prime
constexpr int kSweepBudgetSteps = 33;

// single-mix: 6 profiles x 96 T-counts x 24 qubit counts = 13824 keys,
// 3.4x the 4096-entry estimate cache; 6 x 96 = 576 T-factory problems,
// just over the 512-entry factory cache, so a few percent of requests
// search afresh (p90 then sits among plain misses, not on the edge of the
// search tail). The Zipf exponent fills the estimate cache within the
// warm-up.
constexpr std::uint64_t kMixTCounts = 96;
constexpr std::uint64_t kMixQubitCounts = 24;
constexpr std::uint64_t kMixKeys = kNumProfiles * kMixTCounts * kMixQubitCounts;
constexpr double kMixZipfExponent = 0.8;

// batch-replay: 6 profiles x 2048 qubit counts = 12288 stored keys, 3x the
// estimate cache; one in ten items is a never-seen key.
constexpr std::uint64_t kReplayStoredQubits = 2048;
constexpr std::uint64_t kReplayItems = 32;
constexpr std::uint64_t kReplayNewEvery = 10;
constexpr std::uint64_t kReplayNewModulus = 999983;  // prime
constexpr std::uint64_t kReplayTCount = 1000000;
constexpr std::uint64_t kReplayFillBatch = 512;

std::uint64_t mix_t_count(std::uint64_t i) {
  // 1e3 .. 1e9 T gates, log-spaced: the span of the paper's multipliers.
  return static_cast<std::uint64_t>(
      std::llround(std::pow(10.0, 3.0 + 6.0 * static_cast<double>(i) / (kMixTCounts - 1))));
}

const std::vector<double>& zipf_cdf() {
  static const std::vector<double> cdf = [] {
    std::vector<double> c(kMixKeys);
    double total = 0;
    for (std::uint64_t r = 0; r < kMixKeys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kMixZipfExponent);
      c[r] = total;
    }
    for (double& x : c) x /= total;
    return c;
  }();
  return cdf;
}

std::string replay_counts(std::uint64_t num_qubits) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                R"({"logicalCounts":{"numQubits":%llu,"tCount":%llu,"measurementCount":5000}})",
                static_cast<unsigned long long>(num_qubits),
                static_cast<unsigned long long>(kReplayTCount));
  return buf;
}

std::string replay_batch(const char* profile, const std::vector<std::string>& items) {
  std::string body = R"({"qubitParams":{"name":")";
  body += profile;
  body += R"("},"errorBudget":0.001,"items":[)";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) body += ',';
    body += items[i];
  }
  body += "]}";
  return body;
}

}  // namespace

Workload workload_by_name(const std::string& name) {
  if (name == "sweep-dense") return {Kind::kSweepDense, name, 1, 10, 1};
  if (name == "single-mix") return {Kind::kSingleMix, name, 4, 2500, 4000};
  if (name == "batch-replay") return {Kind::kBatchReplay, name, 4, 50, 200};
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::size_t expected_items(const Workload& w) {
  switch (w.kind) {
    case Kind::kSweepDense: return kNumProfiles * kSweepBudgetSteps;
    case Kind::kSingleMix: return 1;
    case Kind::kBatchReplay: return kReplayItems;
  }
  return 0;
}

std::string make_request(const Workload& w, std::uint64_t seed, std::uint64_t index) {
  char buf[512];
  switch (w.kind) {
    case Kind::kSweepDense: {
      const std::uint64_t num_qubits = 100 + permute(seed, 1, index, kSweepQubitModulus);
      std::string body;
      std::snprintf(buf, sizeof buf,
                    R"({"logicalCounts":{"numQubits":%llu,"tCount":1000000,)"
                    R"("rotationCount":30000,"rotationDepth":11000,"cczCount":250000,)"
                    R"("measurementCount":150000},"sweep":{"qubitParams":[)",
                    static_cast<unsigned long long>(num_qubits));
      body = buf;
      for (std::uint64_t p = 0; p < kNumProfiles; ++p) {
        if (p > 0) body += ',';
        body += R"({"name":")";
        body += kProfiles[p];
        body += R"("})";
      }
      std::snprintf(buf, sizeof buf,
                    R"(],"errorBudget":{"start":0.0001,"stop":0.01,"steps":%d,"scale":"log"}}})",
                    kSweepBudgetSteps);
      body += buf;
      return body;
    }
    case Kind::kSingleMix: {
      const std::vector<double>& cdf = zipf_cdf();
      const double u = static_cast<double>(draw(seed, 3, index) >> 11) * 0x1.0p-53;
      const std::uint64_t rank = static_cast<std::uint64_t>(
          std::min<std::ptrdiff_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                                   static_cast<std::ptrdiff_t>(kMixKeys - 1)));
      // A seeded bijection on the key space, so each seed has its own hot set.
      std::uint64_t a = (draw(seed, 4, 0) % kMixKeys) | 1;
      while (std::gcd(a, kMixKeys) != 1) a += 2;
      const std::uint64_t key = (a * rank + draw(seed, 4, 1)) % kMixKeys;
      const std::uint64_t profile = key % kNumProfiles;
      const std::uint64_t t = (key / kNumProfiles) % kMixTCounts;
      const std::uint64_t q = key / (kNumProfiles * kMixTCounts);
      std::snprintf(buf, sizeof buf,
                    R"({"qubitParams":{"name":"%s"},"errorBudget":0.001,)"
                    R"("logicalCounts":{"numQubits":%llu,"tCount":%llu}})",
                    kProfiles[profile], static_cast<unsigned long long>(100 * (q + 1)),
                    static_cast<unsigned long long>(mix_t_count(t)));
      return buf;
    }
    case Kind::kBatchReplay: {
      const char* profile = kProfiles[draw(seed, 5, index) % kNumProfiles];
      std::vector<std::string> items;
      for (std::uint64_t i = 0; i < kReplayItems; ++i) {
        const std::uint64_t item_index = index * kReplayItems + i;
        const std::uint64_t u = draw(seed, 6, item_index);
        const std::uint64_t num_qubits =
            u % kReplayNewEvery == 0
                ? 1000000 + permute(seed, 7, item_index, kReplayNewModulus)
                : 16 + (u >> 8) % kReplayStoredQubits;
        items.push_back(replay_counts(num_qubits));
      }
      return replay_batch(profile, items);
    }
  }
  return {};
}

std::vector<std::string> store_fill_batches() {
  std::vector<std::string> batches;
  for (const char* profile : kProfiles) {
    for (std::uint64_t start = 0; start < kReplayStoredQubits; start += kReplayFillBatch) {
      std::vector<std::string> items;
      for (std::uint64_t j = start; j < start + kReplayFillBatch; ++j) {
        items.push_back(replay_counts(16 + j));
      }
      batches.push_back(replay_batch(profile, items));
    }
  }
  return batches;
}

// --------------------------------------------------------------- regime --

namespace {

double number_at(const qre::json::Value& doc, const char* section, const char* field) {
  const qre::json::Value* s = doc.find(section);
  if (s == nullptr) return 0;
  const qre::json::Value* v = s->find(field);
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

Counters Counters::from_metrics(const qre::json::Value& m) {
  Counters c;
  c.estimate_hits = number_at(m, "estimateCache", "hits");
  c.estimate_misses = number_at(m, "estimateCache", "misses");
  c.estimate_evictions = number_at(m, "estimateCache", "evictions");
  c.factory_hits = number_at(m, "factoryCache", "hits");
  c.factory_misses = number_at(m, "factoryCache", "misses");
  c.store_hits = number_at(m, "store", "hits");
  c.store_misses = number_at(m, "store", "misses");
  c.requests = number_at(m, "server", "requestsTotal");
  return c;
}

namespace {

Counters combine(const Counters& a, const Counters& b, double sign) {
  Counters d;
  d.estimate_hits = a.estimate_hits + sign * b.estimate_hits;
  d.estimate_misses = a.estimate_misses + sign * b.estimate_misses;
  d.estimate_evictions = a.estimate_evictions + sign * b.estimate_evictions;
  d.factory_hits = a.factory_hits + sign * b.factory_hits;
  d.factory_misses = a.factory_misses + sign * b.factory_misses;
  d.store_hits = a.store_hits + sign * b.store_hits;
  d.store_misses = a.store_misses + sign * b.store_misses;
  d.requests = a.requests + sign * b.requests;
  return d;
}

}  // namespace

Counters Counters::operator-(const Counters& b) const { return combine(*this, b, -1); }
Counters Counters::operator+(const Counters& b) const { return combine(*this, b, 1); }

double Counters::estimate_hit_share() const {
  return share(estimate_hits, estimate_hits + estimate_misses);
}
double Counters::factory_hit_share() const {
  return share(factory_hits, factory_hits + factory_misses);
}
double Counters::store_hit_share() const { return share(store_hits, store_hits + store_misses); }
double Counters::new_key_share() const {
  const double fresh = store_hits + store_misses > 0 ? store_misses : estimate_misses;
  return share(fresh, estimate_hits + estimate_misses);
}

std::vector<std::string> regime_violations(const Workload& w, const Counters& d) {
  std::vector<std::string> out;
  auto require = [&out](bool ok, const std::string& what) {
    if (!ok) out.push_back(what);
  };
  switch (w.kind) {
    case Kind::kSweepDense:
      require(d.estimate_hits == 0, "estimate-cache hits must be 0 (every item a new key)");
      require(d.factory_hit_share() >= 0.99, "factory-cache hit share must be >= 0.99");
      require(d.store_hits + d.store_misses == 0, "the store must stay idle");
      break;
    case Kind::kSingleMix:
      require(d.estimate_hit_share() >= 0.5 && d.estimate_hit_share() <= 0.97,
              "estimate-cache hit share must be in [0.5, 0.97]");
      require(d.estimate_evictions > 0, "the estimate cache must evict");
      require(d.factory_misses > 0, "some estimate misses must need a fresh T-factory search");
      require(d.factory_hit_share() >= 0.3, "factory-cache hit share must be >= 0.3");
      require(d.store_hits + d.store_misses == 0, "the store must stay idle");
      break;
    case Kind::kBatchReplay:
      require(d.store_hit_share() >= 0.75, "store hit share must be >= 0.75");
      require(d.new_key_share() >= 0.05 && d.new_key_share() <= 0.15,
              "new-key share must be in [0.05, 0.15]");
      require(d.estimate_hit_share() <= 0.6, "estimate-cache hit share must be <= 0.6");
      require(d.estimate_evictions > 0, "the estimate cache must evict");
      break;
  }
  return out;
}

}  // namespace servebench
