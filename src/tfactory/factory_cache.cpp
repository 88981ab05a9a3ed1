#include "tfactory/factory_cache.hpp"

#include <charconv>
#include <cstring>

#include "common/trace.hpp"

namespace qre {

namespace {

/// Appends an integer in the given base without touching the heap (beyond
/// the buffer's own growth, which amortizes to zero on a reused buffer).
template <typename T>
void append_int(std::string& out, T v, int base = 10) {
  char digits[32];
  const std::to_chars_result r = std::to_chars(digits, digits + sizeof(digits), v, base);
  out.append(digits, r.ptr);
}

/// Appends a double's exact bit pattern (hex), so fingerprints distinguish
/// values that would collide after decimal formatting.
void append_bits(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(v));
  append_int(out, bits, 16);
  out.push_back(';');
}

/// Appends a user-controlled string (unit name, formula text)
/// length-prefixed, so embedded delimiter characters cannot make two
/// distinct problems fingerprint identically.
void append_string(std::string& out, const std::string& s) {
  append_int(out, s.size());
  out.push_back(':');
  out.append(s);
  out.push_back(';');
}

/// Canonical fingerprint of one design problem: the required error and
/// options, then every field of the qubit model, QEC scheme, and units
/// that design_tfactory() can observe (numerics bit-exactly, formulas by
/// source text). Computed on every lookup, so it deliberately avoids JSON
/// serialization and streams — the fingerprint is appended into a reusable
/// buffer with to_chars so a warm lookup allocates nothing. Keep the field
/// lists in sync with the structs.
void fingerprint_into(std::string& out, double required_output_error, const QubitParams& qubit,
                      const QecScheme& scheme, const std::vector<DistillationUnit>& units,
                      const TFactoryOptions& options) {
  out.clear();
  append_bits(out, required_output_error);
  append_int(out, options.max_rounds);
  out.push_back(';');
  append_int(out, options.min_code_distance);
  out.push_back(';');
  append_int(out, options.max_code_distance);
  out.push_back(';');
  append_int(out, static_cast<int>(options.objective));
  out.push_back(';');
  append_int(out, options.exhaustive ? 1 : 0);
  out.push_back(';');
  append_bits(out, options.max_round_failure_probability);

  append_int(out, static_cast<int>(qubit.instruction_set));
  out.push_back(';');
  append_bits(out, qubit.one_qubit_measurement_time_ns);
  append_bits(out, qubit.one_qubit_gate_time_ns);
  append_bits(out, qubit.two_qubit_gate_time_ns);
  append_bits(out, qubit.two_qubit_joint_measurement_time_ns);
  append_bits(out, qubit.t_gate_time_ns);
  append_bits(out, qubit.one_qubit_measurement_error_rate);
  append_bits(out, qubit.one_qubit_gate_error_rate);
  append_bits(out, qubit.two_qubit_gate_error_rate);
  append_bits(out, qubit.two_qubit_joint_measurement_error_rate);
  append_bits(out, qubit.t_gate_error_rate);
  append_bits(out, qubit.idle_error_rate);

  append_bits(out, scheme.threshold());
  append_bits(out, scheme.crossing_prefactor());
  append_string(out, scheme.logical_cycle_time_text());
  append_string(out, scheme.physical_qubits_text());

  for (const DistillationUnit& unit : units) {
    append_string(out, unit.name);
    append_int(out, unit.num_input_ts);
    out.push_back(';');
    append_int(out, unit.num_output_ts);
    out.push_back(';');
    append_int(out, unit.allow_physical ? 1 : 0);
    append_int(out, unit.allow_logical ? 1 : 0);
    out.push_back(';');
    append_string(out, unit.failure_probability.text());
    append_string(out, unit.output_error_rate.text());
    append_int(out, unit.physical_qubits_at_physical);
    out.push_back(';');
    append_string(out, unit.duration_at_physical_ns.text());
    append_int(out, unit.logical_qubits_at_logical);
    out.push_back(';');
    append_int(out, unit.duration_in_logical_cycles);
    out.push_back(';');
  }
}

/// Shares a design, with its "tfactory" output group written once for every
/// result that reports the design to splice.
std::shared_ptr<const TFactory> wrap(std::optional<TFactory> designed) {
  if (!designed.has_value()) return nullptr;
  auto shared = std::make_shared<TFactory>(std::move(*designed));
  shared->keep_json();
  return shared;
}

}  // namespace

// A process-level cache is never unbounded (unlike EstimateCache, where
// capacity 0 opts a batch out of eviction), so 0 clamps to the minimum.
FactoryCache::FactoryCache(std::size_t capacity)
    : entries_(capacity == 0 ? 1 : capacity) {}

FactoryCache& FactoryCache::global() {
  static FactoryCache cache;
  return cache;
}

std::shared_ptr<const TFactory> FactoryCache::design_shared(
    double required_output_error, const QubitParams& qubit, const QecScheme& scheme,
    const std::vector<DistillationUnit>& units, const TFactoryOptions& options) {
  if (!enabled_.load()) {
    return wrap(design_tfactory(required_output_error, qubit, scheme, units, options));
  }
  // The QRE_EXHAUSTIVE_SEARCH override changes which search runs without
  // changing the options fingerprint; both searches return bit-identical
  // factories, so cached entries stay valid across the toggle.
  thread_local std::string key;
  fingerprint_into(key, required_output_error, qubit, scheme, units, options);
  {
    MutexLock lock(mutex_);
    if (const std::shared_ptr<const TFactory>* found = entries_.find(key)) {
      hits_.fetch_add(1);
      QRE_TRACE_INSTANT("factory.cache.hit");
      return *found;
    }
  }
  misses_.fetch_add(1);
  QRE_TRACE_INSTANT("factory.cache.miss");
  // Design outside the lock: searches take orders of magnitude longer than
  // a map probe, and concurrent misses on the same key just compute the
  // same (deterministic) design twice.
  std::shared_ptr<const TFactory> designed =
      wrap(design_tfactory(required_output_error, qubit, scheme, units, options));
  using Entries = LruMap<std::shared_ptr<const TFactory>>;
  Entries::Nodes node = Entries::make_node(key, designed);
  Entries::Nodes evicted;  // destroyed after unlocking
  MutexLock lock(mutex_);
  if (!entries_.contains(key)) {
    evicted = entries_.insert(std::move(node));
    evictions_.fetch_add(evicted.size());
  }
  return designed;
}

std::size_t FactoryCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void FactoryCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  hits_.store(0);
  misses_.store(0);
  evictions_.store(0);
}

}  // namespace qre
