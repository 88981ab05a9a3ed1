#include "tfactory/tfactory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/trace.hpp"

namespace qre {

double TFactory::normalized_volume() const {
  if (no_distillation()) return 0.0;
  QRE_ASSERT(tstates_per_invocation > 0.0);
  return static_cast<double>(physical_qubits) * (duration_ns * 1e-9) / tstates_per_invocation;
}

json::Value TFactory::to_json() const {
  json::Object o;
  o.emplace_back("numRounds", static_cast<std::uint64_t>(rounds.size()));
  json::Array names, distances, units, qubits, durations, failures, errors;
  for (const DistillationRound& r : rounds) {
    names.emplace_back(r.unit_name + (r.physical ? " (physical)" : " (logical)"));
    distances.emplace_back(r.code_distance);
    units.emplace_back(r.num_units);
    qubits.emplace_back(r.physical_qubits);
    durations.emplace_back(r.duration_ns);
    failures.emplace_back(r.failure_probability);
    errors.emplace_back(r.output_error_rate);
  }
  o.emplace_back("unitNamePerRound", std::move(names));
  o.emplace_back("codeDistancePerRound", std::move(distances));
  o.emplace_back("numUnitsPerRound", std::move(units));
  o.emplace_back("physicalQubitsPerRound", std::move(qubits));
  o.emplace_back("runtimePerRound", std::move(durations));
  o.emplace_back("failureProbabilityPerRound", std::move(failures));
  o.emplace_back("outputErrorRatePerRound", std::move(errors));
  o.emplace_back("physicalQubits", physical_qubits);
  o.emplace_back("runtime", duration_ns);
  o.emplace_back("inputTErrorRate", input_t_error_rate);
  o.emplace_back("outputTErrorRate", output_error_rate);
  o.emplace_back("tstatesPerInvocation", tstates_per_invocation);
  return json::Value(std::move(o));
}

namespace {

void write_value(std::string& out, std::uint64_t v) { json::write_count(out, v); }
void write_value(std::string& out, double v) { json::write_number(out, v); }

/// Appends the array of one per-round field.
template <typename T>
void write_per_round(std::string& out, const std::vector<DistillationRound>& rounds,
                     T DistillationRound::*field) {
  out.push_back('[');
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (i != 0) out.push_back(',');
    write_value(out, rounds[i].*field);
  }
  out.push_back(']');
}

/// The one writer of the "tfactory" group's bytes.
void write_tfactory(std::string& out, const TFactory& f) {
  json::ObjectWriter o(out);
  o.count("numRounds", f.rounds.size());
  std::string& names = o.key("unitNamePerRound");
  names.push_back('[');
  for (std::size_t i = 0; i < f.rounds.size(); ++i) {
    if (i != 0) names.push_back(',');
    json::write_escaped(names, f.rounds[i].unit_name);
    names.pop_back();  // reopen the string: the suffix needs no escaping
    names += f.rounds[i].physical ? " (physical)\"" : " (logical)\"";
  }
  names.push_back(']');
  write_per_round(o.key("codeDistancePerRound"), f.rounds, &DistillationRound::code_distance);
  write_per_round(o.key("numUnitsPerRound"), f.rounds, &DistillationRound::num_units);
  write_per_round(o.key("physicalQubitsPerRound"), f.rounds,
                  &DistillationRound::physical_qubits);
  write_per_round(o.key("runtimePerRound"), f.rounds, &DistillationRound::duration_ns);
  write_per_round(o.key("failureProbabilityPerRound"), f.rounds,
                  &DistillationRound::failure_probability);
  write_per_round(o.key("outputErrorRatePerRound"), f.rounds,
                  &DistillationRound::output_error_rate);
  o.count("physicalQubits", f.physical_qubits);
  o.number("runtime", f.duration_ns);
  o.number("inputTErrorRate", f.input_t_error_rate);
  o.number("outputTErrorRate", f.output_error_rate);
  o.number("tstatesPerInvocation", f.tstates_per_invocation);
  o.close();
}

}  // namespace

void TFactory::append_json(std::string& out) const {
  if (!json_bytes.get().empty()) {
    out += json_bytes.get();
  } else {
    write_tfactory(out, *this);
  }
}

void TFactory::keep_json() {
  std::string bytes;
  write_tfactory(bytes, *this);
  json_bytes.set(std::move(bytes));
}

namespace {

/// One candidate round configuration prior to unit-count assignment.
struct RoundChoice {
  const DistillationUnit* unit = nullptr;
  bool physical = false;
  std::uint64_t code_distance = 0;
};

/// Evaluates a full pipeline; returns nullopt when any round is infeasible
/// (failure probability too high, not error-reducing) or the final error
/// misses the requirement.
std::optional<TFactory> evaluate_pipeline(const std::vector<RoundChoice>& choices,
                                          double required_output_error,
                                          const QubitParams& qubit, const QecScheme& scheme,
                                          const TFactoryOptions& options) {
  TFactory factory;
  factory.input_t_error_rate = qubit.t_gate_error_rate;

  double input_error = qubit.t_gate_error_rate;
  for (const RoundChoice& choice : choices) {
    const DistillationUnit& unit = *choice.unit;
    DistillationRound round;
    round.unit_name = unit.name;
    round.physical = choice.physical;
    round.code_distance = choice.code_distance;

    double clifford_error;
    double readout_error;
    if (choice.physical) {
      clifford_error = qubit.clifford_error_rate();
      readout_error = qubit.readout_error_rate();
      Environment env = qec_formula_environment(qubit, /*code_distance=*/1);
      round.duration_ns = unit.duration_at_physical_ns.evaluate(env);
      round.physical_qubits_per_unit = unit.physical_qubits_at_physical;
    } else {
      clifford_error =
          scheme.logical_error_rate(qubit.clifford_error_rate(), choice.code_distance);
      readout_error = clifford_error;
      double cycle = scheme.logical_cycle_time_ns(qubit, choice.code_distance);
      round.duration_ns = static_cast<double>(unit.duration_in_logical_cycles) * cycle;
      round.physical_qubits_per_unit =
          unit.logical_qubits_at_logical *
          scheme.physical_qubits_per_logical_qubit(choice.code_distance);
    }

    DistillationOutcome outcome = evaluate_unit(unit, input_error, clifford_error, readout_error);
    if (outcome.failure_probability >= options.max_round_failure_probability) {
      return std::nullopt;
    }
    if (outcome.output_error_rate >= input_error) return std::nullopt;  // not error-reducing

    round.failure_probability = outcome.failure_probability;
    round.output_error_rate = outcome.output_error_rate;
    factory.rounds.push_back(std::move(round));
    input_error = outcome.output_error_rate;
  }

  factory.output_error_rate = input_error;
  if (factory.output_error_rate > required_output_error) return std::nullopt;

  // Assign unit counts top-down: the final round runs one unit; each earlier
  // round must produce the next round's inputs in expectation.
  const std::size_t n = factory.rounds.size();
  factory.rounds[n - 1].num_units = 1;
  for (std::size_t r = n - 1; r-- > 0;) {
    const DistillationRound& next = factory.rounds[r + 1];
    double inputs_needed = static_cast<double>(next.num_units) *
                           static_cast<double>(choices[r + 1].unit->num_input_ts);
    double per_unit = static_cast<double>(choices[r].unit->num_output_ts) *
                      (1.0 - factory.rounds[r].failure_probability);
    factory.rounds[r].num_units = ceil_to_u64(inputs_needed / per_unit);
  }

  for (DistillationRound& round : factory.rounds) {
    round.physical_qubits = round.num_units * round.physical_qubits_per_unit;
    factory.physical_qubits = std::max(factory.physical_qubits, round.physical_qubits);
    factory.duration_ns += round.duration_ns;
  }
  factory.tstates_per_invocation =
      static_cast<double>(choices[n - 1].unit->num_output_ts) *
      (1.0 - factory.rounds[n - 1].failure_probability);
  if (factory.tstates_per_invocation < 0.1) return std::nullopt;
  return factory;
}

/// Recursively enumerates pipelines, invoking `visit` on each feasible one.
template <typename Visitor>
void enumerate(std::vector<RoundChoice>& current, std::size_t rounds_left,
               std::uint64_t min_distance, const std::vector<DistillationUnit>& units,
               const TFactoryOptions& options, Visitor&& visit) {
  if (!current.empty()) visit(current);
  if (rounds_left == 0) return;
  for (const DistillationUnit& unit : units) {
    if (current.empty() && unit.allow_physical) {
      current.push_back({&unit, /*physical=*/true, 0});
      enumerate(current, rounds_left - 1, options.min_code_distance, units, options, visit);
      current.pop_back();
    }
    if (unit.allow_logical) {
      for (std::uint64_t d = next_odd(min_distance); d <= options.max_code_distance; d += 2) {
        current.push_back({&unit, /*physical=*/false, d});
        enumerate(current, rounds_left - 1, d, units, options, visit);
        current.pop_back();
      }
    }
  }
}

/// Ranks two factories under the active objective; strict ("better than"),
/// so ties keep the first-enumerated candidate.
bool better_factory(const TFactory& a, const TFactory& b, const TFactoryOptions& options) {
  switch (options.objective) {
    case TFactoryOptions::Objective::kMinQubits:
      if (a.physical_qubits != b.physical_qubits) {
        return a.physical_qubits < b.physical_qubits;
      }
      return a.duration_ns < b.duration_ns;
    case TFactoryOptions::Objective::kMinDuration:
      if (a.duration_ns != b.duration_ns) return a.duration_ns < b.duration_ns;
      return a.physical_qubits < b.physical_qubits;
    case TFactoryOptions::Objective::kMinVolume:
    default:
      return a.normalized_volume() < b.normalized_volume();
  }
}

// ---------------------------------------------------------------------------
// Pruned branch-and-bound search.
//
// The brute-force enumeration above re-evaluates every pipeline prefix from
// scratch at every tree node. The pruned search walks the same tree in the
// same order but (a) evaluates each round once, incrementally, on top of its
// parent prefix, (b) precomputes every per-distance quantity (logical error,
// cycle time, patch footprint, unit durations) before the walk, (c) memoizes
// unit-formula evaluations per (unit, level, input error), (d) abandons a
// subtree as soon as one round is infeasible (every extension repeats that
// round, so the whole subtree is infeasible), and (e) abandons a subtree
// when a lower bound on the cost of any completion is already strictly worse
// than the incumbent best for the active objective.
//
// The bounds are: duration >= the prefix's duration sum (rounds only add
// time); physical qubits >= the widest per-unit footprint in the prefix
// (every round runs at least one unit); tstates_per_invocation <= the
// largest output count any unit offers. Pruning only on *strictly* worse
// bounds preserves the brute force's first-wins tie-breaking, so both
// searches return bit-identical factories.
// ---------------------------------------------------------------------------

/// One evaluated candidate round in the DFS stack.
struct SearchRound {
  std::uint32_t unit_index = 0;
  std::uint32_t level = 0;  // 0 = physical, 1 + di = logical at distances[di]
  double duration_ns = 0.0;
  std::uint64_t qubits_per_unit = 0;
  double failure_probability = 0.0;
  double output_error_rate = 0.0;
};

struct RoundEvalKey {
  std::uint32_t unit_index;
  std::uint32_t level;
  std::uint64_t input_bits;  // bit pattern of the input error rate
  bool operator==(const RoundEvalKey& o) const {
    return unit_index == o.unit_index && level == o.level && input_bits == o.input_bits;
  }
};

struct RoundEvalKeyHash {
  std::size_t operator()(const RoundEvalKey& k) const {
    std::uint64_t h = k.input_bits;
    h ^= (static_cast<std::uint64_t>(k.unit_index) << 32) ^ k.level;
    h *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

struct RoundEval {
  double failure_probability = 0.0;
  double output_error_rate = 0.0;
  bool feasible = false;
};

class PrunedSearch {
 public:
  PrunedSearch(double required_output_error, const QubitParams& qubit, const QecScheme& scheme,
               const std::vector<DistillationUnit>& units, const TFactoryOptions& options)
      : required_(required_output_error), qubit_(qubit), units_(units), options_(options) {
    for (std::uint64_t d = next_odd(options.min_code_distance); d <= options.max_code_distance;
         d += 2) {
      distances_.push_back(d);
    }
    const double physical_error = qubit.clifford_error_rate();
    const std::size_t nd = distances_.size();
    logical_clifford_error_.reserve(nd);
    cycle_ns_.reserve(nd);
    for (std::uint64_t d : distances_) {
      logical_clifford_error_.push_back(scheme.logical_error_rate(physical_error, d));
      cycle_ns_.push_back(scheme.logical_cycle_time_ns(qubit, d));
    }
    physical_clifford_error_ = physical_error;
    physical_readout_error_ = qubit.readout_error_rate();

    levels_.resize(units.size());
    max_output_ts_ = 0.0;
    for (std::size_t u = 0; u < units.size(); ++u) {
      const DistillationUnit& unit = units[u];
      max_output_ts_ = std::max(max_output_ts_, static_cast<double>(unit.num_output_ts));
      UnitLevels& lv = levels_[u];
      if (unit.allow_physical) {
        Environment env = qec_formula_environment(qubit, /*code_distance=*/1);
        lv.physical_duration_ns = unit.duration_at_physical_ns.evaluate(env);
      }
      if (unit.allow_logical) {
        lv.logical_duration_ns.reserve(nd);
        lv.logical_qubits_per_unit.reserve(nd);
        for (std::size_t di = 0; di < nd; ++di) {
          lv.logical_duration_ns.push_back(
              static_cast<double>(unit.duration_in_logical_cycles) * cycle_ns_[di]);
          lv.logical_qubits_per_unit.push_back(
              unit.logical_qubits_at_logical *
              scheme.physical_qubits_per_logical_qubit(distances_[di]));
        }
        // Monotone footprints let the distance loop break (not just skip)
        // once a cost bound prunes: every larger distance only costs more.
        lv.monotone = true;
        for (std::size_t di = 1; di < nd; ++di) {
          if (lv.logical_duration_ns[di] < lv.logical_duration_ns[di - 1] ||
              lv.logical_qubits_per_unit[di] < lv.logical_qubits_per_unit[di - 1]) {
            lv.monotone = false;
            break;
          }
        }
      }
    }
  }

  std::optional<TFactory> run() {
    stack_.reserve(options_.max_rounds);
    expand(options_.max_rounds, /*min_distance_index=*/0, qubit_.t_gate_error_rate,
           /*partial_duration=*/0.0, /*qubit_floor=*/0);
    if (!best_rounds_.has_value()) return std::nullopt;
    return materialize(*best_rounds_);
  }

 private:
  struct UnitLevels {
    double physical_duration_ns = 0.0;
    std::vector<double> logical_duration_ns;
    std::vector<std::uint64_t> logical_qubits_per_unit;
    bool monotone = false;
  };

  /// Evaluates a unit's error formulas at one level for one input error —
  /// through evaluate_unit(), so both searches share one implementation —
  /// memoized per (unit, level, input-error-bits).
  const RoundEval& eval_round(std::uint32_t unit_index, std::uint32_t level,
                              double input_error) {
    RoundEvalKey key{unit_index, level, 0};
    static_assert(sizeof(key.input_bits) == sizeof(input_error));
    std::memcpy(&key.input_bits, &input_error, sizeof(input_error));
    auto it = eval_memo_.find(key);
    if (it != eval_memo_.end()) return it->second;

    double clifford_error;
    double readout_error;
    if (level == 0) {
      clifford_error = physical_clifford_error_;
      readout_error = physical_readout_error_;
    } else {
      clifford_error = logical_clifford_error_[level - 1];
      readout_error = clifford_error;
    }
    DistillationOutcome outcome =
        evaluate_unit(units_[unit_index], input_error, clifford_error, readout_error);
    RoundEval eval;
    eval.failure_probability = outcome.failure_probability;
    eval.output_error_rate = outcome.output_error_rate;
    eval.feasible = eval.failure_probability < options_.max_round_failure_probability &&
                    eval.output_error_rate < input_error;
    return eval_memo_.emplace(key, eval).first->second;
  }

  /// True when every completion of the prefix (including the prefix itself
  /// taken as a complete pipeline) is strictly worse than the incumbent.
  bool bound_pruned(double partial_duration, std::uint64_t qubit_floor) const {
    if (!best_rounds_.has_value()) return false;
    switch (options_.objective) {
      case TFactoryOptions::Objective::kMinQubits:
        return qubit_floor > best_qubits_ ||
               (qubit_floor == best_qubits_ && partial_duration > best_duration_);
      case TFactoryOptions::Objective::kMinDuration:
        return partial_duration > best_duration_ ||
               (partial_duration == best_duration_ && qubit_floor > best_qubits_);
      case TFactoryOptions::Objective::kMinVolume:
      default:
        return max_output_ts_ > 0.0 &&
               static_cast<double>(qubit_floor) * (partial_duration * 1e-9) / max_output_ts_ >
                   best_volume_;
    }
  }

  /// Tries to finalize the current stack as a complete pipeline; updates the
  /// incumbent when it wins. Unit counts are assigned top-down exactly as in
  /// evaluate_pipeline().
  void visit(double partial_duration) {
    const std::size_t n = stack_.size();
    if (stack_[n - 1].output_error_rate > required_) return;

    num_units_.resize(n);
    num_units_[n - 1] = 1;
    for (std::size_t r = n - 1; r-- > 0;) {
      double inputs_needed =
          static_cast<double>(num_units_[r + 1]) *
          static_cast<double>(units_[stack_[r + 1].unit_index].num_input_ts);
      double per_unit = static_cast<double>(units_[stack_[r].unit_index].num_output_ts) *
                        (1.0 - stack_[r].failure_probability);
      num_units_[r] = ceil_to_u64(inputs_needed / per_unit);
    }

    std::uint64_t physical_qubits = 0;
    for (std::size_t r = 0; r < n; ++r) {
      physical_qubits = std::max(physical_qubits, num_units_[r] * stack_[r].qubits_per_unit);
    }
    double tstates =
        static_cast<double>(units_[stack_[n - 1].unit_index].num_output_ts) *
        (1.0 - stack_[n - 1].failure_probability);
    if (tstates < 0.1) return;
    double volume =
        static_cast<double>(physical_qubits) * (partial_duration * 1e-9) / tstates;

    bool wins;
    if (!best_rounds_.has_value()) {
      wins = true;
    } else {
      switch (options_.objective) {
        case TFactoryOptions::Objective::kMinQubits:
          wins = physical_qubits != best_qubits_ ? physical_qubits < best_qubits_
                                                 : partial_duration < best_duration_;
          break;
        case TFactoryOptions::Objective::kMinDuration:
          wins = partial_duration != best_duration_ ? partial_duration < best_duration_
                                                    : physical_qubits < best_qubits_;
          break;
        case TFactoryOptions::Objective::kMinVolume:
        default:
          wins = volume < best_volume_;
          break;
      }
    }
    if (wins) {
      best_rounds_ = stack_;
      best_num_units_ = num_units_;
      best_qubits_ = physical_qubits;
      best_duration_ = partial_duration;
      best_volume_ = volume;
      best_tstates_ = tstates;
    }
  }

  /// DFS over round choices, mirroring enumerate()'s visit order: a prefix
  /// is visited before any of its extensions, units in declaration order,
  /// the physical level before logical levels, distances ascending.
  void expand(std::uint64_t rounds_left, std::size_t min_distance_index, double input_error,
              double partial_duration, std::uint64_t qubit_floor) {
    if (!stack_.empty()) visit(partial_duration);
    if (rounds_left == 0) return;
    for (std::uint32_t u = 0; u < units_.size(); ++u) {
      const DistillationUnit& unit = units_[u];
      const UnitLevels& lv = levels_[u];
      if (stack_.empty() && unit.allow_physical) {
        descend(u, /*level=*/0, lv.physical_duration_ns, unit.physical_qubits_at_physical,
                rounds_left, /*child_min_distance_index=*/0, input_error, partial_duration,
                qubit_floor);
      }
      if (unit.allow_logical) {
        for (std::size_t di = min_distance_index; di < distances_.size(); ++di) {
          if (!descend(u, static_cast<std::uint32_t>(1 + di), lv.logical_duration_ns[di],
                       lv.logical_qubits_per_unit[di], rounds_left, di, input_error,
                       partial_duration, qubit_floor) &&
              lv.monotone) {
            break;  // dominated distance prefix: larger d only costs more
          }
        }
      }
    }
  }

  /// Evaluates one child round and recurses into it unless the round is
  /// infeasible (the whole subtree repeats it) or the cost bound prunes.
  /// Returns false exactly when the subtree was cost-pruned, so monotone
  /// distance loops can break early.
  bool descend(std::uint32_t unit_index, std::uint32_t level, double duration_ns,
               std::uint64_t qubits_per_unit, std::uint64_t rounds_left,
               std::size_t child_min_distance_index, double input_error,
               double partial_duration, std::uint64_t qubit_floor) {
    double child_duration = partial_duration + duration_ns;
    std::uint64_t child_floor = std::max(qubit_floor, qubits_per_unit);
    if (bound_pruned(child_duration, child_floor)) return false;
    const RoundEval& eval = eval_round(unit_index, level, input_error);
    if (!eval.feasible) return true;  // dead subtree, but not by cost
    SearchRound round;
    round.unit_index = unit_index;
    round.level = level;
    round.duration_ns = duration_ns;
    round.qubits_per_unit = qubits_per_unit;
    round.failure_probability = eval.failure_probability;
    round.output_error_rate = eval.output_error_rate;
    stack_.push_back(round);
    expand(rounds_left - 1, child_min_distance_index, eval.output_error_rate, child_duration,
           child_floor);
    stack_.pop_back();
    return true;
  }

  /// Builds the full TFactory for the winning pipeline, reproducing
  /// evaluate_pipeline()'s arithmetic (and hence its exact doubles).
  TFactory materialize(const std::vector<SearchRound>& rounds) const {
    TFactory factory;
    factory.input_t_error_rate = qubit_.t_gate_error_rate;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const SearchRound& sr = rounds[r];
      DistillationRound round;
      round.unit_name = units_[sr.unit_index].name;
      round.physical = sr.level == 0;
      round.code_distance = sr.level == 0 ? 0 : distances_[sr.level - 1];
      round.num_units = best_num_units_[r];
      round.duration_ns = sr.duration_ns;
      round.failure_probability = sr.failure_probability;
      round.output_error_rate = sr.output_error_rate;
      round.physical_qubits_per_unit = sr.qubits_per_unit;
      round.physical_qubits = round.num_units * round.physical_qubits_per_unit;
      factory.physical_qubits = std::max(factory.physical_qubits, round.physical_qubits);
      factory.duration_ns += round.duration_ns;
      factory.rounds.push_back(std::move(round));
    }
    factory.output_error_rate = rounds.back().output_error_rate;
    factory.tstates_per_invocation = best_tstates_;
    return factory;
  }

  double required_;
  const QubitParams& qubit_;
  const std::vector<DistillationUnit>& units_;
  const TFactoryOptions& options_;

  std::vector<std::uint64_t> distances_;
  std::vector<double> logical_clifford_error_;
  std::vector<double> cycle_ns_;
  std::vector<UnitLevels> levels_;
  double physical_clifford_error_ = 0.0;
  double physical_readout_error_ = 0.0;
  double max_output_ts_ = 0.0;

  std::unordered_map<RoundEvalKey, RoundEval, RoundEvalKeyHash> eval_memo_;

  std::vector<SearchRound> stack_;
  std::vector<std::uint64_t> num_units_;

  std::optional<std::vector<SearchRound>> best_rounds_;
  std::vector<std::uint64_t> best_num_units_;
  std::uint64_t best_qubits_ = 0;
  double best_duration_ = 0.0;
  double best_volume_ = 0.0;
  double best_tstates_ = 0.0;
};

bool exhaustive_search_forced() {
  const char* env = std::getenv("QRE_EXHAUSTIVE_SEARCH");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

}  // namespace

std::optional<TFactory> design_tfactory(double required_output_error, const QubitParams& qubit,
                                        const QecScheme& scheme,
                                        const std::vector<DistillationUnit>& units,
                                        const TFactoryOptions& options) {
  QRE_TRACE_SPAN("tfactory.search");
  QRE_REQUIRE(required_output_error > 0.0, "required T-state error rate must be positive");
  if (qubit.t_gate_error_rate <= required_output_error) {
    TFactory raw;
    raw.input_t_error_rate = qubit.t_gate_error_rate;
    raw.output_error_rate = qubit.t_gate_error_rate;
    raw.tstates_per_invocation = 1.0;
    return raw;
  }
  QRE_REQUIRE(!units.empty(), "T-factory design requires at least one distillation unit");

  if (options.exhaustive || exhaustive_search_forced()) {
    std::optional<TFactory> best;
    std::vector<RoundChoice> current;
    enumerate(current, options.max_rounds, options.min_code_distance, units, options,
              [&](const std::vector<RoundChoice>& choices) {
                std::optional<TFactory> candidate =
                    evaluate_pipeline(choices, required_output_error, qubit, scheme, options);
                if (candidate.has_value() &&
                    (!best.has_value() || better_factory(*candidate, *best, options))) {
                  best = std::move(candidate);
                }
              });
    return best;
  }

  return PrunedSearch(required_output_error, qubit, scheme, units, options).run();
}

std::vector<TFactory> tfactory_pareto_frontier(double required_output_error,
                                               const QubitParams& qubit,
                                               const QecScheme& scheme,
                                               const std::vector<DistillationUnit>& units,
                                               const TFactoryOptions& options) {
  std::vector<TFactory> feasible;
  std::vector<RoundChoice> current;
  enumerate(current, options.max_rounds, options.min_code_distance, units, options,
            [&](const std::vector<RoundChoice>& choices) {
              std::optional<TFactory> candidate =
                  evaluate_pipeline(choices, required_output_error, qubit, scheme, options);
              if (candidate.has_value()) feasible.push_back(std::move(*candidate));
            });
  // Pareto filter on (physical_qubits, duration).
  std::sort(feasible.begin(), feasible.end(), [](const TFactory& a, const TFactory& b) {
    if (a.physical_qubits != b.physical_qubits) return a.physical_qubits < b.physical_qubits;
    return a.duration_ns < b.duration_ns;
  });
  std::vector<TFactory> frontier;
  double best_duration = std::numeric_limits<double>::infinity();
  for (TFactory& f : feasible) {
    if (f.duration_ns < best_duration) {
      best_duration = f.duration_ns;
      frontier.push_back(std::move(f));
    }
  }
  return frontier;
}

}  // namespace qre
