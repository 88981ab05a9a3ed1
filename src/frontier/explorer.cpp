#include "frontier/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"

namespace qre::frontier {

const std::vector<std::string_view>& ExploreOptions::json_keys() {
  static const std::vector<std::string_view> kKeys = {
      "maxProbes",
      "qubitTolerance",
      "runtimeTolerance",
      "errorBudgets",
  };
  return kKeys;
}

std::optional<ExploreOptions> ExploreOptions::parse(const json::Value& v, std::string_view path,
                                                    Diagnostics& diags) {
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path), "frontier must be an object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(v, json_keys(), path, diags);
  ExploreOptions o;
  if (const std::optional<std::uint64_t> probes = expect_count(v, "maxProbes", path, diags)) {
    o.max_probes = static_cast<std::size_t>(*probes);
    if (o.max_probes < 2) {
      diags.error("value-range", pointer_join(path, "maxProbes"),
                  "'maxProbes' must be >= 2 (the frontier needs both bracket probes)");
    }
  }
  for (const auto& [key, member] : {std::pair{"qubitTolerance", &ExploreOptions::qubit_tolerance},
                                    std::pair{"runtimeTolerance",
                                              &ExploreOptions::runtime_tolerance}}) {
    if (const json::Value* t = expect(v, key, FieldKind::kNumber, path, diags)) {
      o.*member = t->as_double();
      if (o.*member < 0.0) {
        diags.error("value-range", pointer_join(path, key),
                    "'" + std::string(key) + "' must be >= 0");
      }
    }
  }
  if (const json::Value* budgets = expect(v, "errorBudgets", FieldKind::kArray, path, diags)) {
    const std::string budgets_path = pointer_join(path, "errorBudgets");
    if (budgets->as_array().empty()) {
      diags.error("value-range", budgets_path, "'errorBudgets' must not be empty");
    }
    for (std::size_t i = 0; i < budgets->as_array().size(); ++i) {
      const json::Value& budget = budgets->as_array()[i];
      if (!budget.is_number()) {
        diags.error("type-mismatch", pointer_join(budgets_path, i),
                    "error budget must be a number");
      } else if (!(budget.as_double() > 0.0 && budget.as_double() < 1.0)) {
        diags.error("value-range", pointer_join(budgets_path, i),
                    "error budget must be in (0, 1)");
      } else {
        o.error_budgets.push_back(budget.as_double());
      }
    }
    // Every budget level costs at least its bracketing probe; a tighter
    // probe budget would silently drop whole objective levels.
    if (budgets->as_array().size() > o.max_probes) {
      diags.error("value-range", budgets_path,
                  "'errorBudgets' has more levels than 'maxProbes' allows probes");
    }
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return o;
}

ExploreOptions ExploreOptions::from_json(const json::Value& v, Diagnostics* diags) {
  return parse_or_throw(diags, [&](Diagnostics& found) { return parse(v, "/frontier", found); });
}

namespace {

/// One executed probe, with its objectives when the estimate succeeded.
struct Probe {
  std::size_t budget_index = 0;
  std::uint64_t cap = 0;  // 0 = unconstrained (no maxTFactories override)
  bool ok = false;
  std::uint64_t physical_qubits = 0;
  double runtime_ns = 0.0;
  std::uint64_t num_t_factories = 0;
  json::Value record;  // the frontier-entry / streaming shape
};

/// A cap interval pending refinement. The endpoints are probes already
/// executed; hi_cap of the outermost interval is the unconstrained probe's
/// own factory count.
struct Interval {
  std::size_t budget_index = 0;
  std::uint64_t lo_cap = 0;
  std::uint64_t hi_cap = 0;
  std::size_t lo_probe = 0;
  std::size_t hi_probe = 0;
};

/// Pulls the objectives out of a probe's report document, materialized (a
/// runner's result is raw bytes; see api::run). A missing or
/// malformed section (an {"error": ...} entry from the batch runner, or a
/// synthetic runner returning junk) reports failure instead of throwing.
bool extract_objectives(const json::Value& result, Probe& probe) {
  if (!result.is_object() || result.find("error") != nullptr) return false;
  try {
    const json::Value& counts = result.at("physicalCounts");
    probe.physical_qubits = counts.at("physicalQubits").as_uint();
    probe.runtime_ns = counts.at("runtime").as_double();
    probe.num_t_factories =
        result.at("physicalCountsBreakdown").at("numTfactories").as_uint();
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::string probe_error_message(const json::Value& result) {
  if (result.is_object()) {
    if (const json::Value* error = result.find("error")) {
      if (const json::Value* message = error->find("message")) {
        if (message->is_string()) return message->as_string();
      }
    }
  }
  return "probe result carries no physicalCounts/physicalCountsBreakdown sections";
}

class Explorer {
 public:
  Explorer(const json::Value& job, const ExploreOptions& options,
           const service::JobRunner& runner, const service::EngineOptions& engine_options)
      : options_(options), runner_(runner), wave_options_(engine_options) {
    probe_sink_ = std::move(wave_options_.on_result);
    wave_options_.on_result = nullptr;

    // Probe documents must be plain single-estimate jobs: the exploration
    // section itself never reaches the runner.
    json::Object pruned;
    for (const auto& [key, value] : job.as_object()) {
      if (key != "frontier") pruned.emplace_back(key, value);
    }
    base_ = json::Value(std::move(pruned));

    if (options_.error_budgets.empty()) {
      budgets_.push_back(std::nullopt);
    } else {
      for (double budget : options_.error_budgets) budgets_.push_back(budget);
    }
  }

  json::Value run(ExploreStats* stats_out) {
    // Wave 1: the unconstrained estimate of every budget level brackets the
    // cap range from above and tells us the level's factory count.
    std::vector<std::pair<std::size_t, std::uint64_t>> wave;
    for (std::size_t level = 0; level < budgets_.size(); ++level) {
      if (wave.size() >= options_.max_probes) break;
      wave.push_back({level, 0});
    }
    const std::size_t first_unconstrained = run_wave(wave);

    // Wave 2: cap-1 brackets the range from below wherever a cap can bind.
    wave.clear();
    std::vector<std::size_t> hi_probe_for_wave;
    for (std::size_t i = first_unconstrained; i < probes_.size(); ++i) {
      if (stats_.num_probes + wave.size() >= options_.max_probes) break;
      if (probes_[i].ok && probes_[i].num_t_factories > 1) {
        wave.push_back({probes_[i].budget_index, 1});
        hi_probe_for_wave.push_back(i);
      }
    }
    std::deque<Interval> pending;
    if (!wave.empty()) {
      const std::size_t first_capped = run_wave(wave);
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const std::size_t hi_probe = hi_probe_for_wave[i];
        pending.push_back({wave[i].first, 1, probes_[hi_probe].num_t_factories,
                           first_capped + i, hi_probe});
      }
    }

    // Refinement waves: bisect every interval whose endpoints still differ
    // beyond tolerance in BOTH objectives (or straddle a feasibility
    // boundary), all levels batched together.
    while (!pending.empty() && stats_.num_probes < options_.max_probes) {
      wave.clear();
      std::vector<Interval> refining;
      while (!pending.empty()) {
        const Interval interval = pending.front();
        pending.pop_front();
        if (!needs_refinement(interval)) continue;
        const std::uint64_t mid =
            interval.lo_cap + (interval.hi_cap - interval.lo_cap) / 2;
        if (mid == interval.lo_cap || mid == interval.hi_cap) continue;
        if (stats_.num_probes + wave.size() >= options_.max_probes) continue;
        wave.push_back({interval.budget_index, mid});
        refining.push_back(interval);
      }
      if (wave.empty()) break;
      const std::size_t first_mid = run_wave(wave);
      for (std::size_t i = 0; i < refining.size(); ++i) {
        const Interval& interval = refining[i];
        const std::uint64_t mid = wave[i].second;
        pending.push_back({interval.budget_index, interval.lo_cap, mid,
                           interval.lo_probe, first_mid + i});
        pending.push_back({interval.budget_index, mid, interval.hi_cap, first_mid + i,
                           interval.hi_probe});
      }
    }

    json::Value out = collect();
    if (stats_out != nullptr) *stats_out = stats_;
    return out;
  }

 private:
  json::Value probe_document(std::size_t budget_index, std::uint64_t cap) const {
    json::Value doc = base_;
    if (budgets_[budget_index].has_value()) {
      doc.set("errorBudget", json::Value(*budgets_[budget_index]));
    }
    if (cap > 0) {
      json::Value constraints{json::Object{}};
      if (const json::Value* existing = doc.find("constraints")) {
        if (existing->is_object()) constraints = *existing;
      }
      constraints.set("maxTFactories", json::Value(cap));
      doc.set("constraints", std::move(constraints));
    }
    return doc;
  }

  /// The frontier-entry (and streaming) shape for one probe outcome:
  /// objectives read from `fields` (the materialized result), the result
  /// itself kept as it came (raw bytes are spliced, not rebuilt).
  json::Value make_record(std::size_t budget_index, std::uint64_t cap, const json::Value& result,
                          const json::Value& fields) const {
    json::Object record;
    if (cap > 0) record.emplace_back("maxTFactories", json::Value(cap));
    if (budgets_[budget_index].has_value()) {
      record.emplace_back("errorBudget", json::Value(*budgets_[budget_index]));
    }
    if (fields.is_object()) {
      if (const json::Value* counts = fields.find("physicalCounts")) {
        if (const json::Value* qubits = counts->find("physicalQubits")) {
          record.emplace_back("physicalQubits", *qubits);
        }
        if (const json::Value* runtime = counts->find("runtime")) {
          record.emplace_back("runtime", *runtime);
        }
      }
    }
    record.emplace_back("result", result);
    return json::Value(std::move(record));
  }

  /// Executes one wave of probes through the batch engine (shared cache,
  /// worker pool, per-item error isolation) and records the outcomes.
  /// Returns the global index of the wave's first probe.
  std::size_t run_wave(const std::vector<std::pair<std::size_t, std::uint64_t>>& wave) {
    // One trace span per wave; the wave's probes appear as the engine.item
    // spans of the run_batch call below.
    QRE_TRACE_SPAN("frontier.wave");
    // A cancelled exploration aborts between waves (partial probes are
    // discarded by api::run, which maps the throw onto the response
    // diagnostics); within a wave the engine skips remaining items itself.
    wave_options_.cancel.throw_if_cancelled("frontier exploration");
    std::vector<json::Value> items;
    items.reserve(wave.size());
    for (const auto& [level, cap] : wave) items.push_back(probe_document(level, cap));

    const std::size_t first = probes_.size();
    service::EngineOptions opts = wave_options_;
    if (probe_sink_) {
      opts.on_result = [this, first, &wave](std::size_t i, const json::Value& result) {
        probe_sink_(first + i,
                    make_record(wave[i].first, wave[i].second, result, result.materialize()));
      };
    }
    json::Array results = service::run_batch(items, runner_, opts, nullptr);
    ++stats_.num_waves;
    stats_.num_probes += wave.size();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      Probe probe;
      probe.budget_index = wave[i].first;
      probe.cap = wave[i].second;
      const json::Value fields = results[i].materialize();
      probe.ok = extract_objectives(fields, probe);
      if (!probe.ok) {
        ++stats_.num_failed_probes;
        if (stats_.first_error.empty()) {
          stats_.first_error = probe_error_message(fields);
        }
      }
      probe.record = make_record(probe.budget_index, probe.cap, results[i], fields);
      probes_.push_back(std::move(probe));
    }
    return first;
  }

  bool needs_refinement(const Interval& interval) const {
    if (interval.hi_cap - interval.lo_cap <= 1) return false;
    const Probe& lo = probes_[interval.lo_probe];
    const Probe& hi = probes_[interval.hi_probe];
    if (!lo.ok && !hi.ok) return false;
    // One infeasible endpoint: keep bisecting to localize the feasibility
    // boundary (e.g. the smallest cap that still meets a maxDuration).
    if (!lo.ok || !hi.ok) return true;
    const double lo_q = static_cast<double>(lo.physical_qubits);
    const double hi_q = static_cast<double>(hi.physical_qubits);
    const double qubit_gap =
        std::abs(hi_q - lo_q) / std::max(std::min(lo_q, hi_q), 1.0);
    const double lo_rt = lo.runtime_ns;
    const double hi_rt = hi.runtime_ns;
    const double runtime_gap =
        std::abs(hi_rt - lo_rt) / std::max(std::min(lo_rt, hi_rt), 1e-300);
    // Refinement only pays where the curve still moves in BOTH objectives:
    // a flat stretch in either dimension is already represented by its
    // better endpoint after the Pareto filter.
    return qubit_gap > options_.qubit_tolerance &&
           runtime_gap > options_.runtime_tolerance;
  }

  double budget_value(const Probe& probe) const {
    return budgets_[probe.budget_index].has_value() ? *budgets_[probe.budget_index] : 0.0;
  }

  /// Pareto-filters the successful probes over (error budget, runtime,
  /// physical qubits), all minimized, and assembles the result document.
  json::Value collect() {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (probes_[i].ok) order.push_back(i);
    }
    // Sorting by the objective triple guarantees every dominator precedes
    // what it dominates, so one forward pass filters exactly; submission
    // order breaks exact-objective ties deterministically.
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      const Probe& pa = probes_[a];
      const Probe& pb = probes_[b];
      if (budget_value(pa) != budget_value(pb)) return budget_value(pa) < budget_value(pb);
      if (pa.runtime_ns != pb.runtime_ns) return pa.runtime_ns < pb.runtime_ns;
      if (pa.physical_qubits != pb.physical_qubits) {
        return pa.physical_qubits < pb.physical_qubits;
      }
      return a < b;
    });
    std::vector<std::size_t> kept;
    for (std::size_t candidate : order) {
      const Probe& pc = probes_[candidate];
      bool dominated = false;
      for (std::size_t keeper : kept) {
        const Probe& pk = probes_[keeper];
        if (budget_value(pk) <= budget_value(pc) &&
            pk.physical_qubits <= pc.physical_qubits && pk.runtime_ns <= pc.runtime_ns) {
          dominated = true;  // dominated, or an exact-objective duplicate
          break;
        }
      }
      if (!dominated) kept.push_back(candidate);
    }
    stats_.num_points = kept.size();

    if (kept.empty()) {
      throw_error("frontier exploration failed: every probe was infeasible (first error: " +
                  stats_.first_error + ")");
    }

    json::Array points;
    points.reserve(kept.size());
    for (std::size_t keeper : kept) points.push_back(probes_[keeper].record);
    json::Object stats;
    stats.emplace_back("numProbes", json::Value(static_cast<std::uint64_t>(stats_.num_probes)));
    stats.emplace_back("numFailedProbes",
                       json::Value(static_cast<std::uint64_t>(stats_.num_failed_probes)));
    stats.emplace_back("numWaves", json::Value(static_cast<std::uint64_t>(stats_.num_waves)));
    stats.emplace_back("numPoints", json::Value(static_cast<std::uint64_t>(stats_.num_points)));
    stats.emplace_back("probeLimit",
                       json::Value(static_cast<std::uint64_t>(options_.max_probes)));
    stats.emplace_back("budgetLevels",
                       json::Value(static_cast<std::uint64_t>(budgets_.size())));
    json::Object out;
    out.emplace_back("frontier", json::Value(std::move(points)));
    out.emplace_back("frontierStats", json::Value(std::move(stats)));
    return json::Value(std::move(out));
  }

  const ExploreOptions& options_;
  const service::JobRunner& runner_;
  service::EngineOptions wave_options_;  // on_result moved into probe_sink_
  service::ResultSink probe_sink_;
  json::Value base_;                     // the job without its "frontier" section
  std::vector<std::optional<double>> budgets_;
  std::vector<Probe> probes_;
  ExploreStats stats_;
};

}  // namespace

json::Value explore(const json::Value& job, const ExploreOptions& options,
                    const service::JobRunner& runner,
                    const service::EngineOptions& engine_options, ExploreStats* stats) {
  QRE_REQUIRE(job.is_object(), "frontier exploration requires a JSON object job document");
  QRE_REQUIRE(options.max_probes >= 2, "frontier.maxProbes must be >= 2");
  Explorer explorer(job, options, runner, engine_options);
  return explorer.run(stats);
}

}  // namespace qre::frontier
