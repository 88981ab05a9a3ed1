// Equivalence of the pruned branch-and-bound T-factory search with the
// brute-force enumeration, plus the process-level FactoryCache. The pruned
// search must return *bit-identical* factories — same pipeline, same
// doubles — across every preset qubit profile, every objective, and a grid
// of required error rates; anything weaker would let pruning change
// estimation results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "common/error.hpp"
#include "tfactory/factory_cache.hpp"
#include "tfactory/tfactory.hpp"

namespace qre {
namespace {

void expect_identical(const std::optional<TFactory>& pruned,
                      const std::optional<TFactory>& exhaustive, const std::string& label) {
  ASSERT_EQ(pruned.has_value(), exhaustive.has_value()) << label;
  if (!pruned.has_value()) return;
  const TFactory& a = *pruned;
  const TFactory& b = *exhaustive;
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    SCOPED_TRACE(label + ", round " + std::to_string(r));
    EXPECT_EQ(a.rounds[r].unit_name, b.rounds[r].unit_name);
    EXPECT_EQ(a.rounds[r].physical, b.rounds[r].physical);
    EXPECT_EQ(a.rounds[r].code_distance, b.rounds[r].code_distance);
    EXPECT_EQ(a.rounds[r].num_units, b.rounds[r].num_units);
    EXPECT_EQ(a.rounds[r].duration_ns, b.rounds[r].duration_ns);
    EXPECT_EQ(a.rounds[r].failure_probability, b.rounds[r].failure_probability);
    EXPECT_EQ(a.rounds[r].output_error_rate, b.rounds[r].output_error_rate);
    EXPECT_EQ(a.rounds[r].physical_qubits_per_unit, b.rounds[r].physical_qubits_per_unit);
    EXPECT_EQ(a.rounds[r].physical_qubits, b.rounds[r].physical_qubits);
  }
  EXPECT_EQ(a.physical_qubits, b.physical_qubits) << label;
  EXPECT_EQ(a.duration_ns, b.duration_ns) << label;
  EXPECT_EQ(a.input_t_error_rate, b.input_t_error_rate) << label;
  EXPECT_EQ(a.output_error_rate, b.output_error_rate) << label;
  EXPECT_EQ(a.tstates_per_invocation, b.tstates_per_invocation) << label;
}

TEST(TFactorySearch, PrunedMatchesBruteForceAcrossProfilesObjectivesAndTargets) {
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  const double targets[] = {1e-6, 1e-8, 1e-10, 1e-12, 1e-14};
  const TFactoryOptions::Objective objectives[] = {
      TFactoryOptions::Objective::kMinVolume, TFactoryOptions::Objective::kMinQubits,
      TFactoryOptions::Objective::kMinDuration};
  for (const std::string& profile : QubitParams::preset_names()) {
    QubitParams qubit = QubitParams::from_name(profile);
    QecScheme scheme = QecScheme::default_for(qubit.instruction_set);
    for (TFactoryOptions::Objective objective : objectives) {
      for (double target : targets) {
        TFactoryOptions pruned_options;
        pruned_options.objective = objective;
        TFactoryOptions exhaustive_options = pruned_options;
        exhaustive_options.exhaustive = true;
        std::string label = profile + ", objective " +
                            std::to_string(static_cast<int>(objective)) + ", target " +
                            std::to_string(target);
        expect_identical(design_tfactory(target, qubit, scheme, units, pruned_options),
                         design_tfactory(target, qubit, scheme, units, exhaustive_options),
                         label);
      }
    }
  }
}

TEST(TFactorySearch, EquivalenceHoldsUnderTightOptionLimits) {
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  for (std::uint64_t max_rounds : {1u, 2u}) {
    for (std::uint64_t max_distance : {5u, 11u}) {
      TFactoryOptions pruned_options;
      pruned_options.max_rounds = max_rounds;
      pruned_options.max_code_distance = max_distance;
      TFactoryOptions exhaustive_options = pruned_options;
      exhaustive_options.exhaustive = true;
      std::string label = "max_rounds " + std::to_string(max_rounds) + ", max_distance " +
                          std::to_string(max_distance);
      expect_identical(design_tfactory(1e-9, qubit, scheme, units, pruned_options),
                       design_tfactory(1e-9, qubit, scheme, units, exhaustive_options),
                       label);
    }
  }
}

TEST(TFactorySearch, ExhaustiveEnvVarForcesBruteForce) {
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  std::optional<TFactory> pruned = design_tfactory(1e-12, qubit, scheme, units);
  ASSERT_EQ(setenv("QRE_EXHAUSTIVE_SEARCH", "1", 1), 0);
  std::optional<TFactory> forced = design_tfactory(1e-12, qubit, scheme, units);
  unsetenv("QRE_EXHAUSTIVE_SEARCH");
  expect_identical(pruned, forced, "env-forced exhaustive");
}

// ------------------------------------------------------ FactoryCache -----

/// A shared design as the search returns it (nullptr: infeasible).
std::optional<TFactory> copy_of(const std::shared_ptr<const TFactory>& design) {
  if (design == nullptr) return std::nullopt;
  return *design;
}

TEST(FactoryCacheTest, RepeatedDesignsHitTheCache) {
  FactoryCache cache;
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  TFactoryOptions options;

  const auto first = cache.design_shared(1e-12, qubit, scheme, units, options);
  const auto second = cache.design_shared(1e-12, qubit, scheme, units, options);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second, first);  // a hit shares the design
  // The cached design equals a fresh search.
  expect_identical(copy_of(second), design_tfactory(1e-12, qubit, scheme, units, options),
                   "cache vs fresh");
}

TEST(FactoryCacheTest, DistinctProblemsMiss) {
  FactoryCache cache;
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  TFactoryOptions options;

  cache.design_shared(1e-12, qubit, scheme, units, options);
  cache.design_shared(1e-10, qubit, scheme, units, options);  // different target
  TFactoryOptions min_qubits = options;
  min_qubits.objective = TFactoryOptions::Objective::kMinQubits;
  cache.design_shared(1e-12, qubit, scheme, units, min_qubits);  // different objective
  QubitParams other = QubitParams::maj_ns_e6();
  cache.design_shared(1e-12, other, scheme, units, options);  // different qubit
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(FactoryCacheTest, LruEvictionBoundsTheCache) {
  FactoryCache cache(/*capacity=*/2);
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  TFactoryOptions options;

  cache.design_shared(1e-10, qubit, scheme, units, options);
  cache.design_shared(1e-11, qubit, scheme, units, options);
  cache.design_shared(1e-10, qubit, scheme, units, options);  // refresh 1e-10
  cache.design_shared(1e-12, qubit, scheme, units, options);  // evicts LRU (1e-11)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  std::uint64_t hits_before = cache.hits();
  cache.design_shared(1e-10, qubit, scheme, units, options);  // survived (recently used)
  EXPECT_EQ(cache.hits(), hits_before + 1);
  cache.design_shared(1e-11, qubit, scheme, units, options);  // evicted -> recomputed
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(FactoryCacheTest, InfeasibleDesignsAreCachedToo) {
  FactoryCache cache;
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  TFactoryOptions options;
  options.max_rounds = 1;  // cannot reach 1e-9 from 5e-2 in one round

  EXPECT_EQ(cache.design_shared(1e-9, qubit, scheme, units, options), nullptr);
  EXPECT_EQ(cache.design_shared(1e-9, qubit, scheme, units, options), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(FactoryCacheTest, DisabledCacheAlwaysSearches) {
  FactoryCache cache;
  cache.set_enabled(false);
  QubitParams qubit = QubitParams::maj_ns_e4();
  QecScheme scheme = QecScheme::floquet_code();
  const std::vector<DistillationUnit> units = DistillationUnit::default_units();
  std::optional<TFactory> f = copy_of(cache.design_shared(1e-12, qubit, scheme, units, {}));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  expect_identical(f, design_tfactory(1e-12, qubit, scheme, units, {}), "disabled cache");
}

}  // namespace
}  // namespace qre
