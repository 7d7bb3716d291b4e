#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "equilibrium/assumptions.hpp"
#include "equilibrium/enumerate.hpp"
#include "int64_bound_games.hpp"
#include "obs/registry.hpp"
#include "oracle/oracle.hpp"
#include "potential/exact_potential.hpp"

namespace goc {
namespace {

using oracle::for_each_configuration;

EnumerationOptions opts_with(std::size_t threads, bool symmetry) {
  EnumerationOptions opts;
  opts.threads = threads;
  opts.symmetry = symmetry;
  if (threads > 1) {
    // Force the sharded parallel path even for the tiny test spaces the
    // scheduling heuristics would otherwise run serially — these tests
    // exist to prove shard concatenation is order-exact.
    opts.serial_cutoff = 0;
    opts.min_shard_configs = 1;
  }
  return opts;
}

/// Options bound to a real worker pool: an explicit pool bypasses the
/// hardware-lane cap, so the multi-lane machinery runs even on 1-core CI
/// boxes. Keep the instance alive for as long as the options are used.
struct ParallelOpts {
  engine::ThreadPool pool;
  EnumerationOptions opts;

  ParallelOpts(std::size_t lanes, bool symmetry)
      : pool(engine::ThreadPool::workers_for(lanes)),
        opts(opts_with(lanes, symmetry)) {
    opts.pool = &pool;
  }
};

/// A spread of game shapes covering the orbit structure the engine
/// exploits: all-distinct powers (trivial classes), all-equal (one big
/// class), duplicated powers (mixed classes), skewed rewards, and
/// restricted access (classes must split on access rows).
std::vector<Game> golden_games() {
  std::vector<Game> games;
  games.push_back(Game(System::from_integer_powers({7, 4, 2, 1}, 3),
                       RewardFunction::from_integers({9, 5, 3})));
  games.push_back(Game(System::from_integer_powers({3, 3, 3, 3, 3}, 2),
                       RewardFunction::from_integers({10, 7})));
  games.push_back(Game(System::from_integer_powers({5, 2, 2, 2, 1}, 3),
                       RewardFunction::from_integers({100, 40, 1})));
  games.push_back(Game(System::from_integer_powers({6, 6, 1, 1}, 2),
                       RewardFunction::from_integers({1000, 3})));
  {
    // Equal powers but split access rows: {p0, p1} may mine everything,
    // {p2, p3} only coin 0 — interchangeability must respect access.
    AccessPolicy access({{true, true}, {true, true}, {true, false}, {true, false}});
    games.push_back(Game(System::from_integer_powers({2, 2, 2, 2}, 2),
                         RewardFunction::from_integers({8, 5}), access));
  }
  {
    // Non-integer powers exercise the comparator's Rational fallback.
    games.push_back(Game(System({Rational(1, 2), Rational(1, 2), Rational(3, 4)}, 2),
                         RewardFunction::from_integers({4, 3})));
  }
  Rng rng(417);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    GameSpec spec;
    spec.num_miners = 5;
    spec.num_coins = 3;
    spec.power_lo = 1;
    spec.power_hi = 4;  // small range forces duplicate powers
    spec.reward_lo = 10;
    spec.reward_hi = 60;
    games.push_back(random_game(spec, rng));
  }
  return games;
}

// ------------------------------------------------------------ classes

TEST(SymmetryClasses, DistinctPowersAreTrivial) {
  Game g(System::from_integer_powers({5, 3, 1}, 2),
         RewardFunction::from_integers({2, 2}));
  const SymmetryClasses classes = symmetry_classes(g);
  EXPECT_TRUE(classes.trivial);
  EXPECT_EQ(classes.classes.size(), 3u);
  for (const std::int32_t next : classes.next_classmate) EXPECT_EQ(next, -1);
}

TEST(SymmetryClasses, EqualPowersGroupAcrossGaps) {
  Game g(System::from_integer_powers({3, 1, 3, 3}, 2),
         RewardFunction::from_integers({2, 2}));
  const SymmetryClasses classes = symmetry_classes(g);
  EXPECT_FALSE(classes.trivial);
  ASSERT_EQ(classes.classes.size(), 2u);
  EXPECT_EQ(classes.class_of[0], classes.class_of[2]);
  EXPECT_EQ(classes.class_of[0], classes.class_of[3]);
  EXPECT_NE(classes.class_of[0], classes.class_of[1]);
  // Chain 0 -> 2 -> 3 within the equal-power class.
  EXPECT_EQ(classes.next_classmate[0], 2);
  EXPECT_EQ(classes.next_classmate[2], 3);
  EXPECT_EQ(classes.next_classmate[3], -1);
  EXPECT_EQ(classes.next_classmate[1], -1);
}

TEST(SymmetryClasses, AccessRowsSplitEqualPowers) {
  AccessPolicy access({{true, true}, {true, false}});
  Game g(System::from_integer_powers({4, 4}, 2),
         RewardFunction::from_integers({2, 2}), access);
  const SymmetryClasses classes = symmetry_classes(g);
  EXPECT_TRUE(classes.trivial);
  EXPECT_EQ(classes.classes.size(), 2u);
}

TEST(SymmetryClasses, CanonicalCountMatchesWalk) {
  // 3 equal miners + 1 distinct over 2 coins: C(3+1,3)·C(1+1,1) = 4·2 = 8.
  Game g(System::from_integer_powers({3, 3, 3, 7}, 2),
         RewardFunction::from_integers({2, 5}));
  const SymmetryClasses classes = symmetry_classes(g);
  const auto count = canonical_count(g.system(), classes);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 8u);
  std::size_t visited = 0;
  walk_canonical_shard(g.system_ptr(), classes, g.num_miners(), {},
                       [&](const Configuration&) {
                         ++visited;
                         return true;
                       });
  EXPECT_EQ(visited, 8u);
}

// ------------------------------------------------------------ the walk

TEST(CanonicalWalk, MatchesLegacyOrderWithoutSymmetry) {
  auto system = std::make_shared<const System>(
      System::from_integer_powers({2, 2, 1}, 3));
  std::vector<std::vector<CoinId>> legacy;
  for_each_configuration(system, 100, [&](const Configuration& s) {
    legacy.push_back(s.assignment());
    return true;
  });
  std::vector<std::vector<CoinId>> engine;
  walk_canonical_shard(system, singleton_classes(3), 3, {},
                       [&](const Configuration& s) {
                         engine.push_back(s.assignment());
                         return true;
                       });
  EXPECT_EQ(engine, legacy);
}

TEST(CanonicalWalk, VisitsExactlyTheCanonicalRepresentatives) {
  Game g(System::from_integer_powers({2, 2, 2, 9}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::vector<std::vector<CoinId>> seen;
  walk_canonical_shard(g.system_ptr(), classes, 4, {},
                       [&](const Configuration& s) {
                         seen.push_back(s.assignment());
                         return true;
                       });
  const auto count = canonical_count(g.system(), classes);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(seen.size(), *count);
  // Distinct, and non-decreasing digits within the equal-power class.
  for (const auto& assignment : seen) {
    EXPECT_LE(assignment[0].value, assignment[1].value);
    EXPECT_LE(assignment[1].value, assignment[2].value);
  }
  std::sort(seen.begin(), seen.end(),
            [](const auto& a, const auto& b) {
              return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                  b.end());
            });
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

/// Replays `plan` through the rank-range walker and checks the shards
/// partition the canonical space exactly: start ranks are the running
/// prefix sum, each shard visits exactly `sizes[i]` configurations, and
/// the index-order concatenation reproduces the serial walk bit-for-bit.
void expect_plan_partitions(const Game& g, const SymmetryClasses& classes,
                            const ShardPlan& plan) {
  std::vector<std::vector<CoinId>> serial;
  walk_canonical_shard(g.system_ptr(), classes, g.num_miners(), {},
                       [&](const Configuration& s) {
                         serial.push_back(s.assignment());
                         return true;
                       });
  std::vector<std::vector<CoinId>> sharded;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    EXPECT_EQ(plan.start_ranks[i], total) << "shard " << i;
    std::uint64_t in_shard = 0;
    walk_canonical_range(g.system_ptr(), classes, plan.starts[i],
                         plan.sizes[i], [&](const Configuration& s) {
                           sharded.push_back(s.assignment());
                           ++in_shard;
                           return true;
                         });
    EXPECT_EQ(in_shard, plan.sizes[i]) << "shard " << i;
    total += in_shard;
  }
  EXPECT_EQ(sharded, serial);
}

TEST(ShardPlan, ShardsPartitionTheCanonicalSpace) {
  Game g(System::from_integer_powers({2, 2, 2, 9, 5}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  const ShardPlan plan = plan_shards(g.system(), classes, 8);
  ASSERT_GE(plan.sizes.size(), 8u);
  expect_plan_partitions(g, classes, plan);
}

TEST(ShardPlan, SplitsOversizedPrefixesOnUnbalancedLayouts) {
  // One giant symmetry class: 12 equal miners over 3 coins (canonical
  // space C(14,12) = 91). A pinned top digit caps the whole class's
  // non-decreasing run, so the all-2s prefix alone holds 55/91 ≈ 60% of
  // the space — exactly the layout that used to serialize one lane. Rank
  // splitting must bound every shard near the ideal even load.
  Game g(System::from_integer_powers({5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  ASSERT_EQ(classes.classes.size(), 1u);
  const auto canonical = canonical_count(g.system(), classes);
  ASSERT_TRUE(canonical.has_value());
  ASSERT_EQ(*canonical, 91u);  // C(12+2,12)

  const std::size_t target = 8;
  const ShardPlan plan = plan_shards(g.system(), classes, target);
  ASSERT_GE(plan.sizes.size(), target);
  const std::uint64_t ideal = (*canonical + target - 1) / target;
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    EXPECT_LE(plan.sizes[i], ideal) << "shard " << i;
  }
  expect_plan_partitions(g, classes, plan);
}

TEST(ShardPlan, CanonicalUnrankingMatchesWalkOrder) {
  Game g(System::from_integer_powers({2, 2, 7, 7, 3}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::uint64_t rank = 0;
  walk_canonical_shard(g.system_ptr(), classes, g.num_miners(), {},
                       [&](const Configuration& s) {
                         const auto digits =
                             canonical_digits_at_rank(g.system(), classes, rank);
                         for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
                           EXPECT_EQ(digits[p], s.of(MinerId(p)).value)
                               << "rank " << rank << " miner " << p;
                         }
                         ++rank;
                         return true;
                       });
}

TEST(Orbits, SizesPartitionTheFullSpace) {
  Game g(System::from_integer_powers({2, 2, 2, 9}, 3),
         RewardFunction::from_integers({4, 5, 6}));
  const SymmetryClasses classes = symmetry_classes(g);
  std::uint64_t covered = 0;
  walk_canonical_shard(g.system_ptr(), classes, 4, {},
                       [&](const Configuration& s) {
                         const auto orbit = expand_orbit(s, classes);
                         EXPECT_EQ(orbit.size(), orbit_size(s.assignment(), classes));
                         // Orbit members are distinct and share the canonical
                         // representative's per-class digit multiset.
                         for (const auto& member : orbit) {
                           for (std::uint32_t p = 0; p < 4; ++p) {
                             EXPECT_EQ(member.of(MinerId(p)) == s.of(MinerId(p)) ||
                                           classes.classes[classes.class_of[p]].size() > 1,
                                       true);
                           }
                         }
                         covered += orbit.size();
                         return true;
                       });
  EXPECT_EQ(covered, configuration_count(g.system()).value());
}

// ------------------------------------------------------------ equilibria

TEST(EnumerationEngine, GoldenEquilibriumSetsAcrossShapes) {
  for (const Game& g : golden_games()) {
    const auto reference = oracle::enumerate_equilibria_scan(g);
    ASSERT_FALSE(reference.empty());
    // Default path (serial, symmetry on), parallel, and symmetry-off must
    // all reproduce the reference exactly — order included.
    EXPECT_EQ(enumerate_equilibria(g), reference) << g.to_string();
    ParallelOpts sym(4, true);
    EXPECT_EQ(enumerate_equilibria(g, sym.opts), reference) << g.to_string();
    ParallelOpts nosym(4, false);
    EXPECT_EQ(enumerate_equilibria(g, nosym.opts), reference) << g.to_string();
  }
}

TEST(EnumerationEngine, ThreadCountInvariance) {
  for (const Game& g : golden_games()) {
    const auto serial = enumerate_equilibria(g, opts_with(1, true));
    for (const std::size_t threads : {2, 3, 8}) {
      ParallelOpts parallel(threads, true);
      EXPECT_EQ(enumerate_equilibria(g, parallel.opts), serial);
    }
  }
}

TEST(EnumerationEngine, CanonicalRepresentativesExpandToFullCount) {
  Game g(System::from_integer_powers({3, 3, 3, 3, 3}, 2),
         RewardFunction::from_integers({10, 7}));
  const auto canonical = enumerate_canonical_equilibria(g, opts_with(1, true));
  const auto full = oracle::enumerate_equilibria_scan(g);
  EXPECT_EQ(canonical.total(), full.size());
  // With 5 interchangeable miners the reduction is real: far fewer
  // representatives than equilibria.
  EXPECT_LT(canonical.representatives.size(), full.size());
  for (const auto& rep : canonical.representatives) {
    EXPECT_TRUE(is_equilibrium(g, rep));
  }
}

TEST(EnumerationEngine, RefusesHugeSpaces) {
  Game g(System::from_integer_powers(std::vector<std::int64_t>(40, 1), 10),
         RewardFunction::from_integers(std::vector<std::int64_t>(10, 1)));
  EXPECT_THROW(enumerate_equilibria(g), std::invalid_argument);
  EXPECT_THROW(has_exact_potential(g), std::invalid_argument);
}

// ------------------------------------------------------------ comparator

TEST(MoveComparatorChecks, EquilibriumAgreesWithScan) {
  for (const Game& g : golden_games()) {
    const MoveComparator cmp(g);
    std::size_t checked = 0;
    for_each_configuration(g.system_ptr(), 1u << 12, [&](const Configuration& s) {
      EXPECT_EQ(cmp.equilibrium(s), is_equilibrium(g, s)) << s.to_string();
      for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
        EXPECT_EQ(cmp.stable(s, MinerId(p)), is_stable(g, s, MinerId(p)));
      }
      return ++checked < 200;  // spot-check a prefix of the space
    });
  }
}

TEST(AccessTrackerTest, MatchesFromScratchScan) {
  AccessPolicy access({{true, false, true},
                       {true, true, false},
                       {false, true, true},
                       {true, true, true}});
  Game g(System::from_integer_powers({4, 3, 2, 1}, 3),
         RewardFunction::from_integers({5, 6, 7}), access);
  AccessTracker tracker(g);
  for_each_configuration(g.system_ptr(), 100, [&](const Configuration& s) {
    EXPECT_EQ(tracker.respects(s), g.respects_access(s)) << s.to_string();
    return true;
  });
}

// ------------------------------------------------------------ assumptions

TEST(NeverAloneEngine, AgreesWithScanAcrossShapes) {
  for (const Game& g : golden_games()) {
    const bool reference =
        oracle::find_never_alone_violation_scan(g).has_value();
    const auto engine = find_never_alone_violation(g);
    EXPECT_EQ(engine.has_value(), reference) << g.to_string();
    ParallelOpts sym(4, true);
    EXPECT_EQ(find_never_alone_violation(g, sym.opts).has_value(), reference);
    ParallelOpts nosym(2, false);
    EXPECT_EQ(find_never_alone_violation(g, nosym.opts).has_value(), reference);
    if (engine.has_value()) {
      // The witness is genuine: the per-configuration checker confirms it.
      EXPECT_EQ(never_alone_violation_at(g, engine->s), engine->coin);
    }
  }
}

TEST(NeverAloneEngine, WitnessIsThreadCountInvariant) {
  Game g(System::from_integer_powers({10, 10}, 2),
         RewardFunction::from_integers({1000, 1}));
  const auto serial = find_never_alone_violation(g, opts_with(1, true));
  ASSERT_TRUE(serial.has_value());
  for (const std::size_t threads : {2, 4, 8}) {
    ParallelOpts po(threads, true);
    const auto parallel = find_never_alone_violation(g, po.opts);
    ASSERT_TRUE(parallel.has_value());
    EXPECT_EQ(parallel->s, serial->s);
    EXPECT_EQ(parallel->coin, serial->coin);
  }
}

// ------------------------------------------------------------ int64 walk

/// Integer walks run by width, from the `enum.walks.*` counters.
struct WalkWidths {
  std::uint64_t int64;
  std::uint64_t i128;
};

WalkWidths walk_widths() {
  obs::Registry& registry = obs::Registry::instance();
  return {registry.counter("enum.walks.int64").total(),
          registry.counter("enum.walks.i128").total()};
}

void reset_walk_widths() {
  obs::Registry::instance().counter("enum.walks.int64").reset();
  obs::Registry::instance().counter("enum.walks.i128").reset();
}

TEST(IntegerWalkWidth, AgreesWithScansOnBothSidesOfTheBound) {
  // Just below the bound the walk and both predicates run on unchecked
  // int64; just above, on i128. Either way the canonical equilibria must
  // expand to exactly the scan's set, and the never-alone check must agree
  // with its scan — with the counters showing which width ran, once per
  // call.
  obs::set_enabled(true);
  Rng rng(613);
  for (const bool above : {false, true}) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t miners =
          4 + static_cast<std::size_t>(rng.next_below(3));
      const std::size_t coins =
          2 + static_cast<std::size_t>(rng.next_below(2));
      const Game g = testing::int64_bound_game(rng, miners, coins, above);
      ASSERT_EQ(MoveComparator(g).narrow_mode(), !above) << g.to_string();
      const auto scan = oracle::enumerate_equilibria_scan(g);

      reset_walk_widths();
      const CanonicalEquilibria canonical =
          enumerate_canonical_equilibria(g, EnumerationOptions());
      EXPECT_EQ(walk_widths().int64, above ? 0u : 1u);
      EXPECT_EQ(walk_widths().i128, above ? 1u : 0u);
      EXPECT_EQ(canonical.total(), scan.size()) << g.to_string();
      for (const Configuration& rep : canonical.representatives) {
        EXPECT_NE(std::find(scan.begin(), scan.end(), rep), scan.end())
            << rep.to_string();
      }
      ParallelOpts parallel(3, true);
      EXPECT_EQ(enumerate_equilibria(g, parallel.opts), scan) << g.to_string();

      reset_walk_widths();
      const auto witness = find_never_alone_violation(g);
      EXPECT_EQ(walk_widths().int64, above ? 0u : 1u);
      EXPECT_EQ(walk_widths().i128, above ? 1u : 0u);
      EXPECT_EQ(witness.has_value(),
                oracle::find_never_alone_violation_scan(g).has_value());
      if (witness.has_value()) {
        EXPECT_EQ(never_alone_violation_at(g, witness->s), witness->coin);
      }
    }
  }
}

TEST(IntegerWalkWidth, GeneratorGamesWalkOnInt64) {
  obs::set_enabled(true);
  for (const Game& g : golden_games()) {
    if (!MoveComparator(g).integer_mode() || !g.access().is_unrestricted()) {
      continue;  // these games never take the integer walk
    }
    reset_walk_widths();
    enumerate_canonical_equilibria(g, EnumerationOptions());
    find_never_alone_violation(g);
    EXPECT_EQ(walk_widths().int64, 2u) << g.to_string();
    EXPECT_EQ(walk_widths().i128, 0u) << g.to_string();
  }
}

// ------------------------------------------------------------ potential

TEST(ExactPotentialEngine, AgreesWithScanAcrossShapes) {
  for (const Game& g : golden_games()) {
    const bool reference = oracle::has_exact_potential_scan(g);
    EXPECT_EQ(has_exact_potential(g), reference) << g.to_string();
    ParallelOpts sym(4, true);
    EXPECT_EQ(has_exact_potential(g, sym.opts), reference);
    ParallelOpts nosym(2, false);
    EXPECT_EQ(has_exact_potential(g, nosym.opts), reference);
    EXPECT_EQ(find_nonzero_four_cycle(g).has_value(),
              oracle::find_nonzero_four_cycle_scan(g).has_value());
  }
}

TEST(ExactPotentialEngine, WitnessVerifiesAndIsThreadCountInvariant) {
  const Game g = proposition1_game();
  const auto serial = find_nonzero_four_cycle(g, 4096, opts_with(1, true));
  ASSERT_TRUE(serial.has_value());
  // The witness closes: recomputing its cycle sum from the base matches.
  const CoinId ap = serial->s2.of(serial->p);
  const CoinId bp = serial->s3.of(serial->q);
  EXPECT_EQ(four_cycle_sum(g, serial->s1, serial->p, ap, serial->q, bp),
            serial->cycle_sum);
  for (const std::size_t threads : {2, 4, 8}) {
    ParallelOpts po(threads, true);
    const auto parallel = find_nonzero_four_cycle(g, 4096, po.opts);
    ASSERT_TRUE(parallel.has_value());
    EXPECT_EQ(parallel->s1, serial->s1);
    EXPECT_EQ(parallel->p, serial->p);
    EXPECT_EQ(parallel->q, serial->q);
    EXPECT_EQ(parallel->cycle_sum, serial->cycle_sum);
  }
}

TEST(ExactPotentialEngine, BaseBudgetIsDeterministic) {
  Rng rng(57);
  GameSpec spec;
  spec.num_miners = 4;
  spec.num_coins = 2;
  spec.power_lo = 1;
  spec.power_hi = 9;
  spec.distinct_powers = true;
  const Game g = random_game(spec, rng);
  for (const std::uint64_t budget : {1ULL, 3ULL, 7ULL, 4096ULL}) {
    const auto serial = find_nonzero_four_cycle(g, budget, opts_with(1, true));
    for (const std::size_t threads : {2, 8}) {
      ParallelOpts po(threads, true);
      const auto parallel = find_nonzero_four_cycle(g, budget, po.opts);
      ASSERT_EQ(parallel.has_value(), serial.has_value()) << budget;
      if (serial.has_value()) {
        EXPECT_EQ(parallel->s1, serial->s1);
        EXPECT_EQ(parallel->cycle_sum, serial->cycle_sum);
      }
    }
  }
}

// ------------------------------------------------------------ sampling

TEST(SampleEquilibriaDedup, ManyAttemptsStayDistinct) {
  // A game with very few equilibria: heavy duplicate pressure on the
  // bucket index.
  Game g(System::from_integer_powers({2, 1}, 2),
         RewardFunction::from_integers({1, 1}));
  Rng rng(91);
  const auto sampled = sample_equilibria(g, rng, 64);
  ASSERT_FALSE(sampled.empty());
  EXPECT_LE(sampled.size(), 2u);
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    EXPECT_TRUE(is_equilibrium(g, sampled[i]));
    for (std::size_t j = i + 1; j < sampled.size(); ++j) {
      EXPECT_FALSE(sampled[i] == sampled[j]);
    }
  }
}

}  // namespace
}  // namespace goc
