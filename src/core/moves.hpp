#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"

/// \file moves.hpp
/// Better-response analysis (Section 2): a move of miner p from s.p to c is
/// a *better response* iff it strictly increases p's payoff. A miner with
/// no better response is *stable*; a configuration where every miner is
/// stable is a pure equilibrium.
///
/// Everything here is computed from scratch with exact `Rational` payoffs,
/// O(|C|) per miner. The learning hot loop reads the same facts off
/// `dynamics::BestResponseIndex` (built on the `MoveComparator` fast path
/// in core/move_compare.hpp), and these scans double as its audit. The
/// brute-force scheduler and walker oracles the tests compare the library
/// against live in tests/oracle.

namespace goc {

/// One improvement step: `miner` moved `from → to`, gaining `gain > 0`.
struct Move {
  MinerId miner;
  CoinId from;
  CoinId to;
  Rational gain;

  std::string to_string() const;
};

/// u_p((s_{-p}, c)) − u_p(s); positive iff moving to c is a better response.
Rational move_gain(const Game& game, const Configuration& s, MinerId p, CoinId c);

/// Strict-improvement test (no move when c == s.p).
bool is_better_response(const Game& game, const Configuration& s, MinerId p,
                        CoinId c);

/// All coins that are better responses for p in s, in coin-id order.
std::vector<CoinId> better_responses(const Game& game, const Configuration& s,
                                     MinerId p);

/// The best response for p (maximum post-move payoff), or nullopt when p is
/// stable. Ties break toward the lowest coin id, making schedulers built on
/// this deterministic.
std::optional<CoinId> best_response(const Game& game, const Configuration& s,
                                    MinerId p);

/// True iff p has no better response in s.
bool is_stable(const Game& game, const Configuration& s, MinerId p);

/// True iff every miner is stable in s (pure equilibrium).
bool is_equilibrium(const Game& game, const Configuration& s);

/// Every better-response move available in s (the full improvement
/// neighborhood). Moves are ordered by (miner id, coin id).
std::vector<Move> all_better_response_moves(const Game& game,
                                            const Configuration& s);

/// ε-stability (relative): p has no move improving its payoff by more than
/// epsilon·u_p(s). With epsilon = 0 this is exact stability. Miners with
/// real switching costs stop at ε-equilibria long before the exact one —
/// the practical reading of the §6 convergence-speed question.
bool is_epsilon_stable(const Game& game, const Configuration& s, MinerId p,
                       const Rational& epsilon);

/// Every miner is ε-stable.
bool is_epsilon_equilibrium(const Game& game, const Configuration& s,
                            const Rational& epsilon);

}  // namespace goc
