#include "core/moves.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace goc {

std::string Move::to_string() const {
  std::ostringstream os;
  os << miner.to_string() << ": " << from.to_string() << " -> "
     << to.to_string() << " (+" << gain.to_string() << ")";
  return os.str();
}

Rational move_gain(const Game& game, const Configuration& s, MinerId p,
                   CoinId c) {
  return game.payoff_if_move(s, p, c) - game.payoff(s, p);
}

bool is_better_response(const Game& game, const Configuration& s, MinerId p,
                        CoinId c) {
  if (s.of(p) == c) return false;
  if (!game.can_mine(p, c)) return false;
  return game.payoff_if_move(s, p, c) > game.payoff(s, p);
}

std::vector<CoinId> better_responses(const Game& game, const Configuration& s,
                                     MinerId p) {
  std::vector<CoinId> out;
  const Rational current = game.payoff(s, p);
  const CoinId here = s.of(p);
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    const CoinId coin(c);
    if (coin == here) continue;
    if (!game.can_mine(p, coin)) continue;
    if (game.payoff_if_move(s, p, coin) > current) out.push_back(coin);
  }
  return out;
}

std::optional<CoinId> best_response(const Game& game, const Configuration& s,
                                    MinerId p) {
  const Rational current = game.payoff(s, p);
  const CoinId here = s.of(p);
  std::optional<CoinId> best;
  Rational best_payoff = current;
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    const CoinId coin(c);
    if (coin == here) continue;
    if (!game.can_mine(p, coin)) continue;
    const Rational after = game.payoff_if_move(s, p, coin);
    if (after > best_payoff) {
      best_payoff = after;
      best = coin;
    }
  }
  return best;
}

bool is_stable(const Game& game, const Configuration& s, MinerId p) {
  const Rational current = game.payoff(s, p);
  const CoinId here = s.of(p);
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    const CoinId coin(c);
    if (coin == here) continue;
    if (!game.can_mine(p, coin)) continue;
    if (game.payoff_if_move(s, p, coin) > current) return false;
  }
  return true;
}

bool is_equilibrium(const Game& game, const Configuration& s) {
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    if (!is_stable(game, s, MinerId(p))) return false;
  }
  return true;
}

bool is_epsilon_stable(const Game& game, const Configuration& s, MinerId p,
                       const Rational& epsilon) {
  GOC_CHECK_ARG(!epsilon.is_negative(), "epsilon must be nonnegative");
  const Rational current = game.payoff(s, p);
  const Rational threshold = current + current * epsilon;
  const CoinId here = s.of(p);
  for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
    const CoinId coin(c);
    if (coin == here) continue;
    if (!game.can_mine(p, coin)) continue;
    if (game.payoff_if_move(s, p, coin) > threshold) return false;
  }
  return true;
}

bool is_epsilon_equilibrium(const Game& game, const Configuration& s,
                            const Rational& epsilon) {
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    if (!is_epsilon_stable(game, s, MinerId(p), epsilon)) return false;
  }
  return true;
}

std::vector<Move> all_better_response_moves(const Game& game,
                                            const Configuration& s) {
  std::vector<Move> out;
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    const MinerId miner(p);
    const Rational current = game.payoff(s, miner);
    const CoinId here = s.of(miner);
    for (std::uint32_t c = 0; c < game.num_coins(); ++c) {
      const CoinId coin(c);
      if (coin == here) continue;
      if (!game.can_mine(miner, coin)) continue;
      const Rational after = game.payoff_if_move(s, miner, coin);
      if (after > current) {
        out.push_back(Move{miner, here, coin, after - current});
      }
    }
  }
  return out;
}

}  // namespace goc
