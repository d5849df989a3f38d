#include "sim/synth.h"

#include <algorithm>
#include <bit>
#include <compare>

#include "util/error.h"

namespace psnt::sim {

namespace {

Net& reduce_tree(Simulator& sim, const std::string& name,
                 std::vector<Net*> nets, Picoseconds gate_delay, bool is_and) {
  PSNT_CHECK(!nets.empty(), "cannot reduce an empty net list");
  std::size_t level = 0;
  while (nets.size() > 1) {
    std::vector<Net*> next;
    next.reserve((nets.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < nets.size(); i += 2) {
      Net& y = sim.net(name + ".l" + std::to_string(level) + "_" +
                       std::to_string(i / 2));
      const std::string gate_name =
          name + (is_and ? ".and" : ".or") + std::to_string(level) + "_" +
          std::to_string(i / 2);
      if (is_and) {
        sim.add<And2Gate>(gate_name, *nets[i], *nets[i + 1], y, gate_delay);
      } else {
        sim.add<Or2Gate>(gate_name, *nets[i], *nets[i + 1], y, gate_delay);
      }
      next.push_back(&y);
    }
    if (nets.size() % 2 == 1) next.push_back(nets.back());
    nets = std::move(next);
    ++level;
  }
  return *nets.front();
}

// A product term over the synthesizer's inputs: input i is a literal iff bit
// i of `care` is set, positive iff bit i of `value` is; `value` has no bits
// outside `care`.
struct Cube {
  std::uint32_t value;
  std::uint32_t care;

  [[nodiscard]] bool covers(std::uint32_t minterm) const {
    return (minterm & care) == value;
  }
  friend auto operator<=>(const Cube&, const Cube&) = default;
};

// Quine–McCluskey: repeatedly merge cube pairs that differ in one cared-for
// bit; a cube that merges with nothing is a prime implicant. `on_set` is
// sorted and unique. Returns the primes sorted by (value, care).
std::vector<Cube> prime_implicants(const std::vector<std::uint32_t>& on_set,
                                   std::uint32_t full_care) {
  std::vector<Cube> level;
  level.reserve(on_set.size());
  for (const std::uint32_t m : on_set) level.push_back({m, full_care});
  std::vector<Cube> primes;
  while (!level.empty()) {
    std::vector<bool> merged(level.size(), false);
    std::vector<Cube> next;
    for (std::size_t i = 0; i < level.size(); ++i) {
      const Cube c = level[i];
      // Partner: same care mask, one more cared-for bit set to 1.
      for (std::uint32_t zeros = c.care & ~c.value; zeros != 0;
           zeros &= zeros - 1) {
        const std::uint32_t bit = zeros & (0u - zeros);
        const Cube partner{c.value | bit, c.care};
        const auto it = std::lower_bound(level.begin(), level.end(), partner);
        if (it == level.end() || *it != partner) continue;
        merged[i] = true;
        merged[static_cast<std::size_t>(it - level.begin())] = true;
        next.push_back({c.value, c.care & ~bit});
      }
    }
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (!merged[i]) primes.push_back(level[i]);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    level = std::move(next);
  }
  std::sort(primes.begin(), primes.end());
  return primes;
}

// Deterministic cover: every essential prime (the sole cover of some
// minterm), then greedily the prime covering the most uncovered minterms;
// ties go to fewer literals, then to the lower (value, care).
std::vector<Cube> select_cover(const std::vector<Cube>& primes,
                               const std::vector<std::uint32_t>& on_set) {
  std::vector<bool> covered(on_set.size(), false);
  std::vector<bool> chosen(primes.size(), false);
  std::vector<Cube> cover;
  const auto take = [&](std::size_t p) {
    chosen[p] = true;
    cover.push_back(primes[p]);
    for (std::size_t k = 0; k < on_set.size(); ++k) {
      if (primes[p].covers(on_set[k])) covered[k] = true;
    }
  };
  for (std::size_t k = 0; k < on_set.size(); ++k) {
    if (covered[k]) continue;
    std::size_t coverers = 0;
    std::size_t sole = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (primes[p].covers(on_set[k])) {
        ++coverers;
        sole = p;
      }
    }
    if (coverers == 1) take(sole);
  }
  for (;;) {
    std::size_t best = primes.size();
    std::size_t best_gain = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (chosen[p]) continue;
      std::size_t gain = 0;
      for (std::size_t k = 0; k < on_set.size(); ++k) {
        if (!covered[k] && primes[p].covers(on_set[k])) ++gain;
      }
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 &&
           std::popcount(primes[p].care) <
               std::popcount(primes[best].care))) {
        best = p;
        best_gain = gain;
      }
    }
    if (best == primes.size()) break;
    take(best);
  }
  return cover;
}

}  // namespace

Net& reduce_and(Simulator& sim, const std::string& name,
                std::vector<Net*> nets, Picoseconds gate_delay) {
  return reduce_tree(sim, name, std::move(nets), gate_delay, /*is_and=*/true);
}

Net& reduce_or(Simulator& sim, const std::string& name, std::vector<Net*> nets,
               Picoseconds gate_delay) {
  return reduce_tree(sim, name, std::move(nets), gate_delay, /*is_and=*/false);
}

SopSynthesizer::SopSynthesizer(Simulator& sim, std::string scope,
                               std::vector<Net*> inputs, SynthOptions options)
    : sim_(sim),
      scope_(std::move(scope)),
      inputs_(std::move(inputs)),
      inverted_(inputs_.size(), nullptr),
      options_(options) {
  PSNT_CHECK(!inputs_.empty(), "SOP synthesis needs at least one input");
  PSNT_CHECK(inputs_.size() <= 20, "SOP input count is unreasonably large");
  for (Net* in : inputs_) PSNT_CHECK(in != nullptr, "null SOP input");
}

Net& SopSynthesizer::literal(std::size_t input, bool positive) {
  if (positive) return *inputs_[input];
  if (inverted_[input] == nullptr) {
    Net& n = sim_.net(scope_ + ".n" + std::to_string(input));
    sim_.add<InvGate>(scope_ + ".inv" + std::to_string(input),
                      *inputs_[input], n, options_.inv_delay);
    ++gates_built_;
    inverted_[input] = &n;
  }
  return *inverted_[input];
}

Net& SopSynthesizer::synthesize(const std::string& name,
                                const std::vector<std::uint32_t>& minterms) {
  const std::string scoped = scope_ + "." + name;
  const auto domain = 1u << inputs_.size();

  std::vector<std::uint32_t> on_set = minterms;
  std::sort(on_set.begin(), on_set.end());
  PSNT_CHECK(on_set.empty() || on_set.back() < domain,
             "minterm outside the input domain");
  PSNT_CHECK(std::adjacent_find(on_set.begin(), on_set.end()) == on_set.end(),
             "duplicate minterm");

  // Constant cases: tie nets driven at elaboration.
  if (on_set.empty()) {
    Net& lo = sim_.net(scoped + ".tie0");
    sim_.drive(lo, Picoseconds{0.0}, Logic::L0);
    return lo;
  }
  if (on_set.size() == domain) {
    Net& hi = sim_.net(scoped + ".tie1");
    sim_.drive(hi, Picoseconds{0.0}, Logic::L1);
    return hi;
  }

  std::vector<Net*> products;
  for (const Cube& cube :
       select_cover(prime_implicants(on_set, domain - 1), on_set)) {
    std::vector<Net*> lits;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if ((cube.care >> i) & 1u) {
        lits.push_back(&literal(i, (cube.value >> i) & 1u));
      }
    }
    gates_built_ += lits.size() - 1;
    products.push_back(&reduce_and(
        sim_,
        scoped + ".p" + std::to_string(cube.value) + "_" +
            std::to_string(cube.care),
        std::move(lits), options_.and_delay));
  }
  gates_built_ += products.size() - 1;
  return reduce_or(sim_, scoped + ".sum", std::move(products),
                   options_.or_delay);
}

}  // namespace psnt::sim
