/**
 * @file
 * SplitMix64-based deterministic RNG implementation.
 */

#include "simcore/rng.hh"

#include <cmath>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

/** One SplitMix64 step: advance state and mix to an output. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a hash of a string, used to derive child-stream seeds. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : state_(seed)
{
    // Warm up so that small seeds (0, 1, 2...) diverge immediately.
    splitmix64(state_);
}

Rng
Rng::split(const std::string &tag) const
{
    std::uint64_t s = state_;
    std::uint64_t mixed = splitmix64(s) ^ fnv1a(tag);
    return Rng(mixed);
}

std::uint64_t
Rng::nextU64()
{
    return splitmix64(state_);
}

double
Rng::uniform()
{
    // 53 random bits into the double mantissa -> [0, 1).
    return (nextU64() >> 11) * (1.0 / 9007199254740992.0);
}

double
Rng::uniform(double lo, double hi)
{
    QOSERVE_ASSERT(lo <= hi, "uniform bounds inverted");
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    QOSERVE_ASSERT(lo <= hi, "uniformInt bounds inverted");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextU64() % span);
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = uniform();
    double u2 = uniform();
    // Guard against log(0).
    if (u1 <= 1e-300)
        u1 = 1e-300;
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    hasSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::exponential(double rate)
{
    QOSERVE_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = uniform();
    if (u <= 1e-300)
        u = 1e-300;
    return -std::log(u) / rate;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

} // namespace qoserve
