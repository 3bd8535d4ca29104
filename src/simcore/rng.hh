/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * Every stochastic component (arrival processes, token-length sampling,
 * predictor noise) draws from an Rng seeded from a single root seed, so
 * a whole experiment is reproducible from one integer. Streams can be
 * split so that adding draws to one component does not perturb another.
 */

#ifndef QOSERVE_SIMCORE_RNG_HH
#define QOSERVE_SIMCORE_RNG_HH

#include <cstdint>
#include <string>

namespace qoserve {

/**
 * A splittable deterministic RNG.
 *
 * Internally uses the SplitMix64 generator: tiny state, excellent
 * statistical quality for simulation purposes, and trivially
 * splittable into independent sub-streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /**
     * Derive an independent child stream.
     *
     * The child's sequence is a deterministic function of this
     * stream's seed and @p tag, not of how many numbers have been
     * drawn so far, so components stay decoupled.
     *
     * @param tag Label identifying the child stream.
     * @return A new Rng with an independent sequence.
     */
    Rng split(const std::string &tag) const;

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Lognormal deviate parameterized by the underlying normal. */
    double lognormal(double mu, double sigma);

    /** Exponential deviate with the given rate (events per second). */
    double exponential(double rate);

    /** Bernoulli draw with probability @p p of returning true. */
    bool bernoulli(double p);

  private:
    std::uint64_t state_;
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace qoserve

#endif // QOSERVE_SIMCORE_RNG_HH
