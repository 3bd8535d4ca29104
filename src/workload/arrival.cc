/**
 * @file
 * Arrival process implementations.
 */

#include "workload/arrival.hh"

#include <cmath>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

/**
 * Sample the next event of a piecewise-constant-rate Poisson process.
 *
 * Draws an exponential gap at the current rate; if the candidate
 * arrival falls past the end of the current constant-rate segment,
 * restarts from the boundary (exact, by memorylessness).
 *
 * @param prev Start time.
 * @param rng Random stream.
 * @param rate_at Callable giving the rate at a time.
 * @param segment_end_after Callable giving the end of the
 *        constant-rate segment containing a time.
 */
template <typename RateFn, typename SegEndFn>
SimTime
nextPiecewisePoisson(SimTime prev, Rng &rng, RateFn rate_at,
                     SegEndFn segment_end_after)
{
    SimTime t = prev;
    for (int guard = 0; guard < 1000000; ++guard) {
        double rate = rate_at(t);
        QOSERVE_ASSERT(rate > 0.0, "arrival rate must be positive");
        SimTime candidate = t + rng.exponential(rate);
        SimTime seg_end = segment_end_after(t);
        if (candidate <= seg_end)
            return candidate;
        t = seg_end;
    }
    QOSERVE_PANIC("piecewise Poisson failed to converge");
}

} // namespace

PoissonArrivals::PoissonArrivals(double qps)
    : qps_(qps)
{
    QOSERVE_ASSERT(qps > 0.0, "QPS must be positive");
}

SimTime
PoissonArrivals::nextArrival(SimTime prev, Rng &rng) const
{
    return prev + rng.exponential(qps_);
}

DiurnalArrivals::DiurnalArrivals(double low_qps, double high_qps,
                                 SimDuration half_period, bool start_high)
    : lowQps_(low_qps), highQps_(high_qps), halfPeriod_(half_period),
      startHigh_(start_high)
{
    QOSERVE_ASSERT(low_qps > 0.0 && high_qps > 0.0, "rates must be positive");
    QOSERVE_ASSERT(half_period > 0.0, "half period must be positive");
}

double
DiurnalArrivals::qpsAt(SimTime t) const
{
    auto phase = static_cast<std::int64_t>(std::floor(t.seconds() / halfPeriod_));
    bool high = (phase % 2 == 0) == startHigh_;
    return high ? highQps_ : lowQps_;
}

double
DiurnalArrivals::averageQps() const
{
    return 0.5 * (lowQps_ + highQps_);
}

SimTime
DiurnalArrivals::nextArrival(SimTime prev, Rng &rng) const
{
    auto rate_at = [this](SimTime t) { return qpsAt(t); };
    auto seg_end = [this](SimTime t) {
        auto phase = static_cast<std::int64_t>(std::floor(t.seconds() / halfPeriod_));
        return SimTime((phase + 1) * halfPeriod_);
    };
    return nextPiecewisePoisson(prev, rng, rate_at, seg_end);
}

BurstArrivals::BurstArrivals(double base_qps, double burst_qps,
                             SimTime burst_start, SimTime burst_end)
    : baseQps_(base_qps), burstQps_(burst_qps), burstStart_(burst_start),
      burstEnd_(burst_end)
{
    QOSERVE_ASSERT(base_qps > 0.0 && burst_qps > 0.0,
                   "rates must be positive");
    QOSERVE_ASSERT(burst_start < burst_end, "empty burst window");
}

double
BurstArrivals::qpsAt(SimTime t) const
{
    return (t >= burstStart_ && t < burstEnd_) ? burstQps_ : baseQps_;
}

SimTime
BurstArrivals::nextArrival(SimTime prev, Rng &rng) const
{
    auto rate_at = [this](SimTime t) { return qpsAt(t); };
    auto seg_end = [this](SimTime t) {
        if (t < burstStart_)
            return burstStart_;
        if (t < burstEnd_)
            return burstEnd_;
        return kTimeNever;
    };
    return nextPiecewisePoisson(prev, rng, rate_at, seg_end);
}

} // namespace qoserve
