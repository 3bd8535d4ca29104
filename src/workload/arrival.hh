/**
 * @file
 * Request arrival processes.
 *
 * The paper generates arrivals from a Poisson process at a target QPS
 * (§4, following Sarathi methodology), and evaluates transient
 * overload with a diurnal square-wave QPS pattern alternating between
 * a low and a high rate every 15 minutes (§4.3, Fig. 12a). Both are
 * provided, plus a single-burst process used for the Fig. 1 overload
 * illustration.
 */

#ifndef QOSERVE_WORKLOAD_ARRIVAL_HH
#define QOSERVE_WORKLOAD_ARRIVAL_HH

#include <memory>

#include "simcore/rng.hh"
#include "simcore/time.hh"

namespace qoserve {

/**
 * Generator of successive arrival timestamps.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /**
     * Time of the next arrival strictly after @p prev.
     *
     * @param prev Previous arrival time (0 for the first call).
     * @param rng Random stream to draw from.
     */
    virtual SimTime nextArrival(SimTime prev, Rng &rng) const = 0;

    /** Long-run average arrival rate in requests/second. */
    virtual double averageQps() const = 0;
};

/** Homogeneous Poisson arrivals at a fixed QPS. */
class PoissonArrivals : public ArrivalProcess
{
  public:
    /** @param qps Arrival rate, requests per second. */
    explicit PoissonArrivals(double qps);

    SimTime nextArrival(SimTime prev, Rng &rng) const override;
    double averageQps() const override { return qps_; }

  private:
    double qps_;
};

/**
 * Square-wave diurnal pattern: alternates between lowQps and highQps
 * every halfPeriod seconds, Poisson within each phase.
 */
class DiurnalArrivals : public ArrivalProcess
{
  public:
    /**
     * @param low_qps Rate in the trough phase.
     * @param high_qps Rate in the peak phase.
     * @param half_period Seconds per phase (paper: 900 s).
     * @param start_high True to begin in the peak phase.
     */
    DiurnalArrivals(double low_qps, double high_qps,
                    SimDuration half_period, bool start_high = false);

    SimTime nextArrival(SimTime prev, Rng &rng) const override;
    double averageQps() const override;

    /** Instantaneous rate at time @p t. */
    double qpsAt(SimTime t) const;

  private:
    double lowQps_;
    double highQps_;
    SimDuration halfPeriod_;
    bool startHigh_;
};

/**
 * Baseline Poisson rate with one rectangular burst of elevated rate.
 */
class BurstArrivals : public ArrivalProcess
{
  public:
    /**
     * @param base_qps Rate outside the burst.
     * @param burst_qps Rate inside the burst window.
     * @param burst_start Burst window start time.
     * @param burst_end Burst window end time.
     */
    BurstArrivals(double base_qps, double burst_qps, SimTime burst_start,
                  SimTime burst_end);

    SimTime nextArrival(SimTime prev, Rng &rng) const override;
    double averageQps() const override { return baseQps_; }

    /** Instantaneous rate at time @p t. */
    double qpsAt(SimTime t) const;

  private:
    double baseQps_;
    double burstQps_;
    SimTime burstStart_;
    SimTime burstEnd_;
};

} // namespace qoserve

#endif // QOSERVE_WORKLOAD_ARRIVAL_HH
