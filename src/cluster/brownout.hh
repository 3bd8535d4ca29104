/**
 * @file
 * Brownout controller: stepped graceful degradation under sustained
 * overload (DESIGN.md §13).
 *
 * Under a zone outage the surviving replicas absorb the whole load;
 * serving everything at full fidelity turns every queue into a
 * violation factory. The brownout controller watches the cluster's
 * prefill backlog on a fixed cadence and steps through increasingly
 * aggressive degraded modes instead:
 *
 *   level 0  Normal      full service
 *   level 1  CapTokens   cap decode tokens per request
 *   level 2  ShedLowTier additionally shed the lowest tier's arrivals
 *   level 3  BypassCache additionally bypass prefix-cache admission
 *
 * Each step trades a bounded, *chosen* quality loss for queue relief,
 * which is the difference between degrading and failing. Hysteresis —
 * distinct enter/exit thresholds and consecutive-sample requirements —
 * keeps the controller from oscillating at a threshold boundary.
 */

#ifndef QOSERVE_CLUSTER_BROWNOUT_HH
#define QOSERVE_CLUSTER_BROWNOUT_HH

#include <cstdint>

#include "cluster/cluster.hh"

namespace qoserve {

/** Degradation level the controller can sit at. */
enum class BrownoutMode
{
    Normal,      ///< Full service.
    CapTokens,   ///< Decode tokens capped per request.
    ShedLowTier, ///< + lowest tier shed unserved.
    BypassCache, ///< + prefix-cache admission bypassed.
};

/** Number of levels (the controller's step range). */
inline constexpr int kBrownoutModes =
    static_cast<int>(BrownoutMode::BypassCache) + 1;

/** Display name of a brownout level. */
const char *brownoutModeName(BrownoutMode mode);

/**
 * Brownout configuration. Disabled by default; a disabled controller
 * schedules nothing and a run is bit-identical to one without it.
 */
struct BrownoutConfig
{
    bool enabled = false;

    /** Sampling cadence, simulation seconds. */
    SimDuration interval = 1.0;

    /**
     * Mean pending prefill tokens per live replica above which the
     * controller steps one level deeper (after kEnterSamples
     * consecutive samples above it). Required positive when enabled.
     */
    double enterBacklog = 4096.0;

    /** Backlog below which it steps one level back (after
     *  kExitSamples consecutive samples below it); must be strictly
     *  below enterBacklog for the hysteresis band to exist. */
    double exitBacklog = 1024.0;

    /** Consecutive over-threshold samples before stepping deeper. */
    static constexpr int kEnterSamples = 3;

    /** Consecutive under-threshold samples before stepping back. */
    static constexpr int kExitSamples = 5;

    static_assert(kEnterSamples >= 1 && kExitSamples >= 1,
                  "brownout sample counts must be at least one");

    /** Decode-token cap applied at level >= 1. */
    int capTokens = 128;

    /** Tier shed at level >= 2 (-1 = the last tier of the table,
     *  by convention the lowest priority). */
    int shedTier = -1;
};

/**
 * Watches a ClusterSim's prefill backlog and applies DegradedModes.
 *
 * Construct after the cluster's replica groups exist, call start()
 * before run(); must outlive the run. Follows the MetricsSampler
 * discipline: the cadence reschedules only while other work is
 * pending, so the controller observes the simulation but never
 * extends it.
 */
class BrownoutController
{
  public:
    /**
     * @param cfg Thresholds and cadence. Fatal (user error) on a
     *        degenerate combination: non-positive interval or cap,
     *        an empty hysteresis band, or a shed tier outside the
     *        cluster's tier table.
     * @param cluster Target cluster; must already have its replicas.
     */
    BrownoutController(const BrownoutConfig &cfg, ClusterSim &cluster);

    BrownoutController(const BrownoutController &) = delete;
    BrownoutController &operator=(const BrownoutController &) = delete;

    /** Schedule the first sample (no-op when disabled). */
    void start();

    /** Current degradation level, 0 (Normal) .. 3 (BypassCache). */
    int level() const { return level_; }

    /** Deepest level reached so far. */
    int maxLevel() const { return maxLevel_; }

    /** Level changes applied (both directions). */
    std::uint64_t steps() const { return steps_; }

    /** The degraded modes in force at @p level. */
    DegradedModes modesFor(int level) const;

    /** Mean pending prefill tokens per live replica right now (the
     *  controller's input signal; exposed for gauges and tests). */
    double backlogPerReplica() const;

  private:
    void fire();
    void stepTo(int level);

    BrownoutConfig cfg_;
    ClusterSim &cluster_;

    /** Resolved shed tier (cfg_.shedTier, or the table's last). */
    int shedTier_ = -1;

    int level_ = 0;
    int maxLevel_ = 0;
    std::uint64_t steps_ = 0;
    int overCount_ = 0;
    int underCount_ = 0;
};

} // namespace qoserve

#endif // QOSERVE_CLUSTER_BROWNOUT_HH
