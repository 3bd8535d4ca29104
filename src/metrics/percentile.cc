/**
 * @file
 * Percentile implementation.
 */

#include "metrics/percentile.hh"

#include <algorithm>
#include <cstddef>

#include "core/check_level.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

/** Where percentile @p p falls in a sorted sample of @p n >= 2. */
struct PercentileRank
{
    std::size_t lo = 0; ///< Lower neighbour's index.
    std::size_t hi = 0; ///< Upper neighbour's index.
    double frac = 0.0;  ///< Weight of the upper neighbour.
};

PercentileRank
percentileRank(std::size_t n, double p)
{
    double pos = (p / 100.0) * static_cast<double>(n - 1);
    PercentileRank r;
    r.lo = static_cast<std::size_t>(pos);
    r.hi = std::min(r.lo + 1, n - 1);
    r.frac = pos - static_cast<double>(r.lo);
    return r;
}

/**
 * The percentile between the neighbours @p lo and @p hi. An exact
 * rank returns its sample: interpolating would compute inf * 0 = NaN
 * beside an infinite (never-served) neighbour.
 */
double
interpolate(double lo, double hi, double frac)
{
    if (frac == 0.0)
        return lo;
    return lo * (1.0 - frac) + hi * frac;
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    QOSERVE_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if constexpr (audit::fullChecks()) {
        QOSERVE_ASSERT(
            std::is_sorted(sorted.begin(), sorted.end()),
            "percentileSorted fed an unsorted sample of size ",
            sorted.size());
    }
    // Degenerate-sample sentinels (documented in the header, shared
    // with percentile() and QuantileSketch::quantile): empty -> 0.0,
    // single element -> that element, for every p.
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    PercentileRank r = percentileRank(sorted.size(), p);
    return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

void
selectPercentiles(std::vector<double> &values, std::span<const double> ps,
                  std::span<double> out)
{
    QOSERVE_ASSERT(ps.size() == out.size(),
                   "one output per percentile");
    // Everything before `placed` is <= everything from it on, so a
    // later (higher) rank only has to be selected among the rest.
    std::size_t placed = 0;
    double prev = 0.0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double p = ps[i];
        QOSERVE_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
        QOSERVE_ASSERT(p >= prev, "percentiles must ascend");
        prev = p;
        // The sentinels of percentileSorted.
        if (values.size() < 2) {
            out[i] = values.empty() ? 0.0 : values.front();
            continue;
        }
        PercentileRank r = percentileRank(values.size(), p);
        auto lo = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
        std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(
                                              placed),
                         lo, values.end());
        placed = r.lo;
        // After the selection every element past lo is >= *lo, so
        // the upper neighbour is the least of them. (min_element does
        // not reorder, so `placed` stays valid.)
        double hi = r.hi == r.lo ? *lo
                                 : *std::min_element(lo + 1, values.end());
        out[i] = interpolate(*lo, hi, r.frac);
    }
}

double
percentile(std::vector<double> values, double p)
{
    double out = 0.0;
    selectPercentiles(values, {&p, 1}, {&out, 1});
    return out;
}

} // namespace qoserve
