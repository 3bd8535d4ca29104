/**
 * @file
 * Percentile implementation.
 */

#include "metrics/percentile.hh"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "core/check_level.hh"
#include "simcore/logging.hh"

namespace qoserve {

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
    double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    // An exact rank returns its sample: interpolating would compute
    // inf * 0 = NaN beside an infinite (never-served) neighbour.
    if (frac == 0.0)
        return sorted[lo];
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, p);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

} // namespace qoserve
