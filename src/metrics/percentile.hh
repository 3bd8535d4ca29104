/**
 * @file
 * Percentile and basic summary statistics.
 */

#ifndef QOSERVE_METRICS_PERCENTILE_HH
#define QOSERVE_METRICS_PERCENTILE_HH

#include <span>
#include <vector>

namespace qoserve {

/**
 * Interpolated percentile of a sample.
 *
 * Degenerate inputs follow one uniform sentinel convention shared
 * with percentileSorted (and QuantileSketch::quantile): an empty
 * sample returns 0.0 for every p, and a single-element sample
 * returns that element for every p. Callers therefore never need
 * emptiness guards of their own.
 *
 * @param values Sample (taken by value and reordered internally).
 * @param p Percentile in [0, 100] (panics otherwise).
 */
double percentile(std::vector<double> values, double p);

/**
 * Percentile of an already-sorted sample (no copy).
 *
 * Same sentinel convention as percentile(): empty -> 0.0, single
 * element -> that element, for every p. At QOSERVE_CHECK_LEVEL=full
 * the sortedness precondition itself is asserted.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/**
 * The percentiles @p ps of an unsorted sample, by selection instead
 * of a sort: one std::nth_element per percentile, each over the part
 * of @p values the previous one left unplaced, plus one min_element
 * for the upper interpolation neighbour. Linear time; @p values is
 * reordered. Each result equals percentileSorted(sorted values, p)
 * bit for bit (the same rank, fraction and exact-rank rule), as long
 * as the sample holds no NaN and no -0.0 beside a +0.0.
 *
 * @param ps Percentiles in ascending order, each in [0, 100].
 * @param out One result per entry of @p ps.
 */
void selectPercentiles(std::vector<double> &values,
                       std::span<const double> ps, std::span<double> out);

} // namespace qoserve

#endif // QOSERVE_METRICS_PERCENTILE_HH
