/**
 * @file
 * Quantile sketch implementation and bank CSV round trip.
 */

#include "obs/quantile_sketch.hh"

#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

const char *const kSketchCsvHeader = "sketch,field,value";

} // namespace

QuantileSketch::QuantileSketch(double relative_error)
    : relativeError_(relative_error),
      gamma_((1.0 + relative_error) / (1.0 - relative_error)),
      logGamma_(std::log(gamma_)),
      min_(std::numeric_limits<double>::infinity()),
      maxFinite_(-std::numeric_limits<double>::infinity())
{
    QOSERVE_ASSERT(relative_error > 0.0 && relative_error < 1.0,
                   "sketch relative error must be in (0, 1), got ",
                   relative_error);
}

std::int32_t
QuantileSketch::keyFor(double v) const
{
    // ceil(log_gamma(v)): bucket k covers (gamma^(k-1), gamma^k].
    return static_cast<std::int32_t>(
        std::ceil(std::log(v) / logGamma_));
}

double
QuantileSketch::valueFor(std::int32_t key) const
{
    // Log-space midpoint 2*gamma^k/(gamma+1): both bucket endpoints
    // are within relativeError_ of it.
    return 2.0 * std::pow(gamma_, static_cast<double>(key)) /
           (gamma_ + 1.0);
}

void
QuantileSketch::insert(double v)
{
    QOSERVE_ASSERT(!std::isnan(v), "cannot insert NaN into a sketch");
    QOSERVE_ASSERT(v >= 0.0, "sketch values must be non-negative, got ",
                   v);
    ++count_;
    if (std::isinf(v)) {
        ++infCount_;
        return;
    }
    min_ = std::min(min_, v);
    maxFinite_ = std::max(maxFinite_, v);
    if (v < kMinIndexable) {
        ++zeroCount_;
        return;
    }
    ++buckets_[keyFor(v)];
}

double
QuantileSketch::quantile(double p) const
{
    QOSERVE_ASSERT(p >= 0.0 && p <= 100.0,
                   "percentile out of range: ", p);
    if (count_ == 0)
        return 0.0;
    // Target percentileSorted's lower bracket: the order statistic at
    // floor(p/100 * (n-1)), 0-based in ascending order.
    const auto rank = static_cast<std::uint64_t>(
        (p / 100.0) * static_cast<double>(count_ - 1));
    if (rank < zeroCount_)
        return 0.0;
    std::uint64_t seen = zeroCount_;
    for (const auto &[key, n] : buckets_) {
        seen += n;
        if (rank < seen) {
            // Clamp to the observed extremes: tightens the first and
            // last buckets without breaking the error bound.
            double est = valueFor(key);
            return std::min(std::max(est, min_), maxFinite_);
        }
    }
    return std::numeric_limits<double>::infinity();
}

bool
QuantileSketch::operator==(const QuantileSketch &o) const
{
    return relativeError_ == o.relativeError_ &&
           buckets_ == o.buckets_ && zeroCount_ == o.zeroCount_ &&
           infCount_ == o.infCount_ && count_ == o.count_ &&
           min_ == o.min_ && maxFinite_ == o.maxFinite_;
}

QuantileSketch
QuantileSketch::fromParts(double relative_error, std::uint64_t zero,
                          std::uint64_t inf, double min_value,
                          double max_finite,
                          std::map<std::int32_t, std::uint64_t>
                              bucket_counts)
{
    QuantileSketch sk(relative_error);
    sk.zeroCount_ = zero;
    sk.infCount_ = inf;
    sk.min_ = min_value;
    sk.maxFinite_ = max_finite;
    sk.count_ = zero + inf;
    for (const auto &[key, n] : bucket_counts) {
        QOSERVE_ASSERT(n > 0, "sketch bucket ", key,
                       " has a zero count");
        sk.count_ += n;
    }
    sk.buckets_ = std::move(bucket_counts);
    return sk;
}

void
writeSketchBankCsv(const std::map<std::string, QuantileSketch> &bank,
                   std::ostream &out)
{
    // max_digits10 so the doubles (alpha, min, max) round-trip
    // exactly; counts are integers and exact by construction.
    RowWriter row(out, 17);
    row << kSketchCsvHeader << '\n';
    for (const auto &[name, sk] : bank) {
        QOSERVE_ASSERT(!name.empty() &&
                           name.find(',') == std::string::npos &&
                           name.find('\n') == std::string::npos,
                       "sketch name unfit for CSV: '", name, "'");
        row << name << ",alpha," << sk.relativeError() << '\n'
            << name << ",zero," << sk.zeroCount() << '\n'
            << name << ",inf," << sk.infCount() << '\n'
            << name << ",min," << sk.min() << '\n'
            << name << ",max_finite," << sk.maxFinite() << '\n';
        for (const auto &[key, n] : sk.buckets())
            row << name << ",b" << key << ',' << n << '\n';
    }
}

void
writeSketchBankCsvFile(const std::map<std::string, QuantileSketch> &bank,
                       const std::string &path)
{
    writeArtefactFile(path, "sketch", [&](std::ostream &out) {
        writeSketchBankCsv(bank, out);
    });
}

namespace {

/** State of the sketch currently being assembled. */
struct PendingSketch
{
    std::string name;
    bool sawAlpha = false;
    double alpha = QuantileSketch::kDefaultRelativeError;
    std::uint64_t zero = 0;
    std::uint64_t inf = 0;
    double minValue = std::numeric_limits<double>::infinity();
    double maxFinite = -std::numeric_limits<double>::infinity();
    std::map<std::int32_t, std::uint64_t> buckets;
};

void
finishPending(PendingSketch &pending, const CsvReader &csv,
              std::map<std::string, QuantileSketch> &bank)
{
    if (pending.name.empty())
        return;
    if (!pending.sawAlpha)
        csv.fail("sketch '", pending.name, "' has no alpha row");
    bank.emplace(pending.name,
                 QuantileSketch::fromParts(
                     pending.alpha, pending.zero, pending.inf,
                     pending.minValue, pending.maxFinite,
                     std::move(pending.buckets)));
    pending = PendingSketch{};
}

} // namespace

std::map<std::string, QuantileSketch>
readSketchBankCsv(std::istream &in)
{
    std::map<std::string, QuantileSketch> bank;
    PendingSketch pending;
    CsvReader csv(in, "sketch", kSketchCsvHeader);
    while (csv.next()) {
        const std::string &name = csv.field(0);
        const std::string &key = csv.field(1);
        if (name.empty())
            csv.fail("empty sketch name");
        if (name != pending.name) {
            finishPending(pending, csv, bank);
            if (bank.count(name) != 0)
                csv.fail("sketch '", name,
                         "' appears twice (rows must be contiguous per "
                         "sketch)");
            pending.name = name;
        }
        if (key == "alpha") {
            pending.alpha = csv.number<double>(2);
            pending.sawAlpha = true;
        } else if (key == "zero") {
            pending.zero = csv.number<std::uint64_t>(2);
        } else if (key == "inf") {
            pending.inf = csv.number<std::uint64_t>(2);
        } else if (key == "min") {
            pending.minValue = csv.number<double>(2);
        } else if (key == "max_finite") {
            pending.maxFinite = csv.number<double>(2);
        } else if (!key.empty() && key[0] == 'b') {
            std::optional<std::int32_t> bkey =
                parseNumber<std::int32_t>(std::string_view(key).substr(1));
            if (!bkey)
                csv.fail("malformed bucket key: '", key, "'");
            if (!pending.buckets.empty() &&
                *bkey <= pending.buckets.rbegin()->first)
                csv.fail("bucket keys out of order");
            pending.buckets[*bkey] = csv.number<std::uint64_t>(2);
        } else {
            csv.fail("unknown field: '", key, "'");
        }
    }
    finishPending(pending, csv, bank);
    return bank;
}

std::map<std::string, QuantileSketch>
readSketchBankCsvFile(const std::string &path)
{
    return readArtefactFile(path, "sketch", readSketchBankCsv);
}

} // namespace qoserve
