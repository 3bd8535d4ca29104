/**
 * @file
 * Property test for formatDecimal, the exact integer kernel behind
 * every floating-point artefact field: for %.6g, %.17g, %.3f and
 * %.0f it must give the bytes of both std::to_chars and snprintf on
 * over a million cases each. The cases mix random bit patterns,
 * values in [0, 1e4], exact decimal ties, neighbours of powers of
 * ten, of rounding carries and of 2^53, negatives and every class
 * the kernel leaves to std::to_chars.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "core/csv.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

constexpr int kCasesPerFormat = 1 << 20;

struct Format
{
    DecimalStyle style;
    int precision;
};

/** The double nearest to the decimal @p text. */
double
nearest(const std::string &text)
{
    std::optional<double> v = parseNumber<double>(text);
    EXPECT_TRUE(v.has_value()) << text;
    return v.value_or(0.0);
}

/** @p v moved by @p ulps representable steps. */
double
stepped(double v, std::int64_t ulps)
{
    const double toward = ulps < 0
                              ? -std::numeric_limits<double>::infinity()
                              : std::numeric_limits<double>::infinity();
    for (std::int64_t i = 0; i < std::abs(ulps); ++i)
        v = std::nextafter(v, toward);
    return v;
}

/** A random decimal string of exactly @p n digits, no leading zero. */
std::string
digitsOf(Rng &rng, int n)
{
    std::string s(1, static_cast<char>('1' + rng.uniformInt(0, 8)));
    for (int i = 1; i < n; ++i)
        s += static_cast<char>('0' + rng.uniformInt(0, 9));
    return s;
}

/** A value whose exact decimal expansion ends in a 5 at the digit
 *  @p f rounds away: a round-half-even tie. */
double
exactTie(Rng &rng, Format f)
{
    if (f.style == DecimalStyle::Fixed) {
        // v * 10^N = h + 1/2 is exact only for odd multiples of
        // 2^-(N+1).
        const double odd =
            static_cast<double>(2 * rng.uniformInt(0, 1 << 30) + 1);
        return std::ldexp(odd, -(f.precision + 1));
    }
    // (2c + 1) / 2^a has exactly a decimals, the last a 5; with
    // P + 1 - a integer digits it has P + 1 significant ones.
    for (;;) {
        const int a = static_cast<int>(rng.uniformInt(1, f.precision));
        const int whole = f.precision + 1 - a;
        const double lo = std::ldexp(std::pow(10.0, whole - 1), a);
        const double hi = std::ldexp(std::pow(10.0, whole), a);
        if (hi > 0x1p53)
            continue;
        auto odd = static_cast<std::int64_t>(rng.uniform(lo, hi)) | 1;
        return std::ldexp(static_cast<double>(odd), -a);
    }
}

/** A neighbour of a power of ten or of a rounding carry. */
double
powerNeighbour(Rng &rng, Format f)
{
    const std::int64_t ulps = rng.uniformInt(-4, 4);
    switch (rng.uniformInt(0, 2)) {
      case 0: // 10^j
        return stepped(nearest("1e" + std::to_string(rng.uniformInt(-30, 22))),
                       ulps);
      case 1: // P nines then a 5: rounding carries into a new digit
        if (f.style == DecimalStyle::General) {
            return stepped(
                nearest(std::string(static_cast<std::size_t>(f.precision),
                                    '9') +
                        "5e" + std::to_string(rng.uniformInt(-30, 10))),
                ulps);
        }
        return stepped(
            nearest(std::to_string(rng.uniformInt(0, 99999)) + "." +
                    std::string(static_cast<std::size_t>(f.precision), '9') +
                    "5"),
            ulps);
      default: // the nearest double to a decimal tie
        if (f.style == DecimalStyle::General) {
            return stepped(nearest(digitsOf(rng, f.precision) + "5e" +
                                   std::to_string(rng.uniformInt(-25, 8))),
                           ulps);
        }
        return stepped(
            nearest(std::to_string(rng.uniformInt(0, 1 << 20)) + "." +
                    (f.precision > 0
                         ? digitsOf(rng, f.precision)
                         : std::string()) +
                    "5"),
            ulps);
    }
}

/** One of the classes formatDecimal leaves to std::to_chars. */
double
fallbackCase(Rng &rng)
{
    using Limits = std::numeric_limits<double>;
    switch (rng.uniformInt(0, 6)) {
      case 0:
        return 0.0;
      case 1: // subnormal
        return std::bit_cast<double>(rng.nextU64() >> 12);
      case 2:
        return Limits::infinity();
      case 3:
        return std::bit_cast<double>(rng.nextU64() | 0x7ff0000000000001ull);
      case 4: // >= 2^53
        return std::ldexp(1.0 + rng.uniform(),
                          static_cast<int>(rng.uniformInt(53, 1023)));
      case 5: // tiny: past the general path's 128 bits
        return std::ldexp(1.0 + rng.uniform(),
                          static_cast<int>(rng.uniformInt(-1022, -128)));
      default: // the top of the exact range (too wide for %.6f)
        return std::ldexp(1.0 + rng.uniform(),
                          static_cast<int>(rng.uniformInt(45, 52)));
    }
}

/** The @p i-th case: its class cycles, its value is random. */
double
caseAt(Rng &rng, Format f, int i)
{
    double v = 0.0;
    switch (i % 8) {
      case 0:
        return std::bit_cast<double>(rng.nextU64()); // signs included
      case 1:
        v = rng.uniform(0.0, 1e4);
        break;
      case 2:
        v = exactTie(rng, f);
        break;
      case 3:
        v = powerNeighbour(rng, f);
        break;
      case 4:
        v = stepped(0x1p53, rng.uniformInt(-64, 0));
        break;
      case 5:
        v = fallbackCase(rng);
        break;
      case 6: // artefact-like magnitudes: latencies, times, fractions
        v = rng.uniform() * std::pow(10.0, static_cast<double>(
                                              rng.uniformInt(-12, 15)));
        break;
      default:
        v = static_cast<double>(rng.uniformInt(0, 1 << 30)) / 1024.0;
        break;
    }
    return rng.bernoulli(0.5) ? -v : v;
}

/** Run the property over one format; returns how many cases the
 *  exact path (not the fallback) formatted. */
int
checkFormat(Format f, std::uint64_t seed)
{
    const std::chars_format cf = f.style == DecimalStyle::Fixed
                                     ? std::chars_format::fixed
                                     : std::chars_format::general;
    const char *spec = f.style == DecimalStyle::Fixed ? "%.*f" : "%.*g";
    Rng rng(seed);
    int exact = 0;
    int failures = 0;
    for (int i = 0; i < kCasesPerFormat && failures < 10; ++i) {
        const double v = caseAt(rng, f, i);
        char got[400]; // %.0f of DBL_MAX has 309 digits
        char want[400];
        char printed[400];
        std::to_chars_result r =
            formatDecimal(got, got + sizeof got, v, f.style, f.precision);
        std::to_chars_result w =
            std::to_chars(want, want + sizeof want, v, cf, f.precision);
        std::snprintf(printed, sizeof printed, spec, f.precision, v);
        EXPECT_EQ(r.ec, std::errc{});
        const std::string g(got, r.ptr);
        if (g != std::string(want, w.ptr) || g != printed) {
            ++failures;
            ADD_FAILURE() << "bits 0x" << std::hex
                          << std::bit_cast<std::uint64_t>(v) << std::dec
                          << " " << spec << " precision " << f.precision
                          << ": kernel '" << g << "', to_chars '"
                          << std::string(want, w.ptr) << "', printf '"
                          << printed << "'";
        }
        char scratch[decimal_detail::kMaxExactChars];
        exact += decimal_detail::formatExact(scratch, v, f.style,
                                             f.precision) != nullptr;
    }
    return exact;
}

TEST(FormatDecimal, MatchesToCharsAndPrintfGeneral6)
{
    EXPECT_GT(checkFormat({DecimalStyle::General, 6}, 61), kCasesPerFormat / 2);
}

TEST(FormatDecimal, MatchesToCharsAndPrintfGeneral17)
{
    EXPECT_GT(checkFormat({DecimalStyle::General, 17}, 171),
              kCasesPerFormat / 2);
}

TEST(FormatDecimal, MatchesToCharsAndPrintfFixed3)
{
    EXPECT_GT(checkFormat({DecimalStyle::Fixed, 3}, 31), kCasesPerFormat / 2);
}

TEST(FormatDecimal, MatchesToCharsAndPrintfFixed0)
{
    EXPECT_GT(checkFormat({DecimalStyle::Fixed, 0}, 1), kCasesPerFormat / 2);
}

TEST(FormatDecimal, FallbackClassesLeaveTheExactPath)
{
    using Limits = std::numeric_limits<double>;
    char buf[decimal_detail::kMaxExactChars];
    for (Format f : {Format{DecimalStyle::General, 6},
                     Format{DecimalStyle::General, 17},
                     Format{DecimalStyle::Fixed, 3}}) {
        for (double v : {0.0, -0.0, Limits::denorm_min(), Limits::infinity(),
                         -Limits::infinity(), Limits::quiet_NaN(), 0x1p53,
                         -0x1p60, Limits::max()}) {
            EXPECT_EQ(decimal_detail::formatExact(buf, v, f.style,
                                                  f.precision),
                      nullptr)
                << v;
        }
    }
    // Precisions past the exact range, and a %.6f result beyond 64
    // bits, fall back too.
    EXPECT_EQ(decimal_detail::formatExact(buf, 0.1, DecimalStyle::General, 18),
              nullptr);
    EXPECT_EQ(decimal_detail::formatExact(buf, 0.1, DecimalStyle::Fixed, 20),
              nullptr);
    EXPECT_EQ(decimal_detail::formatExact(buf, 0x1p52, DecimalStyle::Fixed, 6),
              nullptr);
    // And the fallback still has to fit: a too-small buffer is the
    // same error std::to_chars reports.
    char small[4];
    EXPECT_EQ(formatDecimal(small, small + sizeof small, 1234.5,
                            DecimalStyle::General, 6)
                  .ec,
              std::errc::value_too_large);
    EXPECT_EQ(formatDecimal(small, small + sizeof small, 0.5,
                            DecimalStyle::General, 6)
                  .ptr,
              small + 3);
}

TEST(FormatDecimal, KnownBytes)
{
    auto f = [](double v, DecimalStyle style, int precision) {
        char buf[64];
        return std::string(buf, formatDecimal(buf, buf + sizeof buf, v,
                                              style, precision)
                                    .ptr);
    };
    EXPECT_EQ(f(0.1, DecimalStyle::General, 17), "0.10000000000000001");
    EXPECT_EQ(f(2.5, DecimalStyle::Fixed, 0), "2");
    EXPECT_EQ(f(3.5, DecimalStyle::Fixed, 0), "4");
    EXPECT_EQ(f(0.0625, DecimalStyle::Fixed, 3), "0.062");
    EXPECT_EQ(f(-0.0001, DecimalStyle::Fixed, 3), "-0.000");
    EXPECT_EQ(f(999999.5, DecimalStyle::General, 6), "1e+06");
    EXPECT_EQ(f(0.0001, DecimalStyle::General, 6), "0.0001");
    EXPECT_EQ(f(0.00001, DecimalStyle::General, 6), "1e-05");
    EXPECT_EQ(f(123456.0, DecimalStyle::General, 6), "123456");
    EXPECT_EQ(f(1234567.0, DecimalStyle::General, 6), "1.23457e+06");
    EXPECT_EQ(f(1234.5678, DecimalStyle::Fixed, 3), "1234.568");
}

} // namespace
} // namespace qoserve
