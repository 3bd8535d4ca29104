/**
 * @file
 * The strict CSV reader, number parsers and artefact-file helpers
 * shared by every file format the simulator reads back: records,
 * summary, rolling series, workload trace, trace events, sketch bank,
 * alerts and critical-path aggregate. The command-line tools parse
 * their numeric flags with the same parsers. RowWriter is the
 * buffered formatter every artefact is written with, and
 * formatDecimal is its one floating-point formatter.
 *
 * Strict means:
 *  - a row has exactly as many fields as the header, and an empty
 *    field counts, a trailing one included (`0,1.5,2.5,3,` is five
 *    fields);
 *  - a number is the whole field, with no whitespace and no '+'; an
 *    unsigned field rejects '-', an integer field rejects a fraction;
 *  - every error names the artefact, the 1-based line and the
 *    offending field or value: `<what> CSV line N: ...`.
 *
 * Row layouts stay with their formats (a few `<<` each own the byte
 * layout); reading, number formatting, and the open/check/close
 * around a file are shared.
 */

#ifndef QOSERVE_CORE_CSV_HH
#define QOSERVE_CORE_CSV_HH

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "simcore/logging.hh"

namespace qoserve {

/**
 * Parse the whole of @p text as a T (an integer or floating type);
 * nullopt when it is not exactly one such value. Doubles accept
 * "inf" and "nan", so never-served latencies round-trip; values out
 * of T's range are rejected.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

/** What a T field must be, for error messages ("not a number"). */
template <typename T>
constexpr const char *
numberError()
{
    if constexpr (std::is_floating_point_v<T>)
        return "not a number";
    else if constexpr (std::is_signed_v<T>)
        return "not an integer";
    else
        return "not an unsigned integer";
}

/**
 * parseNumber, fatal on failure with @p context (streamed) followed
 * by ": not a number: '<text>'" (or the integer wording).
 */
template <typename T, typename... Context>
T
requireNumber(std::string_view text, const Context &...context)
{
    if (std::optional<T> value = parseNumber<T>(text))
        return *value;
    QOSERVE_FATAL(context..., ": ", numberError<T>(), ": '", text, "'");
}

/** Fatal error on line @p line of the CSV artefact @p what. */
template <typename... Args>
[[noreturn]] void
csvFatal(std::string_view what, std::size_t line, const Args &...args)
{
    QOSERVE_FATAL(what, " CSV line ", line, ": ", args...);
}

/**
 * Split @p line at every @p sep, keeping empty fields: "a,,b," is
 * four fields, the last one empty.
 */
inline std::vector<std::string>
splitCsv(std::string_view line, char sep = ',')
{
    std::vector<std::string> fields;
    for (std::size_t start = 0;;) {
        std::size_t end = line.find(sep, start);
        fields.emplace_back(line.substr(start, end - start));
        if (end == std::string_view::npos)
            return fields;
        start = end + 1;
    }
}

/** getline with a trailing CR (from a CRLF file) stripped. */
inline bool
readCsvLine(std::istream &in, std::string &line)
{
    if (!std::getline(in, line))
        return false;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return true;
}

/**
 * A number field on line @p line, whose header names the column
 * @p column; fatal with both named when @p text is not a T.
 */
template <typename T>
T
parseCsvField(std::string_view what, std::size_t line,
              std::string_view column, std::string_view text)
{
    if (std::optional<T> value = parseNumber<T>(text))
        return *value;
    csvFatal(what, line, "field '", column, "': ", numberError<T>(),
             ": '", text, "'");
}

/**
 * Row reader for a strict CSV artefact. The first line must equal
 * the header; every later line must be a non-empty row with exactly
 * the header's field count. Errors are fatal and carry the line.
 *
 * @code
 *   CsvReader csv(in, "alert", "tier,raised,cleared,peak_burn");
 *   while (csv.next())
 *       tiers.push_back(csv.number<int>(0));
 * @endcode
 */
class CsvReader
{
  public:
    /** Read and check the header line of @p in; @p what names the
     *  artefact in every error. */
    CsvReader(std::istream &in, std::string_view what,
              std::string_view header)
        : in_(in), what_(what), columns_(splitCsv(header))
    {
        if (!readCsvLine(in_, line_))
            csvFatal(what_, 1, "empty input (missing header)");
        lineNo_ = 1;
        if (line_ != header)
            fail("unexpected header: '", line_, "', expected '", header,
                 "'");
    }

    /** Advance to the next row; false at the end of the input. */
    bool next()
    {
        if (!readCsvLine(in_, line_))
            return false;
        ++lineNo_;
        if (line_.empty())
            fail("empty line");
        fields_ = splitCsv(line_);
        if (fields_.size() != columns_.size())
            fail("expected ", columns_.size(), " fields, got ",
                 fields_.size(), ": '", line_, "'");
        return true;
    }

    /** Field @p col of the current row, verbatim. */
    const std::string &field(std::size_t col) const
    {
        return fields_[col];
    }

    /** Field @p col of the current row parsed strictly as a T. */
    template <typename T>
    T number(std::size_t col) const
    {
        return parseCsvField<T>(what_, lineNo_, columns_[col],
                                fields_[col]);
    }

    /** Fatal error at the current line. */
    template <typename... Args>
    [[noreturn]] void fail(const Args &...args) const
    {
        csvFatal(what_, lineNo_, args...);
    }

  private:
    std::istream &in_;
    std::string what_;
    std::vector<std::string> columns_;
    std::string line_;
    std::vector<std::string> fields_;
    std::size_t lineNo_ = 0;
};

/** How formatDecimal prints a double. */
enum class DecimalStyle
{
    General, ///< printf("%.*g"): significant digits, zeros stripped.
    Fixed,   ///< printf("%.*f"): digits after the point.
};

namespace decimal_detail {

/** "00" "01" ... "99": two digits per lookup. */
inline constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/** 5^i, i <= 27 (the largest power of five below 2^64). */
inline constexpr auto kPow5 = [] {
    std::array<std::uint64_t, 28> t{};
    t[0] = 1;
    for (std::size_t i = 1; i < t.size(); ++i)
        t[i] = t[i - 1] * 5;
    return t;
}();

/** 10^i, i <= 19 (the largest power of ten below 2^64). */
inline constexpr auto kPow10 = [] {
    std::array<std::uint64_t, 20> t{};
    t[0] = 1;
    for (std::size_t i = 1; i < t.size(); ++i)
        t[i] = t[i - 1] * 10;
    return t;
}();

/** The decimal exponents of the doubles m / 2^k with a 53-bit m. */
struct DecimalBinade
{
    std::int8_t exponent;   ///< floor(log10(2^52 / 2^k)).
    std::uint64_t nextPower; ///< Least m with m / 2^k >= 10^(exponent
                             ///< + 1); 2^53 when the binade has none.
};

/**
 * The binades k < 128, so a double's decimal exponent is one lookup
 * and one compare. Built with exact integer arithmetic: a binade
 * spans less than a factor of ten, so it holds at most one power.
 */
inline constexpr auto kDecimalBinades = [] {
    using U128 = unsigned __int128;
    std::array<DecimalBinade, 128> t{};
    for (int k = 0; k < 128; ++k) {
        const int b = 52 - k;
        int e = 0;
        if (b >= 0) {
            // The largest e with 10^e <= 2^b.
            for (U128 p = 10; p <= U128{1} << b; p *= 10)
                ++e;
        } else {
            // The least u with 10^u >= 2^-b, and e = -u.
            for (U128 p = 1; p < U128{1} << -b; p *= 10)
                --e;
        }
        // The least m with m / 2^k >= 10^(e+1): 10^(e+1) * 2^k, or
        // ceil(2^k / 10^-(e+1)) when the power is below 1.
        U128 next;
        if (e + 1 >= 0) {
            U128 pow = 1;
            for (int i = 0; i < e + 1; ++i)
                pow *= 10;
            next = pow << k;
        } else {
            U128 pow = 1;
            for (int i = 0; i < -(e + 1); ++i)
                pow *= 10;
            next = ((U128{1} << k) + pow - 1) / pow;
        }
        const U128 none = U128{1} << 53;
        t[static_cast<std::size_t>(k)] = {
            static_cast<std::int8_t>(e),
            static_cast<std::uint64_t>(next < none ? next : none)};
    }
    return t;
}();

/** Room the exact path needs at its output: the widest result (sign,
 *  20 integer digits, point and 19 decimals) plus the spill of its
 *  fixed-size copies. */
inline constexpr std::ptrdiff_t kMaxExactChars = 48;

/** Exactly @p n <= 8 digits of @p v < 10^n, ending just before
 *  @p end. */
inline void
writeDigits8(char *end, std::uint32_t v, int n)
{
    for (; n >= 2; n -= 2) {
        end -= 2;
        std::memcpy(end, kDigitPairs + 2 * (v % 100), 2);
        v /= 100;
    }
    if (n == 1)
        end[-1] = static_cast<char>('0' + v);
}

/** Exactly @p n <= 20 digits of @p v (zero-padded) at @p out; returns
 *  the end. Works in 8-digit halves so the digit loop stays 32-bit. */
inline char *
writeDigits(char *out, std::uint64_t v, int n)
{
    char *end = out + n;
    for (; n > 8; n -= 8) {
        writeDigits8(out + n, static_cast<std::uint32_t>(v % 100000000), 8);
        v /= 100000000;
    }
    writeDigits8(out + n, static_cast<std::uint32_t>(v), n);
    return end;
}

/** Decimal digits in @p v (1 for 0). */
inline int
digitCount(std::uint64_t v)
{
    v |= 1; // same count; 0 then has one digit
    const int t = (static_cast<int>(std::bit_width(v)) * 1233) >> 12;
    return t + 1 - (v < kPow10[static_cast<std::size_t>(t)]);
}

/** @p num / 2^@p shift rounded half to even; exact for any shift
 *  when num < 2^127. */
inline unsigned __int128
shiftRound(unsigned __int128 num, int shift)
{
    if (shift == 0)
        return num;
    if (shift >= 128)
        return 0; // num < 2^127 <= half
    const unsigned __int128 q = num >> shift;
    const unsigned __int128 rem = num - (q << shift);
    const unsigned __int128 half = (unsigned __int128)1 << (shift - 1);
    return q + (rem > half || (rem == half && (q & 1) != 0));
}

/**
 * m * 10^s / 2^k rounded half to even, for a 53-bit m; false when
 * the operands leave 128 bits (the caller falls back).
 */
inline bool
scaleRound(std::uint64_t m, int k, int s, std::uint64_t &out)
{
    unsigned __int128 q;
    if (s >= 0) {
        // m * 5^s * 2^(s - k).
        if (s >= static_cast<int>(kPow5.size()))
            return false;
        q = (unsigned __int128)m * kPow5[static_cast<std::size_t>(s)];
        const int shift = k - s;
        if (shift >= 0)
            q = shiftRound(q, shift);
        else if (-shift <= 8)
            q <<= -shift; // q < 2^116, so this cannot overflow
        else
            return false;
    } else {
        // m / (5^t * 2^(k + t)).
        const int t = -s;
        if (t >= static_cast<int>(kPow5.size()) || k + t >= 64)
            return false;
        const unsigned __int128 den =
            (unsigned __int128)kPow5[static_cast<std::size_t>(t)]
            << (k + t);
        q = m / den;
        const unsigned __int128 rem2 = 2 * (m - q * den);
        q += rem2 > den || (rem2 == den && (q & 1) != 0);
    }
    if (q >> 64 != 0)
        return false;
    out = static_cast<std::uint64_t>(q);
    return true;
}

/**
 * The exact path of formatDecimal, writing at most kMaxExactChars
 * bytes at @p out. Returns the end, or nullptr when @p value is
 * outside the path's range and the caller must fall back.
 */
inline char *
formatExact(char *out, double value, DecimalStyle style, int precision)
{
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const int biased = static_cast<int>(bits >> 52 & 0x7ff);
    // Zero, subnormals, inf and NaN fall back.
    if (biased == 0 || biased == 0x7ff)
        return nullptr;
    // value = m / 2^k exactly; k < 0 (value >= 2^53) falls back.
    const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                            std::uint64_t{1} << 52;
    const int k = 1075 - biased;
    if (k < 0)
        return nullptr;
    const bool negative = (bits >> 63) != 0;

    if (style == DecimalStyle::Fixed) {
        // %.Nf: q = round(value * 10^N), then q / 10^N and q % 10^N.
        const int n = precision;
        std::uint64_t q;
        if (n < 0 || n >= static_cast<int>(kPow10.size()) ||
            !scaleRound(m, k, n, q))
            return nullptr;
        const std::uint64_t pow = kPow10[static_cast<std::size_t>(n)];
        const std::uint64_t whole = q / pow;
        *out = '-';
        out += negative;
        out = writeDigits(out, whole, digitCount(whole));
        if (n > 0) {
            *out++ = '.';
            out = writeDigits(out, q - whole * pow, n);
        }
        return out;
    }

    // %.Pg: D = value * 10^(P-1-X) rounded to P digits, where X is
    // the decimal exponent after rounding.
    const int p = precision == 0 ? 1 : precision;
    if (p < 0 || p > 17 || k >= static_cast<int>(kDecimalBinades.size()))
        return nullptr;
    const DecimalBinade &binade = kDecimalBinades[static_cast<std::size_t>(k)];
    int x = binade.exponent + (m >= binade.nextPower);
    std::uint64_t d;
    if (!scaleRound(m, k, p - 1 - x, d))
        return nullptr;
    if (d == kPow10[static_cast<std::size_t>(p)]) {
        // Rounding carried into a new digit: 9.99..95 -> 10.0..0.
        ++x;
        d = kPow10[static_cast<std::size_t>(p - 1)];
    }
    // The copies below move a fixed 16 bytes whatever the count, so
    // they compile to plain stores; kMaxExactChars leaves room for
    // the spill past the end.
    char digits[32] = {};
    writeDigits(digits, d, p);
    int n = p; // significant digits left once trailing zeros go
    while (n > 1 && digits[n - 1] == '0')
        --n;

    *out = '-';
    out += negative;
    if (x < -4 || x >= p) {
        // d[.ddd]e±XX
        *out++ = digits[0];
        if (n > 1) {
            *out++ = '.';
            std::memcpy(out, digits + 1, 16);
            out += n - 1;
        }
        *out++ = 'e';
        *out++ = x < 0 ? '-' : '+';
        const auto ax = static_cast<std::uint32_t>(x < 0 ? -x : x);
        out = writeDigits(out, ax, ax >= 100 ? 3 : 2);
    } else if (x >= 0) {
        // ddd[.ddd]: the point sits after x + 1 <= 17 digits.
        const int whole = x + 1;
        std::memcpy(out, digits, 16);
        out[16] = digits[16];
        if (n <= whole) {
            std::memset(out + n, '0', 16);
            out += whole;
        } else {
            out += whole;
            *out++ = '.';
            std::memcpy(out, digits + whole, 16);
            out += n - whole;
        }
    } else {
        // 0.000ddd
        std::memcpy(out, "0.000", 5);
        out += 1 - x;
        std::memcpy(out, digits, 16);
        out[16] = digits[16];
        out += n;
    }
    return out;
}

} // namespace decimal_detail

/**
 * Write @p value into [@p first, @p last) with the bytes of
 * printf("%.*g") (General) or printf("%.*f") (Fixed) at
 * @p precision, which is what std::to_chars gives for the matching
 * chars_format; the result and errors are std::to_chars's.
 *
 * A normal double is m * 2^e with a 53-bit m. When e <= 0 (|value| <
 * 2^53), the digits are computed exactly in integers:
 *  - Fixed, precision N <= 19: q = m * 10^N / 2^-e rounded half to
 *    even in 128 bits, printed as q / 10^N, '.', q % 10^N;
 *  - General, precision P <= 17: the decimal exponent X comes from a
 *    table indexed by e, corrected by one compare of m against the
 *    binade's power of ten and by one step when rounding carries; the P
 *    digits are m * 10^(P-1-X) / 2^-e rounded half to even, and
 *    printf's choice of fixed or exponent form and its stripping of
 *    trailing zeros follow.
 * Everything else — zero, subnormals, inf, NaN, |value| >= 2^53,
 * other precisions and any result that leaves 64 bits or whose
 * scaling leaves 128 — is std::to_chars.
 */
inline std::to_chars_result
formatDecimal(char *first, char *last, double value, DecimalStyle style,
              int precision)
{
    using decimal_detail::formatExact;
    using decimal_detail::kMaxExactChars;
    if (last - first >= kMaxExactChars) {
        if (char *end = formatExact(first, value, style, precision))
            return {end, std::errc{}};
    } else {
        char buf[kMaxExactChars];
        if (char *end = formatExact(buf, value, style, precision)) {
            const std::ptrdiff_t n = end - buf;
            if (n > last - first)
                return {last, std::errc::value_too_large};
            std::memcpy(first, buf, static_cast<std::size_t>(n));
            return {first + n, std::errc{}};
        }
    }
    return std::to_chars(first, last, value,
                         style == DecimalStyle::Fixed
                             ? std::chars_format::fixed
                             : std::chars_format::general,
                         precision);
}

/** A double that RowWriter prints with exactly @p decimals digits
 *  after the point, as printf("%.*f") does. */
struct FixedDecimals
{
    double value = 0.0;
    int decimals = 0;
};

/**
 * Formats artefact rows into a fixed-size buffer and hands the bytes
 * to a std::ostream with write(): whenever the next field may not
 * fit, and on flush() or destruction. A row longer than the buffer is
 * written in pieces, and no file is ever held in memory whole.
 *
 * Every field has the bytes `ostream <<` gives it, without the
 * stream's locale machinery:
 *  - integers: std::to_chars, exact;
 *  - doubles: formatDecimal general at the writer's precision, which
 *    is printf("%.*g"), as `<<` prints with the default floatfield
 *    (so also "inf", "-inf" and "nan");
 *  - FixedDecimals: formatDecimal fixed, which is printf("%.*f").
 *
 * The writer neither reads nor changes the stream's format state, so
 * a row's bytes never depend on what the caller did to the stream.
 *
 * @code
 *   RowWriter row(out, 17);
 *   row << "time,value\n";
 *   for (const Point &p : points)
 *       row << p.time << ',' << p.value << '\n';
 * @endcode
 */
class RowWriter
{
  public:
    /** Bytes buffered between two writes to the stream. */
    static constexpr std::size_t kBufferBytes = 4096;

    /** Write to @p out, doubles with @p precision significant digits:
     *  6 as a fresh ostream prints, 17 to round-trip exactly. */
    explicit RowWriter(std::ostream &out, int precision = 6)
        : out_(out), precision_(precision)
    {
    }

    ~RowWriter() { flush(); }

    RowWriter(const RowWriter &) = delete;
    RowWriter &operator=(const RowWriter &) = delete;

    RowWriter &operator<<(std::string_view text)
    {
        while (!text.empty()) {
            if (used_ == kBufferBytes)
                flush();
            std::size_t n = std::min(text.size(), kBufferBytes - used_);
            std::memcpy(buf_ + used_, text.data(), n);
            used_ += n;
            text.remove_prefix(n);
        }
        return *this;
    }

    RowWriter &operator<<(const char *text)
    {
        return *this << std::string_view(text);
    }

    RowWriter &operator<<(char c)
    {
        if (used_ == kBufferBytes)
            flush();
        buf_[used_++] = c;
        return *this;
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, char> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    RowWriter &operator<<(T value)
    {
        return format([value](char *first, char *last) {
            return std::to_chars(first, last, value);
        });
    }

    /** Booleans have no single spelling; write the 0/1 or the word. */
    RowWriter &operator<<(bool) = delete;

    RowWriter &operator<<(double value)
    {
        return decimal(value, DecimalStyle::General, precision_);
    }

    RowWriter &operator<<(FixedDecimals v)
    {
        return decimal(v.value, DecimalStyle::Fixed, v.decimals);
    }

    /** Hand every buffered byte to the stream. */
    void flush()
    {
        if (used_ == 0)
            return;
        out_.write(buf_, static_cast<std::streamsize>(used_));
        used_ = 0;
    }

  private:
    RowWriter &decimal(double value, DecimalStyle style, int precision)
    {
        return format([=](char *first, char *last) {
            return formatDecimal(first, last, value, style, precision);
        });
    }

    /** @p write(first, last), a to_chars-like call, into the free
     *  space, flushing first when it does not fit there. */
    template <typename WriteFn>
    RowWriter &format(const WriteFn &write)
    {
        std::to_chars_result r = write(buf_ + used_, buf_ + kBufferBytes);
        if (r.ec != std::errc{}) {
            flush();
            r = write(buf_, buf_ + kBufferBytes);
            QOSERVE_ASSERT(r.ec == std::errc{},
                           "number wider than the row buffer");
        }
        used_ = static_cast<std::size_t>(r.ptr - buf_);
        return *this;
    }

    std::ostream &out_;
    int precision_;
    std::size_t used_ = 0;
    char buf_[kBufferBytes] = {};
};

/**
 * Write an artefact file: open @p path, pass the stream to @p write,
 * and close it. Fatal, naming @p what, when the file cannot be opened
 * or any write (the final flush included) fails.
 */
template <typename WriteFn>
void
writeArtefactFile(const std::string &path, std::string_view what,
                  WriteFn &&write)
{
    std::ofstream out(path);
    if (!out)
        QOSERVE_FATAL("cannot open ", what, " file for writing: ", path);
    write(out);
    out.close();
    if (!out)
        QOSERVE_FATAL("error writing ", what, " file: ", path);
}

/**
 * Read an artefact file: open @p path and return @p read applied to
 * the stream. Fatal, naming @p what, when the file cannot be opened.
 */
template <typename ReadFn>
auto
readArtefactFile(const std::string &path, std::string_view what,
                 ReadFn &&read)
{
    std::ifstream in(path);
    if (!in)
        QOSERVE_FATAL("cannot open ", what, " file for reading: ", path);
    return read(in);
}

} // namespace qoserve

#endif // QOSERVE_CORE_CSV_HH
