/**
 * @file
 * The strict CSV reader, number parsers and artefact-file helpers
 * shared by every file format the simulator reads back: records,
 * summary, rolling series, workload trace, trace events, sketch bank,
 * alerts and critical-path aggregate. The command-line tools parse
 * their numeric flags with the same parsers. RowWriter is the
 * buffered formatter the large per-row artefacts are written with.
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
#include <charconv>
#include <cstddef>
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
 *  - doubles: std::to_chars general at the writer's precision, which
 *    is printf("%.*g"), as `<<` prints with the default floatfield
 *    (so also "inf", "-inf" and "nan");
 *  - FixedDecimals: std::to_chars fixed, which is printf("%.*f").
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
        return format(value);
    }

    /** Booleans have no single spelling; write the 0/1 or the word. */
    RowWriter &operator<<(bool) = delete;

    RowWriter &operator<<(double value)
    {
        return format(value, std::chars_format::general, precision_);
    }

    RowWriter &operator<<(FixedDecimals v)
    {
        return format(v.value, std::chars_format::fixed, v.decimals);
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
    /** std::to_chars(args...) into the free space, flushing first
     *  when it does not fit there. */
    template <typename... Args>
    RowWriter &format(const Args &...args)
    {
        std::to_chars_result r =
            std::to_chars(buf_ + used_, buf_ + kBufferBytes, args...);
        if (r.ec != std::errc{}) {
            flush();
            r = std::to_chars(buf_, buf_ + kBufferBytes, args...);
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
