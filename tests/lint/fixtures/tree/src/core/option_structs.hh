/**
 * @file
 * Fixture: option structs for unset-option. The fields that nothing
 * outside tests/ sets must be flagged; the rest, the constants and
 * the member functions must not.
 */

#ifndef QOSERVE_FIXTURE_OPTION_STRUCTS_HH
#define QOSERVE_FIXTURE_OPTION_STRUCTS_HH

namespace fixture {

struct InnerParams
{
    int depth = 0;
};

struct WidgetConfig
{
    int setByAssignment = 1;
    int setByCompound = 2;
    InnerParams inner;
    int setByFlagTable = 3;
    int setOnlyInTests = 4;
    int neverSet = 5;
    // qoserve-lint: allow(unset-option) fixture: a reasoned exception
    int allowedUnset = 6;
    static constexpr int kConstant = 7;

    int twice() const { return 2 * setByAssignment; }

    bool operator==(const WidgetConfig &) const = default;
};

struct PairParams
{
    int first = 0;
    int second = 0;
};

class Holder
{
  public:
    struct Options
    {
        int nestedField = 1;
    };
};

struct Plain
{
    int notAnOption = 1;
};

} // namespace fixture

#endif // QOSERVE_FIXTURE_OPTION_STRUCTS_HH
