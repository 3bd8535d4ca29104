/**
 * @file
 * Strong unit types for the QoServe vocabulary layer.
 *
 * The simulator's quantities fall into a handful of dimensions —
 * points in simulated time, spans of simulated time, token counts
 * and opaque identifiers. Mixing two of them (a token count where a
 * time belongs, a replica index where a request id belongs) is the
 * class of bug no unit test reliably catches, because the arithmetic
 * still "works". This header gives each dimension its own
 * explicit-construction wrapper so the compiler rejects the mix-up
 * instead.
 *
 * Conversion rules (see DESIGN.md §12):
 *  - Construction from the raw representation is always explicit:
 *    `TokenCount{512}`, `SimTime{0.5}`. There are no implicit decays.
 *  - The raw value is recovered through a named accessor (`value()`,
 *    `seconds()`) — grep for these to find every boundary crossing.
 *  - Counts (TokenCount) admit additive arithmetic with themselves
 *    only; identifiers (ReplicaId, RequestId) admit no arithmetic at
 *    all, just comparison and hashing.
 *  - Streaming prints the raw value, so serialized output is
 *    byte-identical to the pre-typed code.
 *
 * SimTime and SimDuration live in simcore/time.hh (the event kernel
 * cannot depend on core); this header re-exports them so users of the
 * vocabulary layer have a single include.
 */

#ifndef QOSERVE_CORE_UNITS_HH
#define QOSERVE_CORE_UNITS_HH

#include <cstdint>
#include <functional>
#include <ostream>

#include "simcore/time.hh"

namespace qoserve {

/** A count of model tokens (prompt, decode, KV, or budget). */
class TokenCount
{
  public:
    constexpr TokenCount() = default;

    constexpr explicit TokenCount(std::int64_t count) : count_(count) {}

    /** Raw count (serialization and formulas needing the scalar). */
    constexpr std::int64_t value() const { return count_; }

    constexpr TokenCount &
    operator+=(TokenCount o)
    {
        count_ += o.count_;
        return *this;
    }

    constexpr TokenCount &
    operator-=(TokenCount o)
    {
        count_ -= o.count_;
        return *this;
    }

    friend constexpr TokenCount
    operator+(TokenCount a, TokenCount b)
    {
        return TokenCount(a.count_ + b.count_);
    }

    friend constexpr TokenCount
    operator-(TokenCount a, TokenCount b)
    {
        return TokenCount(a.count_ - b.count_);
    }

    friend constexpr bool
    operator==(TokenCount a, TokenCount b)
    {
        return a.count_ == b.count_;
    }

    friend constexpr bool
    operator!=(TokenCount a, TokenCount b)
    {
        return a.count_ != b.count_;
    }

    friend constexpr bool
    operator<(TokenCount a, TokenCount b)
    {
        return a.count_ < b.count_;
    }

    friend constexpr bool
    operator<=(TokenCount a, TokenCount b)
    {
        return a.count_ <= b.count_;
    }

    friend constexpr bool
    operator>(TokenCount a, TokenCount b)
    {
        return a.count_ > b.count_;
    }

    friend constexpr bool
    operator>=(TokenCount a, TokenCount b)
    {
        return a.count_ >= b.count_;
    }

    friend std::ostream &
    operator<<(std::ostream &out, TokenCount c)
    {
        return out << c.count_;
    }

  private:
    std::int64_t count_ = 0;
};

/** Index of a replica within the cluster. Identifiers admit no
 *  arithmetic: two replica ids cannot be meaningfully added. */
class ReplicaId
{
  public:
    constexpr ReplicaId() = default;

    constexpr explicit ReplicaId(int index) : index_(index) {}

    constexpr int value() const { return index_; }

    friend constexpr bool
    operator==(ReplicaId a, ReplicaId b)
    {
        return a.index_ == b.index_;
    }

    friend constexpr bool
    operator!=(ReplicaId a, ReplicaId b)
    {
        return a.index_ != b.index_;
    }

    friend constexpr bool
    operator<(ReplicaId a, ReplicaId b)
    {
        return a.index_ < b.index_;
    }

    friend std::ostream &
    operator<<(std::ostream &out, ReplicaId id)
    {
        return out << id.index_;
    }

  private:
    int index_ = -1;
};

/** Dense identifier of a request within a trace. */
class RequestId
{
  public:
    constexpr RequestId() = default;

    constexpr explicit RequestId(std::uint64_t id) : id_(id) {}

    constexpr std::uint64_t value() const { return id_; }

    friend constexpr bool
    operator==(RequestId a, RequestId b)
    {
        return a.id_ == b.id_;
    }

    friend constexpr bool
    operator!=(RequestId a, RequestId b)
    {
        return a.id_ != b.id_;
    }

    friend constexpr bool
    operator<(RequestId a, RequestId b)
    {
        return a.id_ < b.id_;
    }

    friend std::ostream &
    operator<<(std::ostream &out, RequestId id)
    {
        return out << id.id_;
    }

  private:
    std::uint64_t id_ = 0;
};

/** Dense index of an open KV ownership record in one replica's
 *  BlockManager. A default-constructed slot names no record. */
class KvSlot
{
  public:
    constexpr KvSlot() = default;

    constexpr explicit KvSlot(std::uint32_t index) : index_(index) {}

    constexpr std::uint32_t value() const { return index_; }

    /** False for the default "no slot" value. */
    constexpr bool valid() const { return index_ != kNone; }

    friend constexpr bool
    operator==(KvSlot a, KvSlot b)
    {
        return a.index_ == b.index_;
    }

    friend constexpr bool
    operator!=(KvSlot a, KvSlot b)
    {
        return a.index_ != b.index_;
    }

    friend std::ostream &
    operator<<(std::ostream &out, KvSlot slot)
    {
        return out << slot.index_;
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::uint32_t index_ = kNone;
};

} // namespace qoserve

template <> struct std::hash<qoserve::ReplicaId>
{
    std::size_t
    operator()(qoserve::ReplicaId id) const noexcept
    {
        return std::hash<int>{}(id.value());
    }
};

template <> struct std::hash<qoserve::RequestId>
{
    std::size_t
    operator()(qoserve::RequestId id) const noexcept
    {
        return std::hash<std::uint64_t>{}(id.value());
    }
};

#endif // QOSERVE_CORE_UNITS_HH
