#include "softfloat/float32.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace opac::sf
{

namespace
{

constexpr Word signMask = 0x80000000u;
constexpr Word expMask  = 0x7f800000u;
constexpr Word fracMask = 0x007fffffu;
constexpr Word quietBit = 0x00400000u;

using u128 = unsigned __int128;

constexpr int expBias = 127;
constexpr int expMin  = -126; //!< unbiased exponent of smallest normal

inline Word packedExp(Word a) { return (a & expMask) >> 23; }
inline Word packedFrac(Word a) { return a & fracMask; }

/** Right shift that ORs every shifted-out bit into the result's bit 0. */
inline std::uint64_t
shiftRightJam(std::uint64_t v, int n)
{
    if (n <= 0)
        return v;
    if (n >= 64)
        return v != 0 ? 1 : 0;
    return (v >> n) | ((v & ((std::uint64_t(1) << n) - 1)) != 0 ? 1 : 0);
}

/** 128-bit variant of shiftRightJam, for the fused multiply-add. */
inline unsigned __int128
shiftRightJam128(unsigned __int128 v, int n)
{
    if (n <= 0)
        return v;
    if (n >= 128)
        return v != 0 ? 1 : 0;
    u128 mask = (u128(1) << n) - 1;
    return (v >> n) | ((v & mask) != 0 ? 1 : 0);
}

/**
 * A finite nonzero value in unpacked form:
 * value = (-1)^sign * sig * 2^(exp - 23), with 2^23 <= sig < 2^24.
 */
struct Unpacked
{
    bool sign;
    int exp;
    std::uint32_t sig;
};

/**
 * True for a normal number: exponent field in [1, 254]. One compare
 * covers zero, subnormal, infinity and NaN at once, so the arithmetic
 * entry points can take a fast path on the overwhelmingly common case.
 */
inline bool
isNormal(Word a)
{
    return packedExp(a) - 1u <= 253u;
}

/** Unpack a value already known to be normal (no subnormal loop). */
inline Unpacked
unpackNormal(Word a)
{
    return {(a & signMask) != 0, int(packedExp(a)) - expBias,
            packedFrac(a) | 0x00800000u};
}

/** Unpack a finite nonzero encoding (normal or subnormal). */
Unpacked
unpack(Word a)
{
    Unpacked u;
    u.sign = (a & signMask) != 0;
    Word e = packedExp(a);
    Word f = packedFrac(a);
    if (e == 0) {
        // Subnormal: move the leading one up to bit 23.
        opac_assert(f != 0, "unpack() on a zero");
        const int sh = std::countl_zero(f) - 8;
        u.exp = expMin - sh;
        u.sig = f << sh;
    } else {
        u.exp = int(e) - expBias;
        u.sig = f | 0x00800000u;
    }
    return u;
}

Word
packBits(bool sign, Word exp_field, Word frac)
{
    return (sign ? signMask : 0) | (exp_field << 23) | frac;
}

/** Quiet the leftmost NaN among the operands; raise invalid on any sNaN. */
Word
propagateNaN(Word a, Word b, Context &ctx)
{
    if (isSignalingNaN(a) || isSignalingNaN(b))
        ctx.raise(FlagInvalid);
    if (isNaN(a))
        return a | quietBit;
    return b | quietBit;
}

Word
overflowResult(bool sign, Context &ctx)
{
    ctx.raise(FlagOverflow | FlagInexact);
    const Word maxFinite = 0x7f7fffffu;
    switch (ctx.rounding) {
      case Round::NearestEven:
        return sign ? negInf : posInf;
      case Round::TowardZero:
        return packBits(sign, 0, 0) | maxFinite;
      case Round::Down:
        return sign ? negInf : (posZero | maxFinite);
      case Round::Up:
        return sign ? (signMask | maxFinite) : posInf;
    }
    opac_panic("bad rounding mode");
}

/**
 * What to add to a significand with three guard/round/sticky bits
 * before they are dropped, by rounding direction and sign. Nearest-even
 * adds half an ulp and fixes exact ties afterwards.
 */
constexpr std::uint8_t kRoundIncrement[4][2] = {
    {4, 4}, // NearestEven
    {0, 0}, // TowardZero
    {0, 7}, // Down
    {7, 0}, // Up
};

/**
 * Normalize, round and pack a finite result.
 *
 * Input: value = (-1)^sign * sig * 2^(exp - 26). The significand is
 * normalized into [2^26, 2^27) (24 significand bits plus three
 * guard/round/sticky bits), then rounded per the context's direction.
 * Underflow uses tininess-after-rounding, as x86 SSE does: an inexact
 * result is tiny when, rounded to 24 bits with an unbounded exponent,
 * it lies below 2^-126, and that includes one that rounds to zero.
 */
Word
normRoundPack(bool sign, int exp, std::uint64_t sig, Context &ctx)
{
    if (sig == 0)
        return sign ? negZero : posZero;

    // Normalize to [2^26, 2^27) in one shift. Shifting right by n with
    // jam leaves the same sticky bit as n one-bit jammed shifts.
    const int shift = 37 - std::countl_zero(sig);
    sig = shift > 0 ? shiftRightJam(sig, shift) : sig << -shift;
    exp += shift;

    const std::uint64_t inc = kRoundIncrement[int(ctx.rounding)][sign];

    // Denormalize if below the normal range.
    if (exp < expMin) {
        const bool tiny =
            exp < expMin - 1 || sig + inc < (std::uint64_t(1) << 27);
        sig = shiftRightJam(sig, expMin - exp);
        exp = expMin;
        if (tiny && (sig & 7) != 0)
            ctx.raise(FlagUnderflow);
    }

    const std::uint64_t round_bits = sig & 7;
    std::uint64_t rounded = (sig + inc) >> 3;
    // An exact tie under nearest-even rounds to even.
    rounded &= ~std::uint64_t((round_bits == 4)
                              & (ctx.rounding == Round::NearestEven));
    ctx.raise(std::uint8_t(round_bits != 0) * FlagInexact);

    // A carry out of the significand moves the exponent up one.
    const int carry = int(rounded >> 24);
    rounded >>= carry;
    exp += carry;

    if (exp > 127)
        return overflowResult(sign, ctx);

    // A subnormal or zero result has exp == expMin and no bit 23, so
    // adding the significand into the exponent field packs every case.
    return (sign ? signMask : 0) + (Word(exp + expBias - 1) << 23)
           + Word(rounded);
}

/** Integer square root of a 64-bit value (floor). */
std::uint64_t
isqrt64(std::uint64_t v)
{
    if (v == 0)
        return 0;
    std::uint64_t r = 0;
    // Start at the highest power of four not above v.
    std::uint64_t bit = std::uint64_t(1)
                        << ((63 - std::countl_zero(v)) & ~1);
    while (bit != 0) {
        if (v >= r + bit) {
            v -= r + bit;
            r = (r >> 1) + bit;
        } else {
            r >>= 1;
        }
        bit >>= 2;
    }
    return r;
}

/**
 * Sum or difference of two unpacked finite nonzero values — the single
 * rounding core shared by the fast and slow paths of add(), so both are
 * bit-identical by construction.
 */
Word
addCore(const Unpacked &ua, const Unpacked &ub, Context &ctx)
{
    // Align to the larger exponent, with three guard bits.
    std::uint64_t sa = std::uint64_t(ua.sig) << 3;
    std::uint64_t sb = std::uint64_t(ub.sig) << 3;
    int exp;
    if (ua.exp >= ub.exp) {
        sb = shiftRightJam(sb, ua.exp - ub.exp);
        exp = ua.exp;
    } else {
        sa = shiftRightJam(sa, ub.exp - ua.exp);
        exp = ub.exp;
    }

    if (ua.sign == ub.sign)
        return normRoundPack(ua.sign, exp, sa + sb, ctx);

    // Effective subtraction.
    bool rsign;
    std::uint64_t diff;
    if (sa > sb) {
        rsign = ua.sign;
        diff = sa - sb;
    } else if (sb > sa) {
        rsign = ub.sign;
        diff = sb - sa;
    } else {
        return ctx.rounding == Round::Down ? negZero : posZero;
    }
    return normRoundPack(rsign, exp, diff, ctx);
}

} // anonymous namespace

bool
isNaN(Word a)
{
    return (a & expMask) == expMask && packedFrac(a) != 0;
}

bool
isSignalingNaN(Word a)
{
    return isNaN(a) && (a & quietBit) == 0;
}

bool
isInf(Word a)
{
    return (a & expMask) == expMask && packedFrac(a) == 0;
}

bool
isZero(Word a)
{
    return (a & ~signMask) == 0;
}

bool
isSubnormal(Word a)
{
    return packedExp(a) == 0 && packedFrac(a) != 0;
}

bool
sign(Word a)
{
    return (a & signMask) != 0;
}

Word
neg(Word a)
{
    return a ^ signMask;
}

Word
abs(Word a)
{
    return a & ~signMask;
}

Word
add(Word a, Word b, Context &ctx)
{
    // Fast path: both operands normal, the overwhelmingly common case
    // in kernel inner loops. One range compare per operand replaces
    // the NaN/inf/zero classification chain and the subnormal
    // normalization loop; the rounding core is shared with the slow
    // path, so results are bit-identical.
    if (isNormal(a) && isNormal(b))
        return addCore(unpackNormal(a), unpackNormal(b), ctx);

    if (isNaN(a) || isNaN(b))
        return propagateNaN(a, b, ctx);

    if (isInf(a)) {
        if (isInf(b) && sign(a) != sign(b)) {
            ctx.raise(FlagInvalid);
            return defaultNaN;
        }
        return a;
    }
    if (isInf(b))
        return b;

    if (isZero(a) && isZero(b)) {
        if (sign(a) == sign(b))
            return a;
        return ctx.rounding == Round::Down ? negZero : posZero;
    }
    if (isZero(a))
        return b;
    if (isZero(b))
        return a;

    return addCore(unpack(a), unpack(b), ctx);
}

Word
sub(Word a, Word b, Context &ctx)
{
    if (isNaN(a) || isNaN(b))
        return propagateNaN(a, b, ctx);
    return add(a, neg(b), ctx);
}

Word
mul(Word a, Word b, Context &ctx)
{
    // Fast path: both operands normal (see add()). The slow path for
    // two normals performs exactly this computation, so results are
    // bit-identical.
    if (isNormal(a) && isNormal(b)) {
        Unpacked ua = unpackNormal(a);
        Unpacked ub = unpackNormal(b);
        std::uint64_t prod =
            std::uint64_t(ua.sig) * std::uint64_t(ub.sig);
        return normRoundPack(ua.sign != ub.sign,
                             ua.exp + ub.exp - 46 + 26, prod, ctx);
    }

    if (isNaN(a) || isNaN(b))
        return propagateNaN(a, b, ctx);

    bool rsign = sign(a) != sign(b);

    if (isInf(a) || isInf(b)) {
        if (isZero(a) || isZero(b)) {
            ctx.raise(FlagInvalid);
            return defaultNaN;
        }
        return rsign ? negInf : posInf;
    }
    if (isZero(a) || isZero(b))
        return rsign ? negZero : posZero;

    Unpacked ua = unpack(a);
    Unpacked ub = unpack(b);

    // Product of two 24-bit significands: 47 or 48 bits.
    std::uint64_t prod = std::uint64_t(ua.sig) * std::uint64_t(ub.sig);
    // value = prod * 2^(ea + eb - 46); normRoundPack wants 2^(exp - 26).
    return normRoundPack(rsign, ua.exp + ub.exp - 46 + 26, prod, ctx);
}

Word
mulAdd(Word a, Word b, Word c, Context &ctx)
{
    // NaN and invalid-combination handling first.
    bool any_snan = isSignalingNaN(a) || isSignalingNaN(b)
        || isSignalingNaN(c);
    bool prod_inf = (isInf(a) && !isZero(b)) || (isInf(b) && !isZero(a));
    bool prod_invalid = (isInf(a) && isZero(b)) || (isInf(b) && isZero(a));
    bool psign = sign(a) != sign(b);

    if (isNaN(a) || isNaN(b) || isNaN(c)) {
        if (any_snan || prod_invalid)
            ctx.raise(FlagInvalid);
        if (isNaN(a))
            return a | quietBit;
        if (isNaN(b))
            return b | quietBit;
        return c | quietBit;
    }
    if (prod_invalid) {
        ctx.raise(FlagInvalid);
        return defaultNaN;
    }
    if (prod_inf) {
        if (isInf(c) && sign(c) != psign) {
            ctx.raise(FlagInvalid);
            return defaultNaN;
        }
        return psign ? negInf : posInf;
    }
    if (isInf(c))
        return c;

    if (isZero(a) || isZero(b)) {
        // Exact product is a signed zero; fall back to the addition rules.
        Word pz = psign ? negZero : posZero;
        return add(pz, c, ctx);
    }

    Unpacked ua = unpack(a);
    Unpacked ub = unpack(b);

    // Exact product: up to 48 bits, value = prod * 2^(pexp - 46).
    std::uint64_t prod = std::uint64_t(ua.sig) * std::uint64_t(ub.sig);
    int pexp = ua.exp + ub.exp;

    if (isZero(c))
        return normRoundPack(psign, pexp - 46 + 26, prod, ctx);

    Unpacked uc = unpack(c);

    // Work at scale 2^(e - 72): product << 26, addend << 49. The widths
    // (74 and 73 bits max) fit an unsigned __int128 comfortably.
    u128 p128 = u128(prod) << 26;
    u128 c128 = u128(uc.sig) << 49;
    int ep = pexp;   // scale exponent of p128: value = p128 * 2^(ep - 72)
    int ec = uc.exp; // likewise for c128

    int exp;
    if (ep >= ec) {
        c128 = shiftRightJam128(c128, ep - ec);
        exp = ep;
    } else {
        p128 = shiftRightJam128(p128, ec - ep);
        exp = ec;
    }

    bool rsign;
    u128 mag;
    if (psign == uc.sign) {
        rsign = psign;
        mag = p128 + c128;
    } else if (p128 > c128) {
        rsign = psign;
        mag = p128 - c128;
    } else if (c128 > p128) {
        rsign = uc.sign;
        mag = c128 - p128;
    } else {
        return ctx.rounding == Round::Down ? negZero : posZero;
    }

    // Reduce to 63 bits with jam, tracking the scale change.
    const auto hi = std::uint64_t(mag >> 64);
    const int width = hi != 0 ? 128 - std::countl_zero(hi)
                              : std::bit_width(std::uint64_t(mag));
    const int shift = std::max(width - 63, 0);
    std::uint64_t sig64 = std::uint64_t(shiftRightJam128(mag, shift));

    // value = sig64 * 2^(exp - 72 + shift).
    return normRoundPack(rsign, exp - 72 + shift + 26, sig64, ctx);
}

Word
chainedMulAdd(Word a, Word b, Word c, Context &ctx)
{
    Word p = mul(a, b, ctx);
    return add(p, c, ctx);
}

Word
div(Word a, Word b, Context &ctx)
{
    if (isNaN(a) || isNaN(b))
        return propagateNaN(a, b, ctx);

    bool rsign = sign(a) != sign(b);

    if (isInf(a)) {
        if (isInf(b)) {
            ctx.raise(FlagInvalid);
            return defaultNaN;
        }
        return rsign ? negInf : posInf;
    }
    if (isInf(b))
        return rsign ? negZero : posZero;
    if (isZero(b)) {
        if (isZero(a)) {
            ctx.raise(FlagInvalid);
            return defaultNaN;
        }
        ctx.raise(FlagDivZero);
        return rsign ? negInf : posInf;
    }
    if (isZero(a))
        return rsign ? negZero : posZero;

    Unpacked ua = unpack(a);
    Unpacked ub = unpack(b);

    int exp = ua.exp - ub.exp;
    std::uint64_t sa = ua.sig;
    if (sa < ub.sig) {
        sa <<= 1;
        --exp;
    }
    // Now sa / sigB in [1, 2): a 27-bit quotient has the leading bit at
    // position 26, exactly the normRoundPack form.
    std::uint64_t num = sa << 26;
    std::uint64_t q = num / ub.sig;
    std::uint64_t rem = num - q * ub.sig;
    if (rem != 0)
        q |= 1; // sticky
    // value = q * 2^(exp - 26): already in the normRoundPack form.
    return normRoundPack(rsign, exp, q, ctx);
}

Word
sqrt(Word a, Context &ctx)
{
    if (isNaN(a)) {
        if (isSignalingNaN(a))
            ctx.raise(FlagInvalid);
        return a | quietBit;
    }
    if (isZero(a))
        return a;
    if (sign(a)) {
        ctx.raise(FlagInvalid);
        return defaultNaN;
    }
    if (isInf(a))
        return posInf;

    Unpacked ua = unpack(a);
    int e = ua.exp - 23; // value = sig * 2^e
    std::uint64_t m = ua.sig;
    if (e & 1) {
        m <<= 1;
        --e;
    }
    // sqrt(m * 2^e) = sqrt(m << 32) * 2^((e - 32) / 2)
    std::uint64_t wide = m << 32;
    std::uint64_t s = isqrt64(wide);
    std::uint64_t rem = wide - s * s;
    std::uint64_t sig = (s << 1) | (rem != 0 ? 1 : 0);
    // value = sig * 2^((e - 32) / 2 - 1)
    return normRoundPack(false, (e - 32) / 2 - 1 + 26, sig, ctx);
}

bool
eq(Word a, Word b, Context &ctx)
{
    if (isNaN(a) || isNaN(b)) {
        if (isSignalingNaN(a) || isSignalingNaN(b))
            ctx.raise(FlagInvalid);
        return false;
    }
    if (isZero(a) && isZero(b))
        return true;
    return a == b;
}

bool
lt(Word a, Word b, Context &ctx)
{
    if (isNaN(a) || isNaN(b)) {
        ctx.raise(FlagInvalid);
        return false;
    }
    bool sa = sign(a);
    bool sb = sign(b);
    if (isZero(a) && isZero(b))
        return false;
    if (sa != sb)
        return sa;
    Word ma = a & ~signMask;
    Word mb = b & ~signMask;
    return sa ? ma > mb : ma < mb;
}

bool
le(Word a, Word b, Context &ctx)
{
    if (isNaN(a) || isNaN(b)) {
        ctx.raise(FlagInvalid);
        return false;
    }
    return lt(a, b, ctx) || eq(a, b, ctx);
}

Word
fromInt32(std::int32_t v, Context &ctx)
{
    if (v == 0)
        return posZero;
    bool s = v < 0;
    std::uint64_t mag = s ? std::uint64_t(-std::int64_t(v))
        : std::uint64_t(v);
    // value = mag * 2^0: normRoundPack wants sig * 2^(exp - 26).
    return normRoundPack(s, 26, mag, ctx);
}

std::int32_t
toInt32(Word a, Context &ctx)
{
    if (isNaN(a)) {
        ctx.raise(FlagInvalid);
        return 0;
    }
    if (isInf(a)) {
        ctx.raise(FlagInvalid);
        return sign(a) ? INT32_MIN : INT32_MAX;
    }
    if (isZero(a))
        return 0;

    Unpacked u = unpack(a);
    // value = sig * 2^(exp - 23)
    int shift = u.exp - 23;
    std::uint64_t mag;
    std::uint64_t round_bits = 0;
    if (shift >= 0) {
        if (shift > 8 || (std::uint64_t(u.sig) << shift)
                > std::uint64_t(INT32_MAX) + (u.sign ? 1 : 0)) {
            ctx.raise(FlagInvalid);
            return u.sign ? INT32_MIN : INT32_MAX;
        }
        mag = std::uint64_t(u.sig) << shift;
    } else {
        int rs = -shift;
        std::uint64_t scaled = shiftRightJam(std::uint64_t(u.sig) << 3,
                                             rs);
        round_bits = scaled & 7;
        mag = scaled >> 3;
        std::uint64_t inc = 0;
        switch (ctx.rounding) {
          case Round::NearestEven:
            if (round_bits > 4 || (round_bits == 4 && (mag & 1)))
                inc = 1;
            break;
          case Round::TowardZero:
            break;
          case Round::Down:
            if (u.sign && round_bits)
                inc = 1;
            break;
          case Round::Up:
            if (!u.sign && round_bits)
                inc = 1;
            break;
        }
        mag += inc;
        if (round_bits)
            ctx.raise(FlagInexact);
        if (mag > std::uint64_t(INT32_MAX) + (u.sign ? 1 : 0)) {
            ctx.raise(FlagInvalid);
            return u.sign ? INT32_MIN : INT32_MAX;
        }
    }
    return u.sign ? std::int32_t(-std::int64_t(mag)) : std::int32_t(mag);
}

} // namespace opac::sf
