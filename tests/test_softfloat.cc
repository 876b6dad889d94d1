/**
 * @file
 * Tests for the bit-accurate binary32 implementation.
 *
 * The oracle is the host's IEEE-754 hardware arithmetic (x86 SSE), driven
 * through volatile operands so the compiler cannot fold operations at
 * translation time. Random sweeps use an encoding distribution that is
 * heavily biased toward the hard paths: subnormals, near-overflow,
 * massive cancellation and exact ties.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "softfloat/float32.hh"

using namespace opac;
namespace sf = opac::sf;

namespace
{

/** Biased random float32 encoding: hits subnormal/overflow paths often. */
Word
interestingWord(Rng &rng)
{
    Word sign = Word(rng.range(0, 1)) << 31;
    Word frac = Word(rng.next() & 0x7fffff);
    Word exp;
    switch (rng.range(0, 9)) {
      case 0:
        exp = 0; // zero or subnormal
        break;
      case 1:
        exp = 1; // smallest normals
        break;
      case 2:
        exp = 0xfe; // largest normals
        break;
      case 3:
        exp = 0xff; // inf / NaN
        break;
      case 4:
      case 5:
        // Near 1.0: the dense middle where cancellation happens.
        exp = Word(127 + rng.range(-3, 3));
        break;
      default:
        exp = Word(rng.range(0, 0xff));
        break;
    }
    return sign | (exp << 23) | frac;
}

/** Bit equality, treating every NaN encoding as equal. */
void
expectSameValue(Word expect, Word got, const std::string &what)
{
    if (sf::isNaN(expect) && sf::isNaN(got))
        return;
    EXPECT_EQ(expect, got) << what;
}

float
nativeAdd(float a, float b)
{
    volatile float x = a, y = b;
    return x + y;
}

float
nativeSub(float a, float b)
{
    volatile float x = a, y = b;
    return x - y;
}

float
nativeMul(float a, float b)
{
    volatile float x = a, y = b;
    return x * y;
}

float
nativeDiv(float a, float b)
{
    volatile float x = a, y = b;
    return x / y;
}

float
nativeSqrt(float a)
{
    volatile float x = a;
    return std::sqrt(x);
}

float
nativeFma(float a, float b, float c)
{
    volatile float x = a, y = b, z = c;
    return std::fmaf(x, y, z);
}

struct FeRoundGuard
{
    explicit FeRoundGuard(int mode) : saved(std::fegetround())
    {
        std::fesetround(mode);
    }
    ~FeRoundGuard() { std::fesetround(saved); }
    int saved;
};

int
feModeFor(sf::Round r)
{
    switch (r) {
      case sf::Round::NearestEven: return FE_TONEAREST;
      case sf::Round::TowardZero: return FE_TOWARDZERO;
      case sf::Round::Down: return FE_DOWNWARD;
      case sf::Round::Up: return FE_UPWARD;
    }
    return FE_TONEAREST;
}

} // anonymous namespace

TEST(Classify, Basics)
{
    EXPECT_TRUE(sf::isZero(sf::posZero));
    EXPECT_TRUE(sf::isZero(sf::negZero));
    EXPECT_TRUE(sf::isInf(sf::posInf));
    EXPECT_TRUE(sf::isInf(sf::negInf));
    EXPECT_TRUE(sf::isNaN(sf::defaultNaN));
    EXPECT_FALSE(sf::isSignalingNaN(sf::defaultNaN));
    EXPECT_TRUE(sf::isSignalingNaN(0x7f800001u));
    EXPECT_TRUE(sf::isSubnormal(0x00000001u));
    EXPECT_FALSE(sf::isSubnormal(0x00800000u));
    EXPECT_TRUE(sf::sign(sf::negZero));
    EXPECT_FALSE(sf::sign(sf::posZero));
}

TEST(Arith, AddSpecials)
{
    sf::Context ctx;
    // inf + (-inf) is invalid.
    EXPECT_TRUE(sf::isNaN(sf::add(sf::posInf, sf::negInf, ctx)));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));

    ctx.clearFlags();
    EXPECT_EQ(sf::add(sf::posInf, floatToWord(1.0f), ctx), sf::posInf);
    EXPECT_EQ(sf::add(sf::negZero, sf::posZero, ctx), sf::posZero);
    EXPECT_EQ(sf::add(sf::negZero, sf::negZero, ctx), sf::negZero);
    EXPECT_EQ(ctx.flags, 0);

    // x + (-x) is +0 under round-to-nearest, -0 under round-down.
    Word x = floatToWord(3.25f);
    EXPECT_EQ(sf::add(x, sf::neg(x), ctx), sf::posZero);
    sf::Context down{sf::Round::Down, 0};
    EXPECT_EQ(sf::add(x, sf::neg(x), down), sf::negZero);
}

TEST(Arith, MulSpecials)
{
    sf::Context ctx;
    EXPECT_TRUE(sf::isNaN(sf::mul(sf::posInf, sf::posZero, ctx)));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));

    ctx.clearFlags();
    EXPECT_EQ(sf::mul(sf::posInf, floatToWord(-2.0f), ctx), sf::negInf);
    EXPECT_EQ(sf::mul(floatToWord(-2.0f), sf::posZero, ctx), sf::negZero);
    EXPECT_EQ(ctx.flags, 0);
}

TEST(Arith, DivSpecials)
{
    sf::Context ctx;
    EXPECT_TRUE(sf::isNaN(sf::div(sf::posZero, sf::posZero, ctx)));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));

    ctx.clearFlags();
    EXPECT_EQ(sf::div(floatToWord(1.0f), sf::posZero, ctx), sf::posInf);
    EXPECT_TRUE(ctx.raised(sf::FlagDivZero));

    ctx.clearFlags();
    EXPECT_EQ(sf::div(floatToWord(-1.0f), sf::posInf, ctx), sf::negZero);
    EXPECT_TRUE(sf::isNaN(sf::div(sf::posInf, sf::negInf, ctx)));
}

TEST(Arith, SqrtSpecials)
{
    sf::Context ctx;
    EXPECT_EQ(sf::sqrt(sf::posZero, ctx), sf::posZero);
    EXPECT_EQ(sf::sqrt(sf::negZero, ctx), sf::negZero);
    EXPECT_EQ(sf::sqrt(sf::posInf, ctx), sf::posInf);
    EXPECT_TRUE(sf::isNaN(sf::sqrt(floatToWord(-1.0f), ctx)));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));
    EXPECT_EQ(sf::sqrt(floatToWord(4.0f), ctx), floatToWord(2.0f));
}

TEST(Arith, FmaSpecials)
{
    sf::Context ctx;
    // inf * 0 + anything finite: invalid.
    EXPECT_TRUE(sf::isNaN(sf::mulAdd(sf::posInf, sf::posZero,
                                     floatToWord(1.0f), ctx)));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));

    ctx.clearFlags();
    // inf product + opposite inf addend: invalid.
    EXPECT_TRUE(sf::isNaN(sf::mulAdd(sf::posInf, floatToWord(1.0f),
                                     sf::negInf, ctx)));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));

    ctx.clearFlags();
    // Zero product falls back to addition semantics.
    EXPECT_EQ(sf::mulAdd(sf::negZero, floatToWord(5.0f), sf::posZero, ctx),
              sf::posZero);
    EXPECT_EQ(sf::mulAdd(sf::posZero, floatToWord(5.0f),
                         floatToWord(3.0f), ctx),
              floatToWord(3.0f));
}

TEST(Arith, FmaSingleRounding)
{
    // Pick a case where fused and chained differ: a*b exactly representable
    // only with > 24 bits; adding c cancels the high part.
    sf::Context ctx;
    Word a = floatToWord(1.0f + std::ldexp(1.0f, -12)); // 1 + 2^-12
    Word b = a;
    // a*b = 1 + 2^-11 + 2^-24 exactly (25 bits needed).
    Word c = floatToWord(-1.0f);
    Word fused = sf::mulAdd(a, b, c, ctx);
    Word chained = sf::chainedMulAdd(a, b, c, ctx);
    float expect_fused = float(std::ldexp(1.0, -11) + std::ldexp(1.0, -24));
    EXPECT_EQ(fused, floatToWord(expect_fused));
    EXPECT_NE(fused, chained); // the chained path loses the 2^-24 term
}

TEST(Arith, RandomAddSubMatchesNative)
{
    Rng rng(0xadd);
    sf::Context ctx;
    for (int i = 0; i < 200000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        Word got = sf::add(a, b, ctx);
        Word expect = floatToWord(nativeAdd(wordToFloat(a),
                                            wordToFloat(b)));
        expectSameValue(expect, got,
                        strfmt("add(%08x, %08x)", a, b));
        got = sf::sub(a, b, ctx);
        expect = floatToWord(nativeSub(wordToFloat(a), wordToFloat(b)));
        expectSameValue(expect, got,
                        strfmt("sub(%08x, %08x)", a, b));
        if (HasFailure())
            break;
    }
}

TEST(Arith, RandomMulMatchesNative)
{
    Rng rng(0x321);
    sf::Context ctx;
    for (int i = 0; i < 200000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        Word got = sf::mul(a, b, ctx);
        Word expect = floatToWord(nativeMul(wordToFloat(a),
                                            wordToFloat(b)));
        expectSameValue(expect, got, strfmt("mul(%08x, %08x)", a, b));
        if (HasFailure())
            break;
    }
}

TEST(Arith, RandomDivMatchesNative)
{
    Rng rng(0xd1f);
    sf::Context ctx;
    for (int i = 0; i < 100000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        Word got = sf::div(a, b, ctx);
        Word expect = floatToWord(nativeDiv(wordToFloat(a),
                                            wordToFloat(b)));
        expectSameValue(expect, got, strfmt("div(%08x, %08x)", a, b));
        if (HasFailure())
            break;
    }
}

TEST(Arith, RandomSqrtMatchesNative)
{
    Rng rng(0x5c7);
    sf::Context ctx;
    for (int i = 0; i < 100000; ++i) {
        Word a = interestingWord(rng) & 0x7fffffffu; // non-negative
        Word got = sf::sqrt(a, ctx);
        Word expect = floatToWord(nativeSqrt(wordToFloat(a)));
        expectSameValue(expect, got, strfmt("sqrt(%08x)", a));
        if (HasFailure())
            break;
    }
}

TEST(Arith, RandomFmaMatchesNative)
{
    Rng rng(0xf3a);
    sf::Context ctx;
    for (int i = 0; i < 100000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        Word c = interestingWord(rng);
        Word got = sf::mulAdd(a, b, c, ctx);
        Word expect = floatToWord(nativeFma(wordToFloat(a), wordToFloat(b),
                                            wordToFloat(c)));
        expectSameValue(expect, got,
                        strfmt("fma(%08x, %08x, %08x)", a, b, c));
        if (HasFailure())
            break;
    }
}

class RoundingModes : public ::testing::TestWithParam<sf::Round>
{};

TEST_P(RoundingModes, RandomOpsMatchNative)
{
    sf::Round rm = GetParam();
    FeRoundGuard guard(feModeFor(rm));
    Rng rng(0x40d + unsigned(rm));
    sf::Context ctx{rm, 0};
    for (int i = 0; i < 50000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        Word got = sf::add(a, b, ctx);
        Word expect = floatToWord(nativeAdd(wordToFloat(a),
                                            wordToFloat(b)));
        expectSameValue(expect, got,
                        strfmt("add rm=%d (%08x, %08x)", int(rm), a, b));

        got = sf::mul(a, b, ctx);
        expect = floatToWord(nativeMul(wordToFloat(a), wordToFloat(b)));
        expectSameValue(expect, got,
                        strfmt("mul rm=%d (%08x, %08x)", int(rm), a, b));

        got = sf::div(a, b, ctx);
        expect = floatToWord(nativeDiv(wordToFloat(a), wordToFloat(b)));
        expectSameValue(expect, got,
                        strfmt("div rm=%d (%08x, %08x)", int(rm), a, b));
        if (HasFailure())
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, RoundingModes,
    ::testing::Values(sf::Round::NearestEven, sf::Round::TowardZero,
                      sf::Round::Down, sf::Round::Up));

TEST(Flags, OverflowAndInexact)
{
    sf::Context ctx;
    Word big = floatToWord(3.0e38f);
    Word r = sf::mul(big, big, ctx);
    EXPECT_EQ(r, sf::posInf);
    EXPECT_TRUE(ctx.raised(sf::FlagOverflow));
    EXPECT_TRUE(ctx.raised(sf::FlagInexact));
}

TEST(Flags, OverflowRoundTowardZeroGivesMaxFinite)
{
    sf::Context ctx{sf::Round::TowardZero, 0};
    Word big = floatToWord(3.0e38f);
    Word r = sf::mul(big, big, ctx);
    EXPECT_EQ(r, 0x7f7fffffu);
    EXPECT_TRUE(ctx.raised(sf::FlagOverflow));
}

TEST(Flags, UnderflowOnTinyInexactResult)
{
    sf::Context ctx;
    Word tiny = floatToWord(1.0e-38f);
    Word r = sf::mul(tiny, floatToWord(0.1f), ctx);
    EXPECT_TRUE(sf::isSubnormal(r));
    EXPECT_TRUE(ctx.raised(sf::FlagUnderflow));
    EXPECT_TRUE(ctx.raised(sf::FlagInexact));
}

TEST(Flags, ExactOpsRaiseNothing)
{
    sf::Context ctx;
    sf::add(floatToWord(1.0f), floatToWord(2.0f), ctx);
    sf::mul(floatToWord(1.5f), floatToWord(2.0f), ctx);
    sf::div(floatToWord(1.0f), floatToWord(2.0f), ctx);
    EXPECT_EQ(ctx.flags, 0);
}

TEST(Properties, AddCommutes)
{
    Rng rng(0xc0);
    sf::Context ctx;
    for (int i = 0; i < 20000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        expectSameValue(sf::add(a, b, ctx), sf::add(b, a, ctx),
                        strfmt("add comm (%08x, %08x)", a, b));
    }
}

TEST(Properties, MulCommutes)
{
    Rng rng(0xc1);
    sf::Context ctx;
    for (int i = 0; i < 20000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        expectSameValue(sf::mul(a, b, ctx), sf::mul(b, a, ctx),
                        strfmt("mul comm (%08x, %08x)", a, b));
    }
}

TEST(Properties, MulByOneIsIdentity)
{
    Rng rng(0xc2);
    sf::Context ctx;
    Word one = floatToWord(1.0f);
    for (int i = 0; i < 20000; ++i) {
        Word a = interestingWord(rng);
        if (sf::isNaN(a))
            continue;
        EXPECT_EQ(sf::mul(a, one, ctx), a);
    }
}

TEST(Properties, FmaWithZeroAddendIsMul)
{
    Rng rng(0xc3);
    for (int i = 0; i < 20000; ++i) {
        Word a = interestingWord(rng);
        Word b = interestingWord(rng);
        sf::Context c1, c2;
        expectSameValue(sf::mul(a, b, c1),
                        sf::mulAdd(a, b, sf::posZero, c2),
                        strfmt("fma0 (%08x, %08x)", a, b));
    }
}

namespace
{

/** Curated encodings covering every boundary of the binary32 format. */
std::vector<Word>
boundaryValues()
{
    std::vector<Word> v = {
        0x00000000u, 0x80000000u, // zeros
        0x00000001u, 0x80000001u, // smallest subnormals
        0x00000002u, 0x00400000u, // mid subnormals
        0x007fffffu, 0x807fffffu, // largest subnormals
        0x00800000u, 0x80800000u, // smallest normals
        0x00800001u,              // smallest normal + 1 ulp
        0x7f7fffffu, 0xff7fffffu, // largest finites
        0x7f7ffffeu,              // largest finite - 1 ulp
        0x7f800000u, 0xff800000u, // infinities
        0x3f800000u, 0xbf800000u, // +-1
        0x3f800001u, 0x3f7fffffu, // 1 +- 1 ulp
        0x40000000u, 0xc0000000u, // +-2
        0x3f000000u,              // 0.5
        0x4b800000u,              // 2^24 (integer precision edge)
        0x4b7fffffu, 0x4b800001u,
        0x34000000u,              // 2^-23 (1 ulp of 1.0)
        0x33800000u,              // 2^-24 (tie point against 1.0)
        0x73800000u, 0x0b800000u, // large/small powers of two
        0x3effffffu, 0x3f000001u, // just below/above 0.5
        0x7f000000u,              // 2^127
        0x00ffffffu,              // just above 2 * min normal
        0x40490fdbu,              // pi
        0x402df854u,              // e
    };
    return v;
}

} // anonymous namespace

TEST(Boundary, AllPairsAddSubMulDivMatchNative)
{
    auto vals = boundaryValues();
    sf::Context ctx;
    for (Word a : vals) {
        for (Word b : vals) {
            expectSameValue(floatToWord(nativeAdd(wordToFloat(a),
                                                  wordToFloat(b))),
                            sf::add(a, b, ctx),
                            strfmt("add(%08x, %08x)", a, b));
            expectSameValue(floatToWord(nativeSub(wordToFloat(a),
                                                  wordToFloat(b))),
                            sf::sub(a, b, ctx),
                            strfmt("sub(%08x, %08x)", a, b));
            expectSameValue(floatToWord(nativeMul(wordToFloat(a),
                                                  wordToFloat(b))),
                            sf::mul(a, b, ctx),
                            strfmt("mul(%08x, %08x)", a, b));
            expectSameValue(floatToWord(nativeDiv(wordToFloat(a),
                                                  wordToFloat(b))),
                            sf::div(a, b, ctx),
                            strfmt("div(%08x, %08x)", a, b));
            if (HasFailure())
                return;
        }
    }
}

TEST(Boundary, AllSqrtsMatchNative)
{
    sf::Context ctx;
    for (Word a : boundaryValues()) {
        expectSameValue(floatToWord(nativeSqrt(wordToFloat(a))),
                        sf::sqrt(a, ctx), strfmt("sqrt(%08x)", a));
    }
}

TEST(Boundary, AllTriplesFmaMatchNative)
{
    auto vals = boundaryValues();
    sf::Context ctx;
    for (Word a : vals) {
        for (Word b : vals) {
            for (Word c : vals) {
                Word got = sf::mulAdd(a, b, c, ctx);
                Word expect = floatToWord(
                    nativeFma(wordToFloat(a), wordToFloat(b),
                              wordToFloat(c)));
                if (sf::isNaN(expect) && sf::isNaN(got))
                    continue;
                if (expect != got) {
                    ADD_FAILURE() << strfmt(
                        "fma(%08x, %08x, %08x): expect %08x got %08x",
                        a, b, c, expect, got);
                    return;
                }
            }
        }
    }
}

TEST(Boundary, AllPairsDirectedRoundingMatchNative)
{
    auto vals = boundaryValues();
    for (sf::Round rm : {sf::Round::TowardZero, sf::Round::Down,
                         sf::Round::Up}) {
        FeRoundGuard guard(feModeFor(rm));
        sf::Context ctx{rm, 0};
        for (Word a : vals) {
            for (Word b : vals) {
                expectSameValue(floatToWord(nativeAdd(wordToFloat(a),
                                                      wordToFloat(b))),
                                sf::add(a, b, ctx),
                                strfmt("add rm=%d (%08x, %08x)",
                                       int(rm), a, b));
                expectSameValue(floatToWord(nativeMul(wordToFloat(a),
                                                      wordToFloat(b))),
                                sf::mul(a, b, ctx),
                                strfmt("mul rm=%d (%08x, %08x)",
                                       int(rm), a, b));
                if (HasFailure())
                    return;
            }
        }
    }
}

namespace
{

/**
 * The flags of the IEEE exceptions the host raises while computing
 * @p op. x86-64 SSE detects tininess after rounding, as the soft model
 * does; other hosts may detect it before rounding.
 */
template <typename Op>
std::uint8_t
hostFlags(Op op)
{
    std::feclearexcept(FE_ALL_EXCEPT);
    volatile float r = op();
    (void)r;
    const int fe = std::fetestexcept(FE_ALL_EXCEPT);
    return std::uint8_t((fe & FE_INEXACT ? sf::FlagInexact : 0)
                        | (fe & FE_UNDERFLOW ? sf::FlagUnderflow : 0)
                        | (fe & FE_OVERFLOW ? sf::FlagOverflow : 0)
                        | (fe & FE_DIVBYZERO ? sf::FlagDivZero : 0)
                        | (fe & FE_INVALID ? sf::FlagInvalid : 0));
}

/** One operation's soft flags against the host's, in mode @p rm. */
template <typename Soft, typename Host>
void
expectHostFlags(const std::string &what, sf::Round rm, Soft soft,
                Host host)
{
    sf::Context ctx{rm, 0};
    soft(ctx);
    EXPECT_EQ(unsigned(hostFlags(host)), unsigned(ctx.flags))
        << what << " rm=" << int(rm);
}

/** add, sub, mul and div of @p a and @p b, and sqrt of @p a. */
void
expectHostFlagsAllOps(Word a, Word b, sf::Round rm)
{
    const float x = wordToFloat(a), y = wordToFloat(b);
    expectHostFlags(strfmt("add(%08x, %08x)", a, b), rm,
                    [&](sf::Context &c) { sf::add(a, b, c); },
                    [&] { return nativeAdd(x, y); });
    expectHostFlags(strfmt("sub(%08x, %08x)", a, b), rm,
                    [&](sf::Context &c) { sf::sub(a, b, c); },
                    [&] { return nativeSub(x, y); });
    expectHostFlags(strfmt("mul(%08x, %08x)", a, b), rm,
                    [&](sf::Context &c) { sf::mul(a, b, c); },
                    [&] { return nativeMul(x, y); });
    expectHostFlags(strfmt("div(%08x, %08x)", a, b), rm,
                    [&](sf::Context &c) { sf::div(a, b, c); },
                    [&] { return nativeDiv(x, y); });
    expectHostFlags(strfmt("sqrt(%08x)", a), rm,
                    [&](sf::Context &c) { sf::sqrt(a, c); },
                    [&] { return nativeSqrt(x); });
}

constexpr sf::Round kAllRoundings[] = {
    sf::Round::NearestEven, sf::Round::TowardZero, sf::Round::Down,
    sf::Round::Up};

#if defined(__x86_64__)
constexpr bool kHostFlagsComparable = true;
#else
constexpr bool kHostFlagsComparable = false;
#endif

} // anonymous namespace

TEST(Flags, BoundaryPairsMatchHost)
{
    if (!kHostFlagsComparable)
        GTEST_SKIP() << "host exception flags are compared on x86-64";
    auto vals = boundaryValues();
    for (sf::Round rm : kAllRoundings) {
        FeRoundGuard guard(feModeFor(rm));
        for (Word a : vals) {
            for (Word b : vals) {
                expectHostFlagsAllOps(a, b, rm);
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST(Flags, RandomOpsMatchHost)
{
    if (!kHostFlagsComparable)
        GTEST_SKIP() << "host exception flags are compared on x86-64";
    for (sf::Round rm : kAllRoundings) {
        FeRoundGuard guard(feModeFor(rm));
        Rng rng(0xf1a6 + unsigned(rm));
        for (int i = 0; i < 50000; ++i) {
            const Word a = interestingWord(rng);
            const Word b = interestingWord(rng);
            expectHostFlagsAllOps(a, b, rm);
            if (HasFailure())
                return;
        }
    }
}

TEST(Compare, Ordering)
{
    sf::Context ctx;
    Word one = floatToWord(1.0f);
    Word two = floatToWord(2.0f);
    EXPECT_TRUE(sf::lt(one, two, ctx));
    EXPECT_FALSE(sf::lt(two, one, ctx));
    EXPECT_TRUE(sf::le(one, one, ctx));
    EXPECT_TRUE(sf::lt(floatToWord(-2.0f), floatToWord(-1.0f), ctx));
    EXPECT_TRUE(sf::eq(sf::posZero, sf::negZero, ctx));
    EXPECT_FALSE(sf::lt(sf::posZero, sf::negZero, ctx));
}

TEST(Compare, NaNBehaviour)
{
    sf::Context ctx;
    EXPECT_FALSE(sf::eq(sf::defaultNaN, sf::defaultNaN, ctx));
    EXPECT_EQ(ctx.flags, 0); // quiet compare, qNaN: no invalid

    EXPECT_FALSE(sf::lt(sf::defaultNaN, floatToWord(1.0f), ctx));
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid)); // signaling compare
}

TEST(Convert, Int32RoundTrip)
{
    sf::Context ctx;
    for (std::int32_t v : {0, 1, -1, 42, -100000, 16777216, INT32_MAX,
                           INT32_MIN}) {
        Word w = sf::fromInt32(v, ctx);
        EXPECT_EQ(wordToFloat(w), float(v)) << v;
    }
    EXPECT_EQ(sf::toInt32(floatToWord(3.5f), ctx), 4); // ties to even
    EXPECT_EQ(sf::toInt32(floatToWord(2.5f), ctx), 2);
    EXPECT_EQ(sf::toInt32(floatToWord(-3.5f), ctx), -4);
    EXPECT_EQ(sf::toInt32(floatToWord(-2.0e9f), ctx), -2000000000);
}

TEST(Convert, Int32Saturation)
{
    sf::Context ctx;
    EXPECT_EQ(sf::toInt32(floatToWord(3.0e9f), ctx), INT32_MAX);
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));
    ctx.clearFlags();
    EXPECT_EQ(sf::toInt32(sf::negInf, ctx), INT32_MIN);
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));
    ctx.clearFlags();
    EXPECT_EQ(sf::toInt32(sf::defaultNaN, ctx), 0);
    EXPECT_TRUE(ctx.raised(sf::FlagInvalid));
}

TEST(Convert, RandomFromInt32MatchesNative)
{
    Rng rng(0x1c4);
    sf::Context ctx;
    for (int i = 0; i < 50000; ++i) {
        auto v = std::int32_t(rng.next());
        Word got = sf::fromInt32(v, ctx);
        volatile std::int32_t vv = v;
        float expect = float(vv);
        EXPECT_EQ(got, floatToWord(expect)) << v;
        if (HasFailure())
            break;
    }
}
