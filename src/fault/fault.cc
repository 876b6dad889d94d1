#include "fault/fault.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace opac::fault
{

namespace
{

constexpr const char specSite[] = "faults-spec";

[[noreturn]] void
specFail(const std::string &what)
{
    throw FaultSpecError(specSite, what);
}

std::uint64_t
parseU64(const std::string &text, const char *key)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size())
        specFail(strfmt("bad %s value '%s'", key, text.c_str()));
    return v;
}

double
parseDouble(const std::string &text, const char *key)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || v < 0)
        specFail(strfmt("bad %s value '%s'", key, text.c_str()));
    return v;
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(sep, start);
        if (end == std::string::npos)
            end = text.size();
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

FaultKind
kindFromName(const std::string &name)
{
    for (unsigned k = 0; k < unsigned(FaultKind::numKinds); ++k)
        if (name == faultKindName(FaultKind(k)))
            return FaultKind(k);
    specFail(strfmt("unknown fault kind '%s'", name.c_str()));
}

FifoSite
siteFromName(const std::string &name)
{
    for (unsigned s = 0; s < unsigned(FifoSite::numSites); ++s)
        if (name == fifoSiteName(FifoSite(s)))
            return FifoSite(s);
    specFail(strfmt("unknown fifo site '%s'", name.c_str()));
}

/**
 * Parse "C/KIND[/CELL[/SITE][/ARG]]". SITE is accepted only for the
 * kinds that target a FIFO; the trailing number is the flip mask, hang
 * duration or memory delay depending on the kind.
 */
FaultEvent
parseExplicit(const std::string &text)
{
    std::vector<std::string> f = split(text, '/');
    if (f.size() < 2)
        specFail(strfmt("at=%s needs at least CYCLE/KIND", text.c_str()));
    FaultEvent e;
    e.at = parseU64(f[0], "at cycle");
    e.kind = kindFromName(f[1]);
    std::size_t i = 2;
    if (i < f.size())
        e.cell = unsigned(parseU64(f[i++], "at cell"));
    bool wantsSite =
        e.kind == FaultKind::FifoFlip || e.kind == FaultKind::BusReorder;
    if (wantsSite && i < f.size())
        e.site = siteFromName(f[i++]);
    if (i < f.size()) {
        std::uint64_t arg = parseU64(f[i++], "at arg");
        if (e.kind == FaultKind::FifoFlip)
            e.mask = Word(arg);
        else
            e.arg = arg;
    }
    if (i < f.size())
        specFail(strfmt("at=%s has trailing fields", text.c_str()));
    if (e.kind == FaultKind::FifoFlip && e.mask == 0)
        specFail("flip mask must be non-zero");
    return e;
}

std::uint32_t
parseKinds(const std::string &text)
{
    std::uint32_t mask = 0;
    for (const std::string &name : split(text, '+')) {
        if (name == "all")
            return 0;
        mask |= 1u << unsigned(kindFromName(name));
    }
    if (mask == 0)
        specFail("empty kinds list");
    return mask;
}

} // anonymous namespace

const char *
parityModeName(ParityMode m)
{
    switch (m) {
      case ParityMode::Off:
        return "off";
      case ParityMode::Detect:
        return "detect";
      case ParityMode::Correct:
        return "correct";
    }
    return "?";
}

ParityMode
parseParityMode(const std::string &text)
{
    for (ParityMode m :
         {ParityMode::Off, ParityMode::Detect, ParityMode::Correct})
        if (text == parityModeName(m))
            return m;
    throw FaultSpecError("parity-spec",
                         strfmt("unknown parity mode '%s' (want off, "
                                "detect or correct)",
                                text.c_str()));
}

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::FifoFlip:
        return "flip";
      case FaultKind::BusDrop:
        return "drop";
      case FaultKind::BusDup:
        return "dup";
      case FaultKind::BusReorder:
        return "reorder";
      case FaultKind::CellHang:
        return "hang";
      case FaultKind::SpuriousHalt:
        return "halt";
      case FaultKind::MemLatency:
        return "mem";
      case FaultKind::numKinds:
        break;
    }
    return "?";
}

const char *
fifoSiteName(FifoSite s)
{
    switch (s) {
      case FifoSite::TpX:
        return "tpx";
      case FifoSite::TpY:
        return "tpy";
      case FifoSite::TpO:
        return "tpo";
      case FifoSite::TpI:
        return "tpi";
      case FifoSite::Sum:
        return "sum";
      case FifoSite::Ret:
        return "ret";
      case FifoSite::Reby:
        return "reby";
      case FifoSite::numSites:
        break;
    }
    return "?";
}

unsigned
FaultSpec::randomCount() const
{
    if (count)
        return count;
    return unsigned(ratePerMcycle * double(horizon) / 1e6 + 0.5);
}

bool
FaultSpec::any() const
{
    return randomCount() > 0 || !explicitEvents.empty();
}

FaultSpec
parseFaultSpec(const std::string &text)
{
    FaultSpec spec;
    if (text.empty())
        return spec;
    for (const std::string &token : split(text, ',')) {
        if (token.empty())
            continue;
        std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            specFail(strfmt("token '%s' is not key=value", token.c_str()));
        std::string key = token.substr(0, eq);
        std::string val = token.substr(eq + 1);
        if (key == "seed") {
            spec.seed = parseU64(val, "seed");
        } else if (key == "rate") {
            spec.ratePerMcycle = parseDouble(val, "rate");
        } else if (key == "n") {
            spec.count = unsigned(parseU64(val, "n"));
        } else if (key == "horizon") {
            spec.horizon = parseU64(val, "horizon");
            if (spec.horizon == 0)
                specFail("horizon must be positive");
        } else if (key == "kinds") {
            spec.kindMask = parseKinds(val);
        } else if (key == "bits") {
            std::uint64_t bits = parseU64(val, "bits");
            if (bits < 1 || bits > 2)
                specFail("bits must be 1 or 2");
            spec.maxFlipBits = unsigned(bits);
        } else if (key == "at") {
            spec.explicitEvents.push_back(parseExplicit(val));
        } else {
            specFail(strfmt("unknown key '%s'", key.c_str()));
        }
    }
    return spec;
}

std::vector<FaultEvent>
buildPlan(const FaultSpec &spec, unsigned cells)
{
    opac_assert(cells > 0, "fault plan for zero cells");
    std::vector<FaultKind> kinds;
    for (unsigned k = 0; k < unsigned(FaultKind::numKinds); ++k)
        if (spec.kindEnabled(FaultKind(k)))
            kinds.push_back(FaultKind(k));

    std::vector<FaultEvent> plan;
    Rng rng(spec.seed ? spec.seed : 1);
    unsigned n = kinds.empty() ? 0 : spec.randomCount();
    plan.reserve(n + spec.explicitEvents.size());
    for (unsigned i = 0; i < n; ++i) {
        FaultEvent e;
        e.at = rng.range(1, spec.horizon);
        e.kind = kinds[std::size_t(rng.range(0, kinds.size() - 1))];
        e.cell = unsigned(rng.range(0, cells - 1));
        switch (e.kind) {
          case FaultKind::FifoFlip: {
            e.site =
                FifoSite(rng.range(0, unsigned(FifoSite::numSites) - 1));
            unsigned b1 = unsigned(rng.range(0, 31));
            e.mask = 1u << b1;
            if (spec.maxFlipBits >= 2 && rng.range(0, 1)) {
                unsigned b2 = unsigned(rng.range(0, 30));
                if (b2 >= b1)
                    ++b2;
                e.mask |= 1u << b2;
            }
            break;
          }
          case FaultKind::BusReorder: {
            // Reorder only makes sense on the bus-fed input queues.
            static const FifoSite inputs[] = {FifoSite::TpX,
                                              FifoSite::TpY,
                                              FifoSite::TpI};
            e.site = inputs[std::size_t(rng.range(0, 2))];
            break;
          }
          case FaultKind::CellHang:
            // Random hangs are always bounded; permanent hangs (arg=0)
            // are only available as explicit events, because a
            // permanent hang is survivable only with recovery enabled.
            e.arg = rng.range(200, 2000);
            break;
          case FaultKind::MemLatency:
            e.arg = rng.range(20, 200);
            break;
          case FaultKind::BusDrop:
          case FaultKind::BusDup:
          case FaultKind::SpuriousHalt:
          case FaultKind::numKinds:
            break;
        }
        plan.push_back(e);
    }
    for (FaultEvent e : spec.explicitEvents) {
        e.cell %= cells;
        plan.push_back(e);
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return plan;
}

std::string
describeFault(const FaultEvent &e)
{
    std::string detail;
    switch (e.kind) {
      case FaultKind::FifoFlip:
        detail = strfmt(" %s mask=%#x", fifoSiteName(e.site), e.mask);
        break;
      case FaultKind::BusReorder:
        detail = strfmt(" %s", fifoSiteName(e.site));
        break;
      case FaultKind::CellHang:
        detail = e.arg ? strfmt(" for %llu cycles",
                                (unsigned long long)e.arg)
                       : std::string(" permanently");
        break;
      case FaultKind::MemLatency:
        detail = strfmt(" +%llu cycles", (unsigned long long)e.arg);
        break;
      case FaultKind::BusDrop:
      case FaultKind::BusDup:
      case FaultKind::SpuriousHalt:
      case FaultKind::numKinds:
        break;
    }
    return strfmt("cycle %llu: %s cell%u%s",
                  (unsigned long long)e.at, faultKindName(e.kind),
                  e.cell, detail.c_str());
}

namespace
{

/**
 * SECDED(38,32) layout: codeword positions 1..38, check bits at the
 * power-of-two positions, data bits filling the remaining 32 slots in
 * order. An extra overall-parity bit (ecc bit 6) extends single-error
 * correction to double-error detection.
 */
struct SecdedLayout
{
    std::array<std::uint64_t, 6> groupMask{}; //!< data bits per parity
    std::array<int, 39> posToData{};

    constexpr SecdedLayout()
    {
        posToData.fill(-1);
        unsigned di = 0;
        for (unsigned pos = 1; pos <= 38; ++pos) {
            if ((pos & (pos - 1)) == 0)
                continue; // check-bit slot
            posToData[pos] = int(di);
            for (unsigned pi = 0; pi < 6; ++pi)
                if (pos & (1u << pi))
                    groupMask[pi] |= std::uint64_t(1) << di;
            ++di;
        }
    }
};

constexpr SecdedLayout secdedLayout;

/** The check bits of @p w, straight from the layout: the definition
 *  the lookup tables below are generated from. */
constexpr std::uint8_t
secdedEncodeBitwise(Word w)
{
    std::uint8_t ecc = 0;
    for (unsigned pi = 0; pi < 6; ++pi)
        if (std::popcount(std::uint64_t(w) & secdedLayout.groupMask[pi])
            & 1)
            ecc |= std::uint8_t(1u << pi);
    if ((std::popcount(w) + std::popcount(unsigned(ecc & 0x3f))) & 1)
        ecc |= 0x40;
    return ecc;
}

/**
 * Every check bit, the overall parity in bit 6 included, is an XOR of
 * data bits: the code is linear over GF(2). So the check bits of a
 * word are the XOR of the check bits of its four bytes, each in its
 * own lane — four lookups instead of eight popcounts.
 */
struct SecdedTables
{
    std::array<std::array<std::uint8_t, 256>, 4> lane{};

    constexpr SecdedTables()
    {
        for (unsigned l = 0; l < 4; ++l)
            for (unsigned b = 0; b < 256; ++b)
                lane[l][b] = secdedEncodeBitwise(Word(b) << (8 * l));
    }
};

constexpr SecdedTables secdedTables;

} // anonymous namespace

std::uint8_t
secdedEncode(Word w)
{
    const auto &t = secdedTables.lane;
    return std::uint8_t(t[0][w & 0xff] ^ t[1][(w >> 8) & 0xff]
                        ^ t[2][(w >> 16) & 0xff] ^ t[3][w >> 24]);
}

SecdedResult
secdedDecode(Word &w, std::uint8_t ecc)
{
    std::uint8_t expect = secdedEncode(w);
    // Stored bits equal to the re-derived ones mean a zero syndrome
    // and a matching overall bit: the common case, decided here.
    if (expect == ecc)
        return SecdedResult::Ok;
    unsigned syndrome = unsigned(expect ^ ecc) & 0x3fu;
    // The stored overall bit covers the data word plus the *stored*
    // check bits, so recompute it over exactly those — comparing
    // against re-derived check bits would cancel the flip whenever
    // the syndrome has odd popcount.
    bool overallOdd =
        (((std::popcount(w) + std::popcount(unsigned(ecc) & 0x3fu))
          & 1)
         != 0)
        != ((ecc & 0x40) != 0);
    if (syndrome == 0 && !overallOdd)
        return SecdedResult::Ok;
    if (!overallOdd)
        return SecdedResult::Uncorrectable; // even number of flips
    // Odd number of flips: assume one. The syndrome is the codeword
    // position of the flipped bit; repair it when it names a data bit.
    if (syndrome >= 1 && syndrome <= 38) {
        int di = secdedLayout.posToData[syndrome];
        if (di >= 0) {
            w ^= 1u << unsigned(di);
            return SecdedResult::Corrected;
        }
    }
    // An odd flip count whose syndrome names no data bit: >= 3 flips.
    return SecdedResult::Uncorrectable;
}

} // namespace opac::fault
