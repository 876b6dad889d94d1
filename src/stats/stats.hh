/**
 * @file
 * Hierarchical statistics registry — the always-on counter layer of the
 * observability stack (traces in src/trace are the opt-in event layer).
 *
 * Components register named stats in a StatGroup; groups nest to form a
 * tree whose fully qualified names ("system.cell0.fifo.sum.highWater")
 * address every stat. This follows the gem5 stats discipline:
 * declaration-site registration, updates that cost an increment, and a
 * formatted dump at the end of simulation. Beyond plain counters the
 * registry holds:
 *
 *  - Watermark:    max-tracking gauge (FIFO high-water marks),
 *  - Distribution: running min/max/mean over samples (FIFO occupancy,
 *                  credited as level x cycles held),
 *  - Quantile:     exact percentiles over request-grain samples,
 *  - Formula:      derived value computed on demand from other stats
 *                  (MA/cycle, bus words per flop).
 *
 * Time in a state (busy, idle, stall and hang cycles) is a Counter fed
 * by a StateClock, which credits a state's cycles when the state
 * changes or the clock is settled rather than on every tick.
 *
 * The tree renders as text ("name value # desc" lines) or as a flat
 * JSON object keyed by qualified name, and every scalar-valued stat can
 * be visited for periodic snapshotting (stats/sampler.hh).
 */

#ifndef OPAC_STATS_STATS_HH
#define OPAC_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace opac::snap
{
class Writer;
class Reader;
} // namespace opac::snap

namespace opac::stats
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }

    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    std::uint64_t _value = 0;
};

/** A max-tracking gauge, e.g. a FIFO high-water mark. */
class Watermark
{
  public:
    void observe(std::uint64_t v) { if (v > _max) _max = v; }

    std::uint64_t value() const { return _max; }
    void reset() { _max = 0; }

    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    std::uint64_t _max = 0;
};

/**
 * Time in a state, charged to counters. A state is up to two counters
 * (busy plus one stall cause, say; none charges nothing). A tick
 * enter()s the state it spends its cycle in; the cycles of a stay are
 * credited in one addition when the state changes or when the clock is
 * settled, so holding a state costs two pointer compares per tick.
 *
 * A clock is stopped after construction and after stop(): it credits
 * nothing until settle() (or a change of state) starts it at a cycle.
 * Time never runs backwards: crediting through a cycle already
 * credited (a PMU readback settles through the current cycle) is a
 * no-op.
 */
class StateClock
{
  public:
    /** Spend the cycles from @p now on in state {@p a, @p b}. */
    void
    enter(Counter *a, Counter *b, Cycle now)
    {
        if (a != _a || b != _b) {
            settle(now);
            _a = a;
            _b = b;
        }
    }

    /** Credit the current state's cycles before @p now. */
    void
    settle(Cycle now)
    {
        if (now > since) {
            if (_a)
                *_a += now - since;
            if (_b)
                *_b += now - since;
            since = now;
        } else if (since == cycleNever) {
            since = now;
        }
    }

    /** Stop crediting until the next settle() (state restored). */
    void stop() { since = cycleNever; }

  private:
    Counter *_a = nullptr;
    Counter *_b = nullptr;
    Cycle since = cycleNever;
};

/** Running min/max/mean over sampled values (e.g. FIFO occupancy). */
class Distribution
{
  public:
    void sample(double v);

    /**
     * Record @p v as @p n identical samples in one call. Equivalent to
     * n repeated sample(v) calls whenever v * n is exact in double
     * (always true for the integer-valued occupancy samples this is
     * used for: a FIFO credits each level with the cycles it held).
     */
    void sample(double v, std::uint64_t n);

    std::uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    void reset();

    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Exact percentile tracker over sampled values — the SLO stat kind
 * (serve-layer latency / queue-wait quantiles, docs/OBSERVABILITY.md).
 *
 * Samples are retained and sorted lazily, so percentile reads are
 * exact (nearest-rank) rather than bucket-interpolated: the numbers a
 * tenant SLO table prints are the numbers the jobs actually saw, and
 * they are bit-identical across engine modes because the sample
 * stream is. Memory is one double per sample; intended for
 * request-grain series (thousands of samples), not per-cycle ones —
 * use a Distribution for those.
 */
class Quantile
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _samples.size(); }
    double min() const;
    double max() const;
    double mean() const { return _samples.empty()
                                     ? 0.0
                                     : _sum / double(_samples.size()); }

    /**
     * Nearest-rank percentile: the smallest sample with at least
     * p percent of the samples at or below it. p in [0, 100];
     * 0 with no samples yet.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    void reset();

    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    mutable std::vector<double> _samples;
    mutable bool _sorted = true;
    double _sum = 0.0;
};

/**
 * A derived stat: a callback over other stats, evaluated at read time.
 * The callback must only read state that outlives the formula (counters
 * registered in the same tree, the engine clock).
 */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn(std::move(fn)) {}

    /** (Re)bind the computation; allows member formulas defined late. */
    void define(std::function<double()> f) { fn = std::move(f); }

    double value() const { return fn ? fn() : 0.0; }

  private:
    std::function<double()> fn;
};

/**
 * A named collection of stats. Groups may nest; dumps and visitors walk
 * the tree depth-first and use fully qualified stat names.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter under this group. The counter must outlive it. */
    void addCounter(const std::string &name, Counter *c,
                    const std::string &desc = "");
    /** Register a high-water gauge. */
    void addWatermark(const std::string &name, Watermark *w,
                      const std::string &desc = "");
    /** Register a distribution. */
    void addDistribution(const std::string &name, Distribution *d,
                         const std::string &desc = "");
    /** Register an exact percentile tracker. */
    void addQuantile(const std::string &name, Quantile *q,
                     const std::string &desc = "");
    /** Register a derived formula. */
    void addFormula(const std::string &name, Formula *f,
                    const std::string &desc = "");

    const std::string &name() const { return _name; }

    /** Append "fullname value # desc" lines for this subtree. */
    void dump(std::string &out, const std::string &prefix = "") const;

    /**
     * Flat JSON object for this subtree: scalar stats (counters,
     * watermarks, formulas) as numbers keyed by qualified name,
     * distributions as {min,max,mean,count} objects, quantiles as
     * {count,min,max,mean,p50,p95,p99} objects.
     */
    std::string json() const;

    /** Reset every registered stat in this subtree (formulas have no
     *  state of their own). */
    void resetAll();

    /** Look up a counter value by path relative to this group. */
    std::uint64_t counterValue(const std::string &path) const;

    /**
     * Look up any scalar-valued stat (counter, watermark or formula) by
     * path relative to this group.
     */
    double scalarValue(const std::string &path) const;

    /** Direct child group by name; null when absent. */
    const StatGroup *findChild(const std::string &name) const;

    /**
     * Visit every scalar-valued stat in this subtree with its fully
     * qualified name, in a deterministic order (names sorted within a
     * group, children in registration order). Counters and watermarks
     * visit as their integral value, formulas as the evaluated result.
     */
    void forEachScalar(
        const std::function<void(const std::string &, double)> &fn,
        const std::string &prefix = "") const;

    /**
     * Visit every registered Quantile in this subtree with its fully
     * qualified name (same order rules as forEachScalar). Quantiles
     * are multi-valued, so they are not part of the scalar walk — the
     * sampler's columnar series stays unchanged when SLO stats are
     * added to a tree.
     */
    void forEachQuantile(
        const std::function<void(const std::string &, const Quantile &)>
            &fn,
        const std::string &prefix = "") const;

    /**
     * Serialize every registered stat in this subtree, with names, in
     * a deterministic order (kinds in declaration order, entries
     * name-sorted within a kind, children in registration order).
     * Formulas are derived and carry no state.
     */
    void saveState(snap::Writer &w) const;

    /**
     * Restore a subtree saved by saveState(). The registered names
     * and tree shape must match exactly — they double as the schema
     * check for the stats section; any mismatch throws SnapshotError.
     */
    void loadState(snap::Reader &r);

  private:
    struct CounterEntry { Counter *counter; std::string desc; };
    struct WatermarkEntry { Watermark *mark; std::string desc; };
    struct DistEntry { Distribution *dist; std::string desc; };
    struct QuantileEntry { Quantile *quant; std::string desc; };
    struct FormulaEntry { Formula *formula; std::string desc; };

    void jsonMembers(std::string &out, const std::string &prefix,
                     bool &first) const;

    std::string _name;
    StatGroup *parent;
    std::vector<StatGroup *> children;
    std::map<std::string, CounterEntry> counters;
    std::map<std::string, WatermarkEntry> watermarks;
    std::map<std::string, DistEntry> dists;
    std::map<std::string, QuantileEntry> quants;
    std::map<std::string, FormulaEntry> formulas;
};

} // namespace opac::stats

#endif // OPAC_STATS_STATS_HH
