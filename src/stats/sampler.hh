/**
 * @file
 * Periodic stats sampling: a sim::Component that snapshots every
 * scalar-valued stat of a registry tree every N cycles, turning the
 * always-on counters into a time series.
 *
 * The sampler ticks with the other components but is always done(), so
 * it never holds the simulation open and never trips the watchdog. A
 * snapshot is taken on every cycle divisible by the interval (cycle 0
 * included), and the harness takes one final snapshot when the run
 * completes, so the series always covers both endpoints — including
 * the degenerate cases interval = 1 (every cycle) and interval longer
 * than the whole run (cycle 0 plus the final state).
 *
 * Register the sampler BEFORE the components it observes: it then runs
 * first in each tick round, so the sample labelled cycle k is the state
 * after exactly k completed cycles — the same convention as the final
 * end-of-run snapshot.
 *
 * Snapshots store values columnar against a name table captured at the
 * first snapshot; the registry shape must not change while sampling.
 */

#ifndef OPAC_STATS_SAMPLER_HH
#define OPAC_STATS_SAMPLER_HH

#include <string>
#include <vector>

#include "sim/engine.hh"
#include "stats/stats.hh"

namespace opac::stats
{

/** Snapshots a StatGroup tree every N cycles into a time series. */
class Sampler : public sim::Component
{
  public:
    struct Sample
    {
        Cycle cycle;
        std::vector<double> values; //!< parallel to names()
    };

    /** @param interval Snapshot period in cycles; must be nonzero. */
    Sampler(std::string name, const StatGroup &root, Cycle interval);

    Cycle interval() const { return _interval; }

    // sim::Component interface.
    void tick(sim::Engine &engine) override;
    bool done() const override { return true; }
    std::string statusLine() const override;

    /**
     * The next interval boundary, in engine time: idle-cycle skipping
     * never jumps over a periodic snapshot, so the sampled series has
     * identical cycles and values in every engine mode.
     */
    Cycle
    nextEventAt(Cycle now) const override
    {
        Cycle rem = now % _interval;
        return rem == 0 ? now : now + (_interval - rem);
    }

    /** A snapshot reads (and settles) every component's statistics:
     *  the next boundary bounds every burst window. */
    Cycle intrudesAt(Cycle now) const override { return nextEventAt(now); }

    /**
     * Record a snapshot at cycle @p now. Idempotent per cycle, so the
     * end-of-run snapshot cannot double-record a cycle the periodic
     * tick already captured.
     */
    void snapshot(Cycle now);

    const std::vector<std::string> &names() const { return _names; }
    const std::vector<Sample> &samples() const { return _samples; }

    /**
     * Snapshot support: the recorded series (name table plus every
     * sample row) travels with the machine, so a resumed run's final
     * json() is byte-identical to the uninterrupted run's.
     */
    std::uint32_t stateVersion() const override { return 1; }
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r, std::uint32_t version) override;

    /** Value of stat @p name in sample @p idx (test convenience). */
    double value(std::size_t idx, const std::string &name) const;

    /**
     * {"interval": N, "names": [...], "samples": [[cycle, v...], ...]}
     * — columnar to keep long series compact.
     */
    std::string json() const;

  private:
    const StatGroup &root;
    Cycle _interval;
    std::vector<std::string> _names;
    std::vector<Sample> _samples;
};

} // namespace opac::stats

#endif // OPAC_STATS_SAMPLER_HH
