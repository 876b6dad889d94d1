/**
 * @file
 * Shared vocabulary of the benchmark runner: run options, what one
 * pass of a workload reports, and the workload entry points.
 *
 * A workload is a round of one or more distinct passes — a fixed mix
 * of cases, or for serve one server lifecycle per traffic stream —
 * that the runner repeats until the requested run length is spent.
 * Host-time (H) figures get one sample per pass and are reported as
 * their median; simulated (S) figures are aggregated over one
 * round and must repeat exactly in every later round, which the
 * runner checks.
 */

#ifndef OPAC_PERFBENCH_PERFBENCH_HH
#define OPAC_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"

namespace opac::copro
{
class Coprocessor;
}

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;      //!< reduced-size cases (the self-test)
    std::string outDir;      //!< where spans and the result file go
    std::string gitSha = "unknown";
};

/** What one pass of a workload measured. */
struct PassResult
{
    // End to end, host time (one sample per pass). A pass measures
    // them in wall-clock seconds (serve's rates: CPU seconds); the
    // runner re-expresses them in reference seconds (README.md,
    // "Host time").
    double simRate = 0.0;   //!< Mcycles/s
    double jobsPerS = 0.0;  //!< cases or jobs per host second
    double setupS = 0.0;    //!< seconds
    double clockGHz = 0.0;  //!< host core clock over the pass

    // End to end, simulated.
    double simCycles = 0.0;
    double usefulMas = 0.0;
    std::vector<double> latencies; //!< cycles per case or per job

    /** Per-layer counts and fractions. */
    std::map<std::string, double> counts;

    std::uint64_t attempted = 0; //!< cases or jobs run
    std::uint64_t failed = 0;    //!< of those, ones that missed a check
};

/**
 * Runs pass @p group of the run: the (group % round)-th distinct pass.
 * @p group is also stamped on every span the pass records.
 */
using PassFn = std::function<PassResult(SpanLog &log, std::uint32_t group)>;

/**
 * Per-layer metrics that only a traced run computes, from extra work
 * done after its passes. @p self_per_pass holds each span layer's
 * self time per traced pass; the extra operations and failed checks
 * are added to @p attempted and @p failed.
 */
using ExtraFn = std::function<std::map<std::string, double>(
    const std::map<std::string, double> &self_per_pass,
    std::uint64_t &attempted, std::uint64_t &failed)>;

/** A workload: the passes to repeat plus optional traced-run extras. */
struct Workload
{
    PassFn pass;
    unsigned round = 1;   //!< distinct passes; a run does at least one round
    ExtraFn tracedExtras; //!< may be empty
};

/** stream, hostbound or lu (table_workloads.cc). */
Workload makeTableWorkload(const Options &opt);

/** serve or serve_crash (serve_workload.cc). */
Workload makeServeWorkload(const Options &opt);

/**
 * Add one machine's layer counters into @p sums: engine (sim.*),
 * cells (cell.*, summed over cells), all seven queues of every cell
 * (fifo.ops), the host (host.*) and soft-float operator calls.
 */
void addMachineCounters(opac::copro::Coprocessor &sys,
                        std::map<std::string, double> &sums);

/** The per-layer count and fraction metrics from summed counters. */
std::map<std::string, double>
layerMetrics(const std::map<std::string, double> &sums);

/** Nearest-rank percentile of @p v (0 < p <= 100); 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Median of @p v (the mean of the middle two for an even count); 0
 *  when empty. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // OPAC_PERFBENCH_PERFBENCH_HH
