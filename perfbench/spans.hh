/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span brackets one call the benchmark makes into a simulator layer
 * (coprocessor construction, kernel install, planning, the engine run,
 * a server drain, ...). Spans nest: a case or serve pass opens a root
 * span and the layer calls inside it become its children, so a layer's
 * self time is its span minus the spans it encloses. Spans stay in
 * memory and are written out once, when the run ends.
 *
 * Timing itself is always on — the end-to-end metrics need the same
 * durations — and recording is what tracing adds: with the recorder
 * off, Span::close() only returns the elapsed seconds.
 */

#ifndef OPAC_PERFBENCH_SPANS_HH
#define OPAC_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host seconds since an arbitrary origin. */
double nowSeconds();

/** CPU seconds the process's threads have run, steal time excluded. */
double processCpuSeconds();

/**
 * The calling thread's current core clock in GHz, from the best of a
 * few timings of a chain of dependent single-cycle adds (a few
 * milliseconds in all).
 */
double hostClockGHz();

/**
 * Starts sampling the core clock of whichever of the process's threads
 * is running, once per @p cpu_interval seconds of process CPU time
 * (SIGPROF): each sample times a chain of dependent adds of a few
 * microseconds. Samples stay in memory; the process keeps sampling
 * until it exits.
 */
void startClockSampler(double cpu_interval);

/** The median clock (GHz) of the samples taken between @p t0 and @p t1
 *  (nowSeconds() times), and their count in @p n; 0 if none. */
double sampledClockGHz(double t0, double t1, std::size_t &n);

/** One recorded span. */
struct SpanRecord
{
    std::string layer;   //!< layer (or "bench" for the root span)
    double start = 0.0;  //!< host seconds (nowSeconds origin)
    double end = 0.0;
    int parent = -1;     //!< index of the enclosing span, -1 at the root
    std::uint32_t group = 0; //!< one id per case or per serve pass
};

/** Collects spans; records nothing when constructed disabled. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span starting at @p start (returns its index, or -1
     *  when disabled). */
    int open(const std::string &layer, std::uint32_t group,
             double start);

    /** Close span @p id (a no-op for -1). */
    void close(int id, double end);

    /** Per layer: summed span time minus the time of its children. */
    std::map<std::string, double> selfSeconds() const;

    /** Every recorded span as JSON ({"spans": [...]}). */
    std::string json() const;

    const std::vector<SpanRecord> &records() const { return spans_; }

  private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_; //!< open spans, innermost last
};

/**
 * A timed call into one layer. Construct before the call and close()
 * after it; close() returns the elapsed seconds and, when the log is
 * enabled, records the span under the innermost open span.
 */
class Span
{
  public:
    Span(SpanLog &log, const std::string &layer, std::uint32_t group)
        : log_(log), start_(nowSeconds()),
          id_(log.open(layer, group, start_))
    {}

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (!closed_)
            close();
    }

    double
    close()
    {
        const double end = nowSeconds();
        log_.close(id_, end);
        closed_ = true;
        return end - start_;
    }

  private:
    SpanLog &log_;
    double start_;
    int id_;
    bool closed_ = false;
};

} // namespace perfbench

#endif // OPAC_PERFBENCH_SPANS_HH
