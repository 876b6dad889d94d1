#include "spans.hh"

#include "perfbench.hh"

#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace perfbench
{

double
nowSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

namespace
{

/**
 * Seconds a chain of @p adds dependent single-cycle adds takes. Each
 * add waits on the last, so an add takes one core clock and
 * adds / seconds is the clock rate; the asm keeps the compiler from
 * folding the chain. Async-signal-safe.
 */
double
timeAddChain(long adds)
{
    const double t0 = nowSeconds();
    std::uint64_t x = 0;
    for (long i = 0; i < adds; ++i) {
#if defined(__x86_64__)
        asm volatile("add $1, %0" : "+r"(x));
#else
        asm volatile("" : "+r"(x));
        x += 1;
#endif
    }
    return nowSeconds() - t0;
}

/** Adds per sample: a few microseconds at any plausible clock. */
constexpr long sampleAdds = 20000;

struct ClockSample
{
    double t;   //!< nowSeconds() at the end of the sample
    double ghz;
};

/** Room for 40 minutes of samples at 100 per second. */
constexpr std::size_t maxSamples = 1u << 18;
ClockSample samples[maxSamples];
std::atomic<std::size_t> sampleCount{0};

/** SIGPROF handler, on whichever thread was running. */
void
sampleClock(int)
{
    const int savedErrno = errno;
    const double dt = timeAddChain(sampleAdds);
    const std::size_t i =
        sampleCount.fetch_add(1, std::memory_order_relaxed);
    if (i < maxSamples && dt > 0.0)
        samples[i] = {nowSeconds(), double(sampleAdds) / dt / 1e9};
    errno = savedErrno;
}

} // anonymous namespace

double
hostClockGHz()
{
    constexpr long adds = 2000000;
    double best = 1e30;
    // The fastest repeat is the one no interrupt landed in.
    for (int rep = 0; rep < 5; ++rep)
        best = std::min(best, timeAddChain(adds));
    return double(adds) / best / 1e9;
}

void
startClockSampler(double cpu_interval)
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = sampleClock;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = suseconds_t(cpu_interval * 1e6);
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, nullptr);
}

double
sampledClockGHz(double t0, double t1, std::size_t &n)
{
    const std::size_t count =
        std::min(sampleCount.load(std::memory_order_acquire), maxSamples);
    std::vector<double> v;
    for (std::size_t i = 0; i < count; ++i)
        if (samples[i].t >= t0 && samples[i].t <= t1)
            v.push_back(samples[i].ghz);
    n = v.size();
    return median(std::move(v));
}

int
SpanLog::open(const std::string &layer, std::uint32_t group,
              double start)
{
    if (!enabled_)
        return -1;
    SpanRecord r;
    r.layer = layer;
    r.start = start;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.group = group;
    spans_.push_back(std::move(r));
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
}

void
SpanLog::close(int id, double end)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].end = end;
    // Spans close innermost first, also when an exception unwinds
    // several of them.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
    }
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans_)
        self[s.layer] += s.end - s.start;
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            self[spans_[std::size_t(s.parent)].layer] -= s.end - s.start;
    return self;
}

std::string
SpanLog::json() const
{
    std::string out = "{\"spans\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n  {\"id\": %zu, \"layer\": \"%s\", "
                      "\"group\": %u, \"parent\": %d, "
                      "\"start\": %.9f, \"end\": %.9f}",
                      i ? "," : "", i, s.layer.c_str(), s.group,
                      s.parent, s.start, s.end);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
