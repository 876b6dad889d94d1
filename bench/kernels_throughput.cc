/**
 * @file
 * Throughput of the signal kernels (sections 2.2-2.3): radix-2 FFT and
 * 1-D correlation. The paper gives no tables for these; it claims they
 * map onto the cell with limited I/O, and motivates FIFO queues by the
 * FFT's perfect shuffle. This bench reports sustained rates and
 * host-traffic ratios so the claims can be checked quantitatively.
 *
 * Each table's cases are independent simulations and run concurrently
 * (--jobs N, default hardware concurrency); output is identical at
 * any job count.
 */

#include <cstdio>
#include <functional>

#include "bench_util.hh"
#include "common/math_util.hh"
#include "planner/signal_plan.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::planner;

namespace
{

unsigned gJobs = 1;

struct RunResult
{
    Cycle cycles = 0;
    double hostWords = 0.0;
    double maPerCycle = 0.0;
    double wall = 0.0;
};

void
fftTable(BenchJsonWriter &json)
{
    TextTable t("radix-2 FFT, one cell, Tf = 2048, tau = 2 "
                "(flops = 10 * (n/2) * log2 n)");
    t.header({"n", "batch", "cycles", "flops/cycle", "host words/flop"});
    const std::pair<std::size_t, std::size_t> cases[] = {
        {64, 1}, {256, 1}, {1024, 1}, {256, 8}};
    std::vector<std::function<RunResult()>> tasks;
    for (auto [n, batch] : cases)
        tasks.push_back([n = n, batch = batch] {
            copro::Coprocessor sys(timingConfig(1, 2048, 2));
            kernels::installStandardKernels(sys);
            SignalPlanner plan(sys);
            std::size_t in = sys.memory().alloc(2 * n * batch);
            std::size_t out = sys.memory().alloc(2 * n * batch);
            plan.fft(in, out, n, batch);
            plan.commit();
            RunResult r;
            double t0 = wallSeconds();
            r.cycles = sys.run();
            r.wall = wallSeconds() - t0;
            r.hostWords = double(sys.host().wordsSent()
                                 + sys.host().wordsReceived());
            return r;
        });
    auto results = sim::sweep<RunResult>(tasks, gJobs);
    std::size_t idx = 0;
    for (auto [n, batch] : cases) {
        RunResult r = results[idx++];
        unsigned m = unsigned(floorLog2(std::int64_t(n)));
        double flops = 10.0 * double(n / 2) * m * double(batch);
        t.row({strfmt("%zu", n), strfmt("%zu", batch),
               strfmt("%llu", (unsigned long long)r.cycles),
               strfmt("%.3f", flops / double(r.cycles)),
               strfmt("%.3f", r.hostWords / flops)});
        json.record(strfmt("fft_n%zu_b%zu", n, batch), r.cycles,
                    flops / double(r.cycles),
                    flops / double(r.cycles) / 2.0,
                    {{"sim_rate", simRate(r.cycles, r.wall)}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("The butterfly is a straight-line block through the "
                "register file and is not software pipelined, so\n"
                "FP-latency stalls cap it well below 1 flop/cycle; "
                "the constant-geometry formulation still runs all\n"
                "log2(n) stages from a single kernel call.\n\n");
}

void
fftResidentTable(BenchJsonWriter &json)
{
    TextTable t("batched FFT with the twiddle table resident in reby "
                "(section 2.2's 'coefficients read one time')");
    t.header({"n", "batch", "host words/flop", "paper asymptote "
              "4/(5 log2 n)"});
    const std::pair<std::size_t, std::size_t> cases[] = {
        {64, 16}, {256, 8}};
    std::vector<std::function<RunResult()>> tasks;
    for (auto [n, batch] : cases)
        tasks.push_back([n = n, batch = batch] {
            copro::Coprocessor sys(timingConfig(1, 2048, 2));
            kernels::installStandardKernels(sys);
            SignalPlanner plan(sys);
            std::size_t in = sys.memory().alloc(2 * n * batch);
            std::size_t out = sys.memory().alloc(2 * n * batch);
            plan.fftResident(in, out, n, batch);
            plan.commit();
            RunResult r;
            double t0 = wallSeconds();
            r.cycles = sys.run();
            r.wall = wallSeconds() - t0;
            r.hostWords = double(sys.host().wordsSent()
                                 + sys.host().wordsReceived());
            return r;
        });
    auto results = sim::sweep<RunResult>(tasks, gJobs);
    std::size_t idx = 0;
    for (auto [n, batch] : cases) {
        RunResult r = results[idx++];
        unsigned m = unsigned(floorLog2(std::int64_t(n)));
        double flops = 10.0 * double(n / 2) * m * double(batch);
        t.row({strfmt("%zu", n), strfmt("%zu", batch),
               strfmt("%.4f", r.hostWords / flops),
               strfmt("%.4f", 4.0 / (5.0 * m))});
        json.record(strfmt("fft_resident_n%zu_b%zu", n, batch),
                    r.cycles, flops / double(r.cycles),
                    flops / double(r.cycles) / 2.0,
                    {{"sim_rate", simRate(r.cycles, r.wall)}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("With the table broadcast once, traffic approaches 4n "
                "words per transform = 4/(5 log2 n) words per flop —\n"
                "the paper's 5n/4 operations per access, inverted.\n\n");
}

void
gemvTable(BenchJsonWriter &json, TraceSession &trace,
          StatsSession &stats)
{
    TextTable t("gemv y += A x (NOT compute-bound: the section 4.1 "
                "contrast case), one cell, 256x512");
    t.header({"tau", "MA/cycle", "1/tau wall"});
    const std::size_t m = 256, n = 512;
    const unsigned taus[] = {1u, 2u, 4u};
    std::vector<std::function<RunResult()>> tasks;
    for (unsigned tau : taus)
        tasks.push_back([tau, m, n, &trace, &stats] {
            auto cfg = timingConfig(1, 2048, tau);
            // The traced/sampled representative run: the
            // bandwidth-bound contrast kernel, whose whole-run
            // occupancy the section 4.1 host model predicts as MAs
            // over tau times the words the host must move.
            bool traced = trace.wanted() && tau == 2;
            bool sampled = stats.wanted() && tau == 2;
            if (sampled)
                cfg.statsSampleInterval = stats.sampleInterval();
            copro::Coprocessor sys(cfg);
            if (sampled)
                stats.attach(sys);
            kernels::installStandardKernels(sys);
            SignalPlanner plan(sys);
            MatRef a = allocMat(sys.memory(), m, n);
            std::size_t x = sys.memory().alloc(n);
            std::size_t y = sys.memory().alloc(m);
            plan.gemv(a, x, y);
            plan.commit();
            double predicted_ma = -1.0;
            if (traced) {
                trace.attach(sys);
                double host_words = double(m * n + n + 2 * m);
                predicted_ma =
                    double(m * n) / (double(tau) * host_words);
            }
            RunResult r;
            double t0 = wallSeconds();
            r.cycles = sys.run();
            r.wall = wallSeconds() - t0;
            if (traced)
                trace.finish(sys.engine().now(), predicted_ma);
            if (sampled)
                stats.finish();
            r.hostWords = double(sys.host().wordsSent()
                                 + sys.host().wordsReceived());
            r.maPerCycle = sys.stats().scalarValue("maPerCycle");
            return r;
        });
    auto results = sim::sweep<RunResult>(tasks, gJobs);
    std::size_t idx = 0;
    for (unsigned tau : taus) {
        RunResult r = results[idx++];
        double ma_rate = double(m * n) / double(r.cycles);
        t.row({strfmt("%u", tau), strfmt("%.3f", ma_rate),
               strfmt("%.3f", 1.0 / tau)});
        json.record(strfmt("gemv_256x512_tau%u", tau), r.cycles,
                    2.0 * ma_rate, ma_rate,
                    {{"ma_per_cycle", r.maPerCycle},
                     {"host_words", r.hostWords},
                     {"sim_rate", simRate(r.cycles, r.wall)}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Each matrix word is used once, so no number of cells "
                "helps: the kernel runs at the host word rate.\n");
}

void
correlationTable(BenchJsonWriter &json)
{
    TextTable t("1-D correlation, one cell, tau = 2, Nx = 4096 "
                "(expected steady rate D/(D+1))");
    t.header({"lags D", "MA/cycle", "expected", "host words/MA"});
    const std::size_t lags[] = {4, 8, 16, 64, 256};
    std::vector<std::function<RunResult()>> tasks;
    for (std::size_t d : lags)
        tasks.push_back([d] {
            copro::Coprocessor sys(timingConfig(1, 2048, 2));
            kernels::installStandardKernels(sys);
            SignalPlanner plan(sys);
            const std::size_t nx = 4096;
            std::size_t x = sys.memory().alloc(nx);
            std::size_t y = sys.memory().alloc(nx + d - 1);
            std::size_t out = sys.memory().alloc(d);
            plan.correlation(x, nx, y, d, out);
            plan.commit();
            RunResult r;
            double t0 = wallSeconds();
            r.cycles = sys.run();
            r.wall = wallSeconds() - t0;
            r.hostWords = double(sys.host().wordsSent()
                                 + sys.host().wordsReceived());
            return r;
        });
    auto results = sim::sweep<RunResult>(tasks, gJobs);
    std::size_t idx = 0;
    for (std::size_t d : lags) {
        RunResult r = results[idx++];
        const std::size_t nx = 4096;
        double mas = double(nx) * double(d);
        t.row({strfmt("%zu", d),
               strfmt("%.3f", mas / double(r.cycles)),
               strfmt("%.3f", double(d) / double(d + 1)),
               strfmt("%.4f", r.hostWords / mas)});
        json.record(strfmt("correlation_d%zu", d), r.cycles,
                    2.0 * mas / double(r.cycles),
                    mas / double(r.cycles),
                    {{"sim_rate", simRate(r.cycles, r.wall)}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Small D stalls on the accumulator recurrence "
                "(distance D+1 vs pipeline depth); large D reaches\n"
                "the D/(D+1) issue bound with two host words per D "
                "multiply-adds.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    gJobs = initSimFlags(argc, argv);
    BenchJsonWriter json("kernels_throughput");
    json.config("cells", 1);
    json.config("tf", 2048);
    json.config("fp", "token");
    json.config("engine", sim::engineModeName(engineDefault()));
    TraceSession trace(argc, argv);
    StatsSession stats(argc, argv);
    std::printf("Signal-kernel throughput (no paper table; section 2 "
                "claims).\n\n");
    fftTable(json);
    fftResidentTable(json);
    correlationTable(json);
    gemvTable(json, trace, stats);
    return 0;
}
