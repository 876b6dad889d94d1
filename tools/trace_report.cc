/**
 * @file
 * Summarize an OPAC trace file from the command line.
 *
 *   trace_report <trace.csv>   — replay a CSV trace (the archival form
 *                                written by `--trace=<file>.csv`)
 *                                through the aggregator and print the
 *                                utilization / FIFO / bus / stall
 *                                report;
 *   trace_report <trace.json>  — structural summary of a Chrome
 *                                trace-event file: per-process event
 *                                counts and the covered time span.
 *
 * Exit status is non-zero on unreadable or malformed input, so CI can
 * assert that a bench-produced trace is well-formed.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/table.hh"
#include "trace/aggregate.hh"
#include "trace/json.hh"
#include "trace/sinks.hh"
#include "trace/trace.hh"

using namespace opac;

namespace
{

int
reportCsv(std::ifstream &in, long top_stalls)
{
    trace::Tracer tracer;
    trace::Aggregate agg;
    tracer.addSink(&agg);
    std::string err;
    if (!trace::readCsv(in, tracer, &err)) {
        std::fprintf(stderr, "trace_report: %s\n", err.c_str());
        return 1;
    }
    std::printf("%llu events\n\n",
                (unsigned long long)tracer.eventCount());
    if (top_stalls > 0) {
        std::printf("%s",
                    agg.topStallsReport(std::size_t(top_stalls)).c_str());
        return 0;
    }
    std::printf("%s", agg.report().c_str());
    return 0;
}

int
reportChromeJson(const std::string &text)
{
    trace::json::Value doc;
    std::string err;
    if (!trace::json::parse(text, doc, &err)) {
        std::fprintf(stderr, "trace_report: %s\n", err.c_str());
        return 1;
    }
    const trace::json::Value *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr,
                     "trace_report: no traceEvents array found\n");
        return 1;
    }

    // pid -> process name from metadata records.
    std::map<int, std::string> procNames;
    // pid -> (event count, first ts, last ts)
    struct ProcSummary
    {
        std::uint64_t count = 0;
        double first = 0.0, last = 0.0;
        bool seen = false;
    };
    std::map<int, ProcSummary> procs;
    double first = 0.0, last = 0.0;
    bool any = false;

    for (const auto &e : events->array) {
        const auto *ph = e.find("ph");
        const auto *pid = e.find("pid");
        if (!ph || !ph->isString() || !pid || !pid->isNumber())
            continue;
        int p = int(pid->number);
        if (ph->str == "M") {
            const auto *name = e.find("name");
            const auto *args = e.find("args");
            if (name && name->isString()
                && name->str == "process_name" && args) {
                if (const auto *n = args->find("name"))
                    procNames[p] = n->str;
            }
            continue;
        }
        ProcSummary &s = procs[p];
        ++s.count;
        const auto *ts = e.find("ts");
        if (ts && ts->isNumber()) {
            if (!s.seen || ts->number < s.first)
                s.first = ts->number;
            if (!s.seen || ts->number > s.last)
                s.last = ts->number;
            s.seen = true;
            if (!any || ts->number < first)
                first = ts->number;
            if (!any || ts->number > last)
                last = ts->number;
            any = true;
        }
    }

    std::printf("%zu trace records", events->array.size());
    if (any)
        std::printf(" spanning cycles %.0f..%.0f", first, last);
    std::printf("\n\n");

    TextTable t("per-process events");
    t.header({"pid", "process", "events", "first", "last"});
    for (const auto &[p, s] : procs) {
        auto named = procNames.find(p);
        t.row({strfmt("%d", p),
               named != procNames.end() ? named->second : "?",
               strfmt("%llu", (unsigned long long)s.count),
               s.seen ? strfmt("%.0f", s.first) : "-",
               s.seen ? strfmt("%.0f", s.last) : "-"});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    long top_stalls = 0;
    const char *input = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--top-stalls=", 13) == 0) {
            top_stalls = std::atol(argv[i] + 13);
            if (top_stalls <= 0) {
                std::fprintf(stderr,
                             "trace_report: bad --top-stalls value\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--help") == 0) {
            input = nullptr;
            break;
        } else if (!input) {
            input = argv[i];
        } else {
            input = nullptr; // two positional arguments: usage error
            break;
        }
    }
    if (!input) {
        std::fprintf(stderr,
                     "usage: trace_report [--top-stalls=N] "
                     "<trace.csv | trace.json>\n"
                     "  .csv  -> full aggregate report (utilization, "
                     "FIFO depths, bus, stalls)\n"
                     "           with --top-stalls=N: only the N "
                     "largest stall sources, ranked\n"
                     "  other -> Chrome trace-event structural "
                     "summary\n");
        return 2;
    }
    std::ifstream in(input);
    if (!in) {
        std::fprintf(stderr, "trace_report: cannot open '%s'\n",
                     input);
        return 1;
    }
    std::string path = input;
    if (path.size() >= 4
        && path.compare(path.size() - 4, 4, ".csv") == 0)
        return reportCsv(in, top_stalls);
    if (top_stalls > 0) {
        std::fprintf(stderr, "trace_report: --top-stalls needs a CSV "
                             "trace (stall events are not recovered "
                             "from Chrome JSON)\n");
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return reportChromeJson(buf.str());
}
