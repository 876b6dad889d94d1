/**
 * @file
 * Layer counters read through the public accessors of a finished
 * machine, and the per-layer metrics derived from their sums.
 */

#include <algorithm>
#include <cmath>

#include "coproc/coprocessor.hh"
#include "perfbench.hh"

using namespace opac;

namespace perfbench
{

void
addMachineCounters(copro::Coprocessor &sys,
                   std::map<std::string, double> &c)
{
    const stats::StatGroup &root = sys.stats();
    sim::Engine &eng = sys.engine();
    const double cycles = double(root.counterValue("engine.cycles"));
    c["sim.cycles"] += cycles;
    c["cell.cycles"] += cycles * sys.numCells();
    c["sim.idle_cycles"] += double(root.counterValue("engine.idleCycles"));
    c["sim.skipped_cycles"] += double(eng.skippedCycles());
    c["sim.burst_attempts"] += double(eng.burstAttempts());
    c["sim.bursts"] += double(eng.bursts());
    for (unsigned i = 0; i < sys.numCells(); ++i) {
        cell::Cell &cl = sys.cell(i);
        using R = cell::PmuReg;
        c["cell.issued"] += double(cl.pmuRead(R::Issued));
        c["cell.fma"] += double(cl.pmuRead(R::Fma));
        c["cell.calls"] += double(cl.pmuRead(R::Calls));
        c["cell.busy"] += double(cl.pmuRead(R::BusyCycles));
        c["cell.idle"] += double(cl.pmuRead(R::IdleCycles));
        c["cell.stall_src_empty"] += double(cl.pmuRead(R::StallSrcEmpty));
        c["cell.stall_dst_full"] += double(cl.pmuRead(R::StallDstFull));
        c["cell.stall_reg"] += double(cl.pmuRead(R::StallRegPending));
        const stats::StatGroup &ft = cl.fastTierStats();
        c["cell.burst_cycles"] += double(ft.counterValue("burstCycles"));
        c["cell.turbo_cycles"] += double(ft.counterValue("turboCycles"));
        c["cell.fallback_body"] += double(ft.counterValue("fallbackBody"));
        c["cell.fallback_inflight"] +=
            double(ft.counterValue("fallbackInflight"));
        for (TimedFifo *q : {&cl.tpx(), &cl.tpy(), &cl.tpo(), &cl.tpi(),
                             &cl.sumQueue(), &cl.retQueue(),
                             &cl.rebyQueue()})
            c["fifo.ops"] += double(q->totalPushes() + q->totalPops());
        if (cl.config().fp == cell::FpKind::Soft)
            c["softfloat.ops"] +=
                double(cl.stats().counterValue("fpu.muls")
                       + cl.stats().counterValue("fpu.adds"));
    }
    host::Host &h = sys.host();
    c["host.words"] += double(h.wordsSent() + h.wordsReceived());
    c["host.ops"] += double(h.stats().counterValue("opsCompleted"));
    c["host.stall_full"] += double(h.stats().counterValue("stallFifoFull"));
    c["host.stall_empty"] +=
        double(h.stats().counterValue("stallFifoEmpty"));
}

std::map<std::string, double>
layerMetrics(const std::map<std::string, double> &c)
{
    auto get = [&c](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double cellCycles = get("cell.cycles");
    const double hostCycles = get("sim.cycles"); // one host per machine
    std::map<std::string, double> m;
    m["planner.kernel_calls"] = get("planner.kernel_calls");
    m["sim.idle_cycles"] = get("sim.idle_cycles");
    m["sim.skipped_cycles"] = get("sim.skipped_cycles");
    m["sim.burst_attempts"] = get("sim.burst_attempts");
    m["sim.burst_hit"] = frac(get("sim.bursts"), get("sim.burst_attempts"));
    m["cell.cycles"] = cellCycles;
    m["cell.issued"] = get("cell.issued");
    m["cell.calls"] = get("cell.calls");
    m["cell.busy_frac"] = frac(get("cell.busy"), cellCycles);
    m["cell.idle_frac"] = frac(get("cell.idle"), cellCycles);
    m["cell.stall_src_empty_frac"] =
        frac(get("cell.stall_src_empty"), cellCycles);
    m["cell.stall_dst_full_frac"] =
        frac(get("cell.stall_dst_full"), cellCycles);
    m["cell.stall_reg_frac"] = frac(get("cell.stall_reg"), cellCycles);
    m["cell.burst_frac"] = frac(get("cell.burst_cycles"), cellCycles);
    m["cell.turbo_frac"] = frac(get("cell.turbo_cycles"), cellCycles);
    m["cell.fallback_body"] = get("cell.fallback_body");
    m["cell.fallback_inflight"] = get("cell.fallback_inflight");
    m["fifo.ops"] = get("fifo.ops");
    m["fifo.ops_per_cell_cycle"] = frac(get("fifo.ops"), cellCycles);
    m["host.words"] = get("host.words");
    m["host.ops"] = get("host.ops");
    m["host.stall_full_frac"] = frac(get("host.stall_full"), hostCycles);
    m["host.stall_empty_frac"] = frac(get("host.stall_empty"), hostCycles);
    m["softfloat.ops"] = get("softfloat.ops");
    return m;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least p% at or below.
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t h = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + h, v.end());
    if (v.size() % 2)
        return v[h];
    return (v[h] + *std::max_element(v.begin(), v.begin() + h)) / 2.0;
}

} // namespace perfbench
