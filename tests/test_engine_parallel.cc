/**
 * @file
 * Thread-level parallelism around the simulator. Each simulation runs
 * on one thread; the parallel sweep runner fans independent
 * Coprocessor instances across a thread pool. A multi-threaded sweep
 * must return exactly the results of a serial one, in task order, and
 * propagate the lowest-index failure. This suite is the TSan target
 * for the simulator's thread-safety claims; it shares its harness with
 * the spin-vs-skip golden suite (engine_golden.hh).
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "engine_golden.hh"
#include "sim/sweep.hh"

using namespace opac;
using namespace opac::test;
using sim::EngineMode;

TEST(SweepRunner, ParallelResultsMatchSerialInOrder)
{
    // Each task runs a full simulation; the multi-threaded sweep must
    // return exactly the serial results in task order. This is the
    // TSan target for the simulator's "no shared mutable state between
    // Coprocessor instances" claim.
    std::vector<std::function<Cycle()>> tasks;
    for (Workload w : kAllLoads) {
        for (unsigned p : {1u, 2u}) {
            tasks.push_back([w, p] {
                return runWorkload(w, {p, 256, 2}, EngineMode::Skip,
                                   false)
                    .cycles;
            });
        }
    }
    auto serial = sim::sweep<Cycle>(tasks, 1);
    auto parallel = sim::sweep<Cycle>(tasks, 4);
    ASSERT_EQ(serial.size(), tasks.size());
    EXPECT_EQ(serial, parallel);
}

TEST(SweepRunner, LowestIndexExceptionPropagates)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 2)
                throw std::runtime_error("task two");
            if (i == 5)
                throw std::runtime_error("task five");
            return i;
        });
    }
    try {
        sim::sweep<int>(tasks, 4);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task two");
    }
}
