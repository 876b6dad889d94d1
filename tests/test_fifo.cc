/**
 * @file
 * Unit and property tests for the timed FIFO model.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/random.hh"
#include "fifo/timed_fifo.hh"
#include "snap/snapshot.hh"
#include "trace/json.hh"

using namespace opac;

TEST(TimedFifo, ZeroCapacityPanics)
{
    EXPECT_THROW(TimedFifo("bad", 0), std::logic_error);
}

TEST(TimedFifo, PushNotVisibleSameCycle)
{
    TimedFifo f("f", 4, 1);
    f.push(11, 0);
    EXPECT_FALSE(f.canPop(0));
    EXPECT_TRUE(f.canPop(1));
    EXPECT_EQ(f.pop(1), 11u);
}

TEST(TimedFifo, FallThroughLatencyRespected)
{
    TimedFifo f("f", 4, 3);
    f.push(7, 10);
    EXPECT_FALSE(f.canPop(12));
    EXPECT_TRUE(f.canPop(13));
}

TEST(TimedFifo, FifoOrderPreserved)
{
    TimedFifo f("f", 8);
    for (Word w = 0; w < 8; ++w)
        f.push(w, 0);
    for (Word w = 0; w < 8; ++w)
        EXPECT_EQ(f.pop(100), w);
}

TEST(TimedFifo, CapacityEnforced)
{
    TimedFifo f("f", 2);
    f.push(1, 0);
    f.push(2, 0);
    EXPECT_FALSE(f.canPush());
    EXPECT_THROW(f.push(3, 0), std::logic_error);
    f.pop(5);
    EXPECT_TRUE(f.canPush());
}

TEST(TimedFifo, ReservationsCountAgainstSpace)
{
    TimedFifo f("f", 3);
    f.reserve();
    f.reserve();
    EXPECT_EQ(f.space(), 1u);
    EXPECT_EQ(f.reservedSlots(), 2u);
    f.push(1, 0);
    EXPECT_FALSE(f.canPush());
    f.pushReserved(2, 0);
    EXPECT_EQ(f.reservedSlots(), 1u);
    // Slot freed from reservation, consumed by the stored word: still full.
    EXPECT_FALSE(f.canPush());
    f.pushReserved(3, 0);
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.pop(5), 1u);
    EXPECT_EQ(f.pop(5), 2u);
    EXPECT_EQ(f.pop(5), 3u);
}

TEST(TimedFifo, PushReservedWithoutReservationPanics)
{
    TimedFifo f("f", 2);
    EXPECT_THROW(f.pushReserved(1, 0), std::logic_error);
}

TEST(TimedFifo, PopEmptyPanics)
{
    TimedFifo f("f", 2);
    EXPECT_THROW(f.pop(0), std::logic_error);
}

TEST(TimedFifo, FrontDoesNotConsume)
{
    TimedFifo f("f", 2);
    f.push(9, 0);
    EXPECT_EQ(f.front(1), 9u);
    EXPECT_EQ(f.front(1), 9u);
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.pop(1), 9u);
}

TEST(TimedFifo, ResetClearsContentAndReservations)
{
    TimedFifo f("f", 4);
    f.push(1, 0);
    f.reserve();
    f.reset(0);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.reservedSlots(), 0u);
    EXPECT_EQ(f.space(), 4u);
}

TEST(TimedFifo, StatsCountTraffic)
{
    stats::StatGroup g("top");
    TimedFifo f("q", 4);
    f.addStats(g);
    f.push(1, 0);
    f.push(2, 0);
    f.pop(3);
    f.reset(3);
    EXPECT_EQ(g.counterValue("q.pushes"), 2u);
    EXPECT_EQ(g.counterValue("q.pops"), 1u);
    EXPECT_EQ(g.counterValue("q.resets"), 1u);
}

// --- occupancy: each level credited with the cycles it held ---------

namespace
{

struct Occupancy
{
    double min, max, mean, count;
};

/** Queue @p q's occupancy distribution, read back from the JSON. */
Occupancy
occupancyOf(const stats::StatGroup &g, const std::string &q)
{
    trace::json::Value doc;
    std::string err;
    EXPECT_TRUE(trace::json::parse(g.json(), doc, &err)) << err;
    const trace::json::Value *d =
        doc.find(g.name() + "." + q + ".occupancy");
    if (!d)
        return {-1, -1, -1, -1};
    return {d->find("min")->number, d->find("max")->number,
            d->find("mean")->number, d->find("count")->number};
}

} // anonymous namespace

TEST(TimedFifoOccupancy, SameCyclePushAndPopLeaveMinAndMax)
{
    stats::StatGroup g("top");
    TimedFifo f("q", 4);
    f.addStats(g);
    f.settle(0);
    f.push(1, 0);
    f.push(2, 5); // level 1 held for cycles 0..4
    f.pop(5);     // level 2 held for no cycle
    f.settle(10); // level 1 again for cycles 5..9
    Occupancy o = occupancyOf(g, "q");
    EXPECT_EQ(o.count, 10.0);
    EXPECT_EQ(o.min, 1.0);
    EXPECT_EQ(o.max, 1.0);
    EXPECT_EQ(o.mean, 1.0);
}

TEST(TimedFifoOccupancy, UnsettledQueueKeepsCountZero)
{
    stats::StatGroup g("top");
    TimedFifo f("q", 4);
    f.addStats(g);
    f.push(1, 0);
    f.push(2, 3);
    f.pop(7);
    f.reset(9);
    EXPECT_EQ(occupancyOf(g, "q").count, 0.0);
}

TEST(TimedFifoOccupancy, ResetCreditsTheOldLevelThroughTheCycleBefore)
{
    stats::StatGroup g("top");
    TimedFifo f("q", 4);
    f.addStats(g);
    f.settle(0);
    for (Word w = 0; w < 3; ++w)
        f.push(w, 0);
    f.reset(4);   // level 3 for cycles 0..3
    f.settle(6);  // level 0 for cycles 4..5
    Occupancy o = occupancyOf(g, "q");
    EXPECT_EQ(o.count, 6.0);
    EXPECT_EQ(o.min, 0.0);
    EXPECT_EQ(o.max, 3.0);
    EXPECT_EQ(o.mean, 2.0);
}

TEST(TimedFifoOccupancy, LoadStateRestartsTheLevelClock)
{
    TimedFifo saved("q", 4);
    for (Word w = 0; w < 3; ++w)
        saved.push(w, 0);
    snap::Writer w;
    saved.saveState(w);
    const std::string payload = w.take();

    stats::StatGroup g("top");
    TimedFifo f("q", 4);
    f.addStats(g);
    f.settle(0);
    f.push(9, 0);
    f.settle(10); // level 1 for cycles 0..9
    snap::Reader r(payload, "test");
    f.loadState(r);
    // The restored level 3 is held from the restored cycle on, not
    // from the last cycle this queue credited.
    f.settle(50);
    f.settle(54);
    Occupancy o = occupancyOf(g, "q");
    EXPECT_EQ(o.count, 14.0);
    EXPECT_EQ(o.max, 3.0);
    EXPECT_NEAR(o.mean, (10.0 + 3.0 * 4) / 14.0, 1e-8); // JSON %.9g
}

/**
 * Property: under a random interleaving of pushes and pops, the FIFO
 * behaves exactly like an ideal queue (contents and order), and never
 * exceeds capacity.
 */
TEST(TimedFifoProperty, MatchesIdealQueueUnderRandomOps)
{
    Rng rng(0xf1f0);
    TimedFifo f("f", 16, 1);
    std::deque<Word> model;
    Word next_val = 0;
    for (Cycle t = 0; t < 20000; ++t) {
        if (rng.range(0, 1) == 0 && f.canPush()) {
            f.push(next_val, t);
            model.push_back(next_val);
            ++next_val;
        }
        if (rng.range(0, 2) == 0 && f.canPop(t)) {
            ASSERT_FALSE(model.empty());
            EXPECT_EQ(f.pop(t), model.front());
            model.pop_front();
        }
        EXPECT_LE(f.size(), 16u);
    }
    // Drain.
    while (!model.empty()) {
        EXPECT_EQ(f.pop(30000), model.front());
        model.pop_front();
    }
    EXPECT_TRUE(f.empty());
}

/** Property: recirculation (pop + push) preserves cyclic order. */
TEST(TimedFifoProperty, RecirculationPreservesCyclicOrder)
{
    TimedFifo f("f", 8, 1);
    for (Word w = 0; w < 6; ++w)
        f.push(w, 0);
    Cycle t = 1;
    // Recirculate two full revolutions.
    for (int i = 0; i < 12; ++i) {
        Word w = f.pop(t);
        EXPECT_EQ(w, Word(i % 6));
        f.push(w, t);
        ++t;
    }
}

// --- superop fast-tier stream ops (PR 8) ---------------------------

TEST(TimedFifoStream, StreamableEdges)
{
    TimedFifo f("f", 4, 2);
    // Empty: nothing to exchange or rotate.
    EXPECT_FALSE(f.streamable(10));
    f.push(1, 0);
    // count < latency: a word re-pushed mid-window would not be ready
    // again by the time the one-per-cycle rotation returns to it.
    EXPECT_FALSE(f.streamable(10));
    f.push(2, 0);
    // Newest entry is still falling through at cycle 1.
    EXPECT_FALSE(f.streamable(1));
    // From its ready cycle onwards the burst window may open.
    EXPECT_TRUE(f.streamable(2));
    EXPECT_TRUE(f.streamable(100));
    // Word protection forces the per-call path (reads verify check
    // bits); streaming must refuse.
    f.setParity(fault::ParityMode::Detect);
    EXPECT_FALSE(f.streamable(100));
    f.setParity(fault::ParityMode::Off);
    EXPECT_TRUE(f.streamable(100));
}

/**
 * streamExchange() must be byte-for-byte the pushReserved-then-pop
 * pair it replaces, across the ring-wrap boundary and one word short
 * of full — the fast tier's steady state on queue ret.
 */
TEST(TimedFifoStream, ExchangeMatchesPushReservedPlusPop)
{
    stats::StatGroup gs("s"), gr("r");
    TimedFifo fs("q", 4, 1), fr("q", 4, 1);
    fs.addStats(gs);
    fr.addStats(gr);
    for (Word w = 0; w < 3; ++w) {
        fs.push(w, 0);
        fr.push(w, 0);
    }
    Cycle t = 1;
    ASSERT_TRUE(fs.streamable(t));
    const unsigned n = 10; // 2.5 revolutions of the 4-slot ring
    for (unsigned i = 0; i < n; ++i, ++t) {
        Word landed = 100 + i;
        Word a = fs.streamExchange(landed, t);
        // The fast tier holds one output slot reserved throughout the
        // burst; mirror that on the reference queue each cycle.
        fr.reserve();
        fr.pushReserved(landed, t);
        Word b = fr.pop(t);
        EXPECT_EQ(a, b);
    }
    fs.streamCommit(n, true);
    // Identical contents, order and fall-through timing afterwards.
    ASSERT_EQ(fs.size(), fr.size());
    for (Cycle c = t - 2; c <= t + 1; ++c)
        EXPECT_EQ(fs.canPop(c), fr.canPop(c));
    while (!fr.empty())
        EXPECT_EQ(fs.pop(t + 10), fr.pop(t + 10));
    EXPECT_TRUE(fs.empty());
    // Settled lifetime counters match the per-call bookkeeping.
    EXPECT_EQ(gs.counterValue("q.pushes"), gr.counterValue("q.pushes"));
    EXPECT_EQ(gs.counterValue("q.pops"), gr.counterValue("q.pops"));
    EXPECT_EQ(gs.scalarValue("q.highWater"),
              gr.scalarValue("q.highWater"));
}

/**
 * streamRotate() must match recirculate() on a completely full queue
 * (count == capacity == ring size), where every slot is touched and
 * the head wraps twice — the reby rotation case.
 */
TEST(TimedFifoStream, RotateMatchesRecirculateWhenFull)
{
    stats::StatGroup gs("s"), gr("r");
    TimedFifo fs("q", 4, 1), fr("q", 4, 1);
    fs.addStats(gs);
    fr.addStats(gr);
    for (Word w = 0; w < 4; ++w) {
        fs.push(w, 0);
        fr.push(w, 0);
    }
    Cycle t = 1;
    ASSERT_TRUE(fs.streamable(t));
    const unsigned n = 9; // two full revolutions plus one
    for (unsigned i = 0; i < n; ++i, ++t) {
        Word a = fs.streamRotate(t);
        Word b = fr.recirculate(t);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, Word(i % 4));
    }
    fs.streamCommit(n, false);
    // Re-timestamps agree: the same entries become poppable at the
    // same cycles on both queues.
    for (Cycle c = t - 4; c <= t + 1; ++c)
        EXPECT_EQ(fs.canPop(c), fr.canPop(c));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(fs.pop(t + 10), fr.pop(t + 10));
    // recirculate() counts one push + one pop and never observes the
    // watermark; streamCommit(n, false) must settle identically.
    EXPECT_EQ(gs.counterValue("q.pushes"), gr.counterValue("q.pushes"));
    EXPECT_EQ(gs.counterValue("q.pops"), gr.counterValue("q.pops"));
    EXPECT_EQ(gs.scalarValue("q.highWater"),
              gr.scalarValue("q.highWater"));
}

/**
 * Property: random bursts of stream ops interleaved with per-call
 * traffic leave the queue indistinguishable — contents, timing and
 * lifetime counters — from one driven through the per-call API only.
 */
TEST(TimedFifoStreamProperty, BurstsMatchPerCallReference)
{
    Rng rng(0x5eed);
    stats::StatGroup gs("s"), gr("r");
    TimedFifo fs("q", 8, 1), fr("q", 8, 1);
    fs.addStats(gs);
    fr.addStats(gr);
    Word next = 0;
    Cycle t = 1;
    for (int round = 0; round < 200; ++round) {
        // Random per-call traffic between bursts.
        for (int i = int(rng.range(0, 4)); i-- > 0; ++t) {
            if (rng.range(0, 1) == 0 && fs.canPush()) {
                fs.push(next, t);
                fr.push(next, t);
                ++next;
            }
            if (rng.range(0, 2) == 0 && fs.canPop(t)) {
                EXPECT_EQ(fs.pop(t), fr.pop(t));
            }
        }
        ++t; // let the newest push fall through
        if (!fs.streamable(t))
            continue;
        unsigned exchanges = 0, rotates = 0;
        for (unsigned b = unsigned(rng.range(1, 6)); b-- > 0; ++t) {
            // Exchange needs a free ring slot for the landing word
            // (the reservation the fast tier holds open).
            if (rng.range(0, 1) == 0
                && fs.size() < fs.capacity()) {
                Word landed = 10000 + next++;
                Word a = fs.streamExchange(landed, t);
                fr.reserve();
                fr.pushReserved(landed, t);
                EXPECT_EQ(a, fr.pop(t));
                ++exchanges;
            } else {
                EXPECT_EQ(fs.streamRotate(t), fr.recirculate(t));
                ++rotates;
            }
        }
        if (exchanges)
            fs.streamCommit(exchanges, true);
        if (rotates)
            fs.streamCommit(rotates, false);
    }
    // Drain and compare everything that survived.
    ASSERT_EQ(fs.size(), fr.size());
    while (!fr.empty())
        EXPECT_EQ(fs.pop(t + 10), fr.pop(t + 10));
    EXPECT_EQ(gs.counterValue("q.pushes"), gr.counterValue("q.pushes"));
    EXPECT_EQ(gs.counterValue("q.pops"), gr.counterValue("q.pops"));
    EXPECT_EQ(gs.scalarValue("q.highWater"),
              gr.scalarValue("q.highWater"));
}
