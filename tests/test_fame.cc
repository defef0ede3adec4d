/**
 * @file
 * Tests for the FAME1 transform, token channels, scan chains and
 * replayable-snapshot capture/replay.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "fame/fame1.h"
#include "fame/replay.h"
#include "fame/sampler.h"
#include "fame/scan_chain.h"
#include "fame/snapshot_io.h"
#include "fame/token_sim.h"
#include "rtl/builder.h"
#include "sim/simulator.h"
#include "stats/rng.h"
#include "stats/sampling.h"
#include "util/bitstream.h"

#include "fuzz_designs.h"

namespace strober {
namespace fame {
namespace {

using rtl::Builder;
using rtl::Design;
using rtl::MemHandle;
using rtl::Signal;

TEST(Bitstream, RoundTripMixedWidths)
{
    BitWriter w;
    w.put(0x5, 3);
    w.put(0xdeadbeefcafef00dull, 64);
    w.put(1, 1);
    w.put(0x1234, 16);
    EXPECT_EQ(w.bitCount(), 84u);
    std::vector<uint64_t> bits = w.take();
    BitReader r(bits);
    EXPECT_EQ(r.get(3), 0x5u);
    EXPECT_EQ(r.get(64), 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(16), 0x1234u);
}

TEST(Bitstream, ManyRandomFields)
{
    stats::Rng rng(5);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    BitWriter w;
    for (int i = 0; i < 500; ++i) {
        unsigned width = 1 + static_cast<unsigned>(rng.nextBounded(64));
        uint64_t value = truncate(rng.next(), width);
        fields.push_back({value, width});
        w.put(value, width);
    }
    std::vector<uint64_t> bits = w.take();
    BitReader r(bits);
    for (auto &[value, width] : fields)
        ASSERT_EQ(r.get(width), value);
}

/** A small datapath with registers, an async memory and a sync memory. */
Design
makeDut()
{
    Builder b("dut");
    Signal in = b.input("in", 8);
    Signal wen = b.input("wen", 1);

    Signal acc = b.reg("acc", 16, 0);
    b.next(acc, acc + b.pad(in, 16));

    MemHandle scratch = b.mem("scratch", 8, 16, /*syncRead=*/false);
    Signal ptr = b.reg("ptr", 4, 0);
    b.next(ptr, ptr + b.lit(1, 4), wen);
    b.memWrite(scratch, ptr, in, wen);
    Signal back = b.memRead(scratch, ptr);

    MemHandle table = b.mem("table", 16, 8, /*syncRead=*/true);
    Signal tdata = b.memReadSync(table, acc.bits(2, 0));
    b.memWrite(table, acc.bits(2, 0), acc, wen);

    b.output("acc", acc);
    b.output("back", back);
    b.output("tdata", tdata);
    return b.finish();
}

TEST(Fame1, HostEnableFreezesAllState)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);

    // Same state layout.
    EXPECT_EQ(fd.design.regs().size(), d.regs().size());
    EXPECT_EQ(fd.design.mems().size(), d.mems().size());
    ASSERT_NE(fd.design.findInput("host_en"), rtl::kNoNode);
    EXPECT_EQ(fd.targetInputs.size(), 2u);
    EXPECT_EQ(fd.targetOutputs.size(), 3u);

    sim::Simulator s(fd.design);
    s.poke("in", 7);
    s.poke("wen", 1);
    s.poke("host_en", 1);
    s.step(3);
    EXPECT_EQ(s.peek("acc"), 21u);

    s.poke("host_en", 0);
    s.step(5);
    // Registers, memory contents and sync read data all frozen.
    EXPECT_EQ(s.peek("acc"), 21u);
    EXPECT_EQ(s.regValue(1), 3u); // ptr advanced exactly 3 times
    EXPECT_EQ(s.memWord(0, 3), 0u); // no write while frozen

    s.poke("host_en", 1);
    s.step(1);
    EXPECT_EQ(s.peek("acc"), 28u);
}

TEST(Fame1Death, DoubleTransform)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    EXPECT_EXIT(fame1Transform(fd.design), ::testing::ExitedWithCode(1),
                "host_en");
}

TEST(ScanChains, GeometryAndRoundTrip)
{
    Design d = makeDut();
    ScanChains chains(d);
    // regs: acc(16) + ptr(4); sync read data: 16; ram bits: 16*8 + 8*16.
    EXPECT_EQ(chains.regChainBits(), 16u + 4 + 16);
    EXPECT_EQ(chains.ramChainBits(), 16u * 8 + 8 * 16);
    EXPECT_EQ(chains.totalBits(), d.stateBits());
    EXPECT_GT(chains.captureHostCycles(), 0u);

    sim::Simulator s(d);
    s.poke("in", 9);
    s.poke("wen", 1);
    s.step(13);

    std::vector<uint64_t> bits = chains.scanOut(s);
    StateSnapshot snap = chains.decode(bits);
    EXPECT_EQ(snap.regValues[0], 13u * 9);
    // encode(decode(x)) == x
    EXPECT_EQ(chains.encode(snap), bits);

    // Restore into a fresh simulator and compare all state.
    sim::Simulator s2(d);
    chains.restore(s2, snap);
    for (size_t i = 0; i < d.regs().size(); ++i)
        EXPECT_EQ(s2.regValue(i), s.regValue(i));
    for (size_t mi = 0; mi < d.mems().size(); ++mi) {
        for (uint64_t a = 0; a < d.mems()[mi].depth; ++a)
            EXPECT_EQ(s2.memWord(mi, a), s.memWord(mi, a));
    }
    EXPECT_EQ(s2.syncReadData(1, 0), s.syncReadData(1, 0));
}

TEST(TokenSim, FiresOnlyWithTokens)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);

    // No tokens: stall.
    EXPECT_FALSE(ts.tryStep());
    EXPECT_EQ(ts.targetCycles(), 0u);
    EXPECT_EQ(ts.hostCycles(), 1u);

    ts.enqueueInput(0, 5); // in
    EXPECT_FALSE(ts.tryStep()); // wen channel still empty
    ts.enqueueInput(1, 0); // wen
    EXPECT_TRUE(ts.tryStep());
    EXPECT_EQ(ts.targetCycles(), 1u);
    EXPECT_EQ(ts.hostCycles(), 3u);

    // Output tokens were produced for every output channel.
    EXPECT_EQ(ts.outputAvailable(0), 1u);
    EXPECT_EQ(ts.dequeueOutput(0), 0u); // acc before first edge
}

TEST(TokenSim, OutputBackpressureStalls)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator::Config cfg;
    cfg.channelCapacity = 2;
    TokenSimulator ts(fd, cfg);

    for (int i = 0; i < 2; ++i) {
        ts.enqueueInput(0, 1);
        ts.enqueueInput(1, 0);
        EXPECT_TRUE(ts.tryStep());
    }
    // Output channels full: the target must not advance.
    ts.enqueueInput(0, 1);
    ts.enqueueInput(1, 0);
    EXPECT_FALSE(ts.tryStep());
    EXPECT_EQ(ts.targetCycles(), 2u);
    // Drain one output set; now it can fire.
    ts.dequeueOutput(0);
    ts.dequeueOutput(1);
    ts.dequeueOutput(2);
    EXPECT_TRUE(ts.tryStep());
    EXPECT_EQ(ts.targetCycles(), 3u);
}

TEST(TokenSimDeath, ChannelMisuse)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    EXPECT_EXIT(ts.dequeueOutput(0), ::testing::ExitedWithCode(1),
                "underflow");
    for (size_t i = 0; i < 8; ++i)
        ts.enqueueInput(0, 0);
    EXPECT_EXIT(ts.enqueueInput(0, 0), ::testing::ExitedWithCode(1),
                "overflow");
}

/** Drive the DUT for a while, snapshot mid-run, replay, verify outputs. */
TEST(Snapshot, CaptureAndReplayMatches)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    ScanChains chains(fd.design);
    stats::Rng rng(99);

    auto drive = [&](uint64_t cycles) {
        for (uint64_t i = 0; i < cycles; ++i) {
            ts.enqueueInput(0, rng.nextBounded(256));
            ts.enqueueInput(1, rng.nextBounded(2));
            ASSERT_TRUE(ts.tryStep());
            for (size_t o = 0; o < ts.numOutputs(); ++o)
                ts.dequeueOutput(o);
        }
    };

    drive(500);
    ReplayableSnapshot snap;
    ts.captureSnapshot(chains, &snap, 64);
    EXPECT_TRUE(ts.recording());
    drive(64);
    EXPECT_FALSE(ts.recording());
    ASSERT_TRUE(snap.complete);
    EXPECT_EQ(snap.cycle(), 500u);
    EXPECT_EQ(snap.replayLength(), 64u);

    util::Result<ReplayResult> r = replayOnRtl(d, chains, snap);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_TRUE(r->ok()) << r->firstMismatch;
    EXPECT_EQ(r->cyclesReplayed, 64u);
}

/**
 * Capture a replayable snapshot mid-execution, push it through the
 * binary serialization, reload it, and drive fresh simulators — in both
 * evaluation modes — from the restored state. The next N cycles must
 * match the recorded output trace bit for bit; this is exactly the
 * contract a snapshot shipped to another machine relies on.
 */
void
expectSerializedSnapshotReplays(const Design &d, uint64_t seed)
{
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    ScanChains chains(fd.design);
    stats::Rng rng(seed);

    auto drive = [&](uint64_t cycles) {
        for (uint64_t i = 0; i < cycles; ++i) {
            for (size_t p = 0; p < ts.numInputs(); ++p)
                ts.enqueueInput(p, rng.next());
            ASSERT_TRUE(ts.tryStep());
            for (size_t o = 0; o < ts.numOutputs(); ++o)
                ts.dequeueOutput(o);
        }
    };
    drive(200 + seed % 100);
    ReplayableSnapshot snap;
    ts.captureSnapshot(chains, &snap, 48);
    drive(48);
    ASSERT_TRUE(snap.complete);

    std::stringstream buf;
    ASSERT_TRUE(writeSnapshot(buf, chains, snap).isOk());
    util::Result<ReplayableSnapshot> read = readSnapshot(buf, chains);
    ASSERT_TRUE(read.isOk()) << read.status().toString();
    ReplayableSnapshot loaded = *read;

    // The deserialized snapshot is the one that was written...
    ASSERT_TRUE(loaded.complete);
    EXPECT_EQ(loaded.cycle(), snap.cycle());
    EXPECT_EQ(loaded.inputTrace, snap.inputTrace);
    EXPECT_EQ(loaded.outputTrace, snap.outputTrace);
    EXPECT_EQ(loaded.retimeHistory, snap.retimeHistory);
    EXPECT_EQ(chains.encode(loaded.state), chains.encode(snap.state));

    // ...and replays bit-exactly from a cold simulator on any backend.
    for (sim::Backend backend : {sim::Backend::InterpretedFull,
                                 sim::Backend::InterpretedActivity,
                                 sim::Backend::Compiled}) {
        sim::Simulator fresh(d, backend);
        chains.restore(fresh, loaded.state);
        for (size_t t = 0; t < loaded.inputTrace.size(); ++t) {
            ASSERT_EQ(loaded.inputTrace[t].size(), d.inputs().size());
            for (size_t i = 0; i < d.inputs().size(); ++i)
                fresh.poke(d.inputs()[i], loaded.inputTrace[t][i]);
            for (size_t o = 0; o < d.outputs().size(); ++o) {
                ASSERT_EQ(fresh.peek(d.outputs()[o].node),
                          loaded.outputTrace[t][o])
                    << sim::backendName(backend) << " seed " << seed
                    << " cycle +" << t << " output " << o;
            }
            fresh.step();
        }
    }
}

TEST(SnapshotIo, SerializedSnapshotReplaysOnAllBackends)
{
    expectSerializedSnapshotReplays(makeDut(), 0x10adf11e);
}

class SnapshotIoFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotIoFuzz, SerializedSnapshotReplaysOnRandomDesigns)
{
    expectSerializedSnapshotReplays(
        strober::testing::randomDesign(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotIoFuzz,
                         ::testing::Range<uint64_t>(1, 9));

TEST(Snapshot, CorruptedStateIsDetectedByReplay)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    ScanChains chains(fd.design);
    stats::Rng rng(7);

    for (int i = 0; i < 100; ++i) {
        ts.enqueueInput(0, rng.nextBounded(256));
        ts.enqueueInput(1, 1);
        ts.tryStep();
        for (size_t o = 0; o < ts.numOutputs(); ++o)
            ts.dequeueOutput(o);
    }
    ReplayableSnapshot snap;
    ts.captureSnapshot(chains, &snap, 32);
    for (int i = 0; i < 32; ++i) {
        ts.enqueueInput(0, rng.nextBounded(256));
        ts.enqueueInput(1, 1);
        ts.tryStep();
        for (size_t o = 0; o < ts.numOutputs(); ++o)
            ts.dequeueOutput(o);
    }
    snap.state.regValues[0] ^= 0x3; // corrupt the accumulator
    util::Result<ReplayResult> r = replayOnRtl(d, chains, snap);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(r->ok());
    EXPECT_FALSE(r->firstMismatch.empty());
}

TEST(Snapshot, CaptureCostsHostCycles)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    ScanChains chains(fd.design);
    uint64_t before = ts.hostCycles();
    ReplayableSnapshot snap;
    ts.captureSnapshot(chains, &snap, 8);
    EXPECT_EQ(ts.hostCycles() - before, chains.captureHostCycles());
}

TEST(Retiming, HistoryCapturesRecentInputs)
{
    Builder b("rt");
    Signal x = b.input("x", 16);
    Signal s1 = b.reg("s1", 16, 0);
    Signal s2 = b.reg("s2", 16, 0);
    b.next(s1, x + x);
    b.next(s2, s1);
    b.output("y", s2);
    b.annotateRetimed("pipe", 2, {x}, s2, {s1, s2});
    Design d = b.finish();

    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    ScanChains chains(fd.design);

    for (uint64_t v : {10ull, 20ull, 30ull, 40ull}) {
        ts.enqueueInput(0, v);
        ts.tryStep();
        ts.dequeueOutput(0);
    }
    ReplayableSnapshot snap;
    ts.captureSnapshot(chains, &snap, 4);
    ASSERT_EQ(snap.retimeHistory.size(), 1u);
    ASSERT_EQ(snap.retimeHistory[0].size(), 2u); // latency-deep history
    EXPECT_EQ(snap.retimeHistory[0][0][0], 30u); // oldest first
    EXPECT_EQ(snap.retimeHistory[0][1][0], 40u);
}

TEST(Sampler, CollectsExpectedSnapshots)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);

    SnapshotSampler::Config cfg;
    cfg.sampleSize = 5;
    cfg.replayLength = 16;
    SnapshotSampler sampler(fd, cfg);
    stats::Rng rng(3);

    const uint64_t totalCycles = 16 * 40; // 40 intervals
    for (uint64_t i = 0; i < totalCycles; ++i) {
        sampler.poll(ts);
        ts.enqueueInput(0, rng.nextBounded(256));
        ts.enqueueInput(1, rng.nextBounded(2));
        ASSERT_TRUE(ts.tryStep());
        for (size_t o = 0; o < ts.numOutputs(); ++o)
            ts.dequeueOutput(o);
    }

    EXPECT_EQ(sampler.intervalsSeen(), 40u);
    EXPECT_GE(sampler.recordCount(), 5u);
    auto snaps = sampler.snapshots();
    EXPECT_EQ(snaps.size(), 5u);
    for (const ReplayableSnapshot *s : snaps) {
        EXPECT_TRUE(s->complete);
        EXPECT_EQ(s->cycle() % 16, 0u);
        // Every snapshot must replay cleanly at the RTL level.
        util::Result<ReplayResult> r =
            replayOnRtl(d, sampler.chains(), *s);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_TRUE(r->ok()) << "cycle " << s->cycle() << ": "
                             << r->firstMismatch;
    }
}

TEST(Sampler, RunEndingInsideTrailingIntervalKeepsFullSample)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);

    SnapshotSampler::Config cfg;
    cfg.sampleSize = 5;
    cfg.replayLength = 16;
    const uint64_t population = 40;
    const uint64_t totalCycles = 16 * population + 7; // ends mid-interval

    // One seed whose reservoir records the trailing, never-complete
    // interval and one whose reservoir skips it: the sampler offers it
    // at the last boundary with the same seed and offer sequence as
    // this probe.
    uint64_t pickedSeed = 0, skippedSeed = 0;
    for (uint64_t seed = 1; seed < 500 && !(pickedSeed && skippedSeed);
         ++seed) {
        stats::ReservoirSampler<int> probe(cfg.sampleSize, seed);
        for (uint64_t i = 0; i < population; ++i)
            probe.offer();
        (probe.offer() >= 0 ? pickedSeed : skippedSeed) = seed;
    }
    ASSERT_NE(pickedSeed, 0u);
    ASSERT_NE(skippedSeed, 0u);

    for (uint64_t seed : {pickedSeed, skippedSeed}) {
        SCOPED_TRACE(seed == pickedSeed ? "picked" : "skipped");
        cfg.seed = seed;
        TokenSimulator ts(fd);
        SnapshotSampler sampler(fd, cfg);
        stats::Rng rng(5);
        for (uint64_t i = 0; i < totalCycles; ++i) {
            sampler.poll(ts);
            ts.enqueueInput(0, rng.nextBounded(256));
            ts.enqueueInput(1, rng.nextBounded(2));
            ASSERT_TRUE(ts.tryStep());
            for (size_t o = 0; o < ts.numOutputs(); ++o)
                ts.dequeueOutput(o);
        }

        // Every boundary reached is offered, whatever the seed; an
        // incomplete trailing capture is rolled back and never
        // displaces a complete snapshot.
        EXPECT_EQ(sampler.intervalsSeen(), population + 1);
        auto snaps = sampler.snapshots();
        ASSERT_EQ(snaps.size(), cfg.sampleSize);
        for (const ReplayableSnapshot *s : snaps) {
            EXPECT_TRUE(s->complete);
            EXPECT_LT(s->cycle(), 16 * population);
        }
        EXPECT_EQ(sampler.completeSlots().size(), cfg.sampleSize);
    }
}

TEST(Sampler, DisabledCollectsNothing)
{
    Design d = makeDut();
    Fame1Design fd = fame1Transform(d);
    TokenSimulator ts(fd);
    SnapshotSampler::Config cfg;
    cfg.enabled = false;
    SnapshotSampler sampler(fd, cfg);
    for (int i = 0; i < 100; ++i) {
        sampler.poll(ts);
        ts.enqueueInput(0, 1);
        ts.enqueueInput(1, 0);
        ts.tryStep();
        for (size_t o = 0; o < ts.numOutputs(); ++o)
            ts.dequeueOutput(o);
    }
    EXPECT_EQ(sampler.snapshots().size(), 0u);
    EXPECT_EQ(sampler.recordCount(), 0u);
}

} // namespace
} // namespace fame
} // namespace strober
