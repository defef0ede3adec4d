#include "core/streaming.h"

#include <algorithm>
#include <chrono>

#include "gate/gate_sim.h"
#include "stats/sampling.h"
#include "util/logging.h"

namespace strober {
namespace core {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

} // namespace

unsigned
streamingReplayWorkers(unsigned requested, size_t reservoirSize)
{
    return static_cast<unsigned>(std::max<size_t>(
        1, std::min<size_t>(requested, reservoirSize)));
}

StreamingReplayPipeline::StreamingReplayPipeline(const ReplayContext &ctx,
                                                 unsigned workerCount,
                                                 size_t queueBound)
    : ctx(ctx), bound(std::max<size_t>(queueBound, 1))
{
    unsigned n = std::max(1u, workerCount);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this] { workerMain(); });
}

StreamingReplayPipeline::~StreamingReplayPipeline()
{
    finish();
}

void
StreamingReplayPipeline::onSnapshotReady(
    size_t slot, uint64_t generation,
    std::shared_ptr<const fame::ReplayableSnapshot> snap)
{
    std::unique_lock<std::mutex> lk(mtx);
    // Backpressure: the bound tracks the reservoir size and eviction
    // dequeues eagerly, so this wait only ever fires when replay is
    // pathologically slower than capture.
    spaceCv.wait(lk, [&] { return queue.size() < bound || closed; });
    if (closed)
        return;
    queue.push_back(Item{slot, generation, std::move(snap)});
    ++counters.published;
    readyCv.notify_one();
}

void
StreamingReplayPipeline::onSlotEvicted(size_t slot, uint64_t generation)
{
    std::lock_guard<std::mutex> lk(mtx);
    auto key = std::make_pair(slot, generation);
    superseded.insert(key);
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->slot == slot && it->generation == generation) {
            queue.erase(it);
            ++counters.supersededQueued;
            spaceCv.notify_one();
            return;
        }
    }
    auto res = results.find(key);
    if (res != results.end()) {
        results.erase(res);
        ++counters.supersededResults;
    }
    // Otherwise the capture is replaying right now; the worker checks
    // the superseded set before publishing and discards the result.
}

void
StreamingReplayPipeline::workerMain()
{
    // Built lazily: a streamed run with fewer samples than workers
    // should not pay for idle gate simulators.
    std::unique_ptr<gate::GateSimulator> gsim;
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lk(mtx);
            readyCv.wait(lk, [&] { return !queue.empty() || closed; });
            if (queue.empty())
                return;
            item = std::move(queue.front());
            queue.pop_front();
            ++inFlight;
            if (counters.firstReplayStart == 0)
                counters.firstReplayStart = nowSeconds();
            spaceCv.notify_one();
        }
        if (!gsim)
            gsim = std::make_unique<gate::GateSimulator>(ctx.synth.netlist);
        // Index = reservoir slot, which is the final sample index (the
        // complete slots are always 0..m-1; see streaming.h).
        ReplayUnit unit{item.slot, item.snap.get()};
        ReplayRecord rec = replaySnapshot(*gsim, ctx, unit);
        {
            std::lock_guard<std::mutex> lk(mtx);
            --inFlight;
            ++counters.replaysCompleted;
            counters.lastReplayEnd = nowSeconds();
            auto key = std::make_pair(item.slot, item.generation);
            if (superseded.count(key))
                ++counters.supersededResults;
            else
                results[key] = std::move(rec);
            resultsVersion.fetch_add(1, std::memory_order_release);
            doneCv.notify_all();
        }
    }
}

bool
StreamingReplayPipeline::ciBoundMet(double bound_, double confidence,
                                    uint64_t populationSize,
                                    size_t reservoirSize)
{
    if (bound_ <= 0)
        return false;
    // Lock-free fast path: this runs once per fast-sim cycle, and the
    // answer can only change when a replay completes.
    if (resultsVersion.load(std::memory_order_acquire) == ciCheckedVersion)
        return false;
    std::lock_guard<std::mutex> lk(mtx);
    ciCheckedVersion = resultsVersion.load(std::memory_order_relaxed);
    // Eq. 8 floor: n >= 30 for the normal approximation to hold,
    // clamped to the reservoir size so tiny configured samples can
    // still terminate once fully replayed.
    size_t floorN = std::min<size_t>(30, reservoirSize);
    stats::SampleStats power;
    for (const auto &kv : results) {
        if (kv.second.outcome.replayed())
            power.add(kv.second.totalWatts);
    }
    if (power.size() < std::max<size_t>(floorN, 2))
        return false;
    if (populationSize < power.size())
        return false;
    stats::Estimate est = power.estimate(confidence, populationSize);
    return est.mean > 0 && est.relativeError() < bound_;
}

void
StreamingReplayPipeline::cancelQueued()
{
    std::lock_guard<std::mutex> lk(mtx);
    counters.canceledOnStop += queue.size();
    queue.clear();
    spaceCv.notify_all();
}

bool
StreamingReplayPipeline::waitIdle(uint64_t maxWaitMs)
{
    std::unique_lock<std::mutex> lk(mtx);
    return doneCv.wait_for(lk, std::chrono::milliseconds(maxWaitMs), [&] {
        return queue.empty() && inFlight == 0;
    });
}

void
StreamingReplayPipeline::finish()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        closed = true;
        readyCv.notify_all();
        spaceCv.notify_all();
    }
    for (std::thread &t : workers) {
        if (t.joinable())
            t.join();
    }
}

bool
StreamingReplayPipeline::takeResult(size_t slot, uint64_t generation,
                                    ReplayRecord &out)
{
    std::lock_guard<std::mutex> lk(mtx);
    auto it = results.find(std::make_pair(slot, generation));
    if (it == results.end())
        return false;
    out = std::move(it->second);
    results.erase(it);
    return true;
}

std::vector<ReplayRecord>
StreamingReplayPipeline::takeSurvivors()
{
    std::lock_guard<std::mutex> lk(mtx);
    std::vector<ReplayRecord> out;
    out.reserve(results.size());
    for (auto &kv : results)
        out.push_back(std::move(kv.second));
    results.clear();
    return out;
}

StreamingStats
StreamingReplayPipeline::stats() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return counters;
}

EnergyReport
EnergySimulator::estimateStreaming(HostDriver &driver, uint64_t maxCycles,
                                   RunStats *outRun)
{
    // The ASIC-flow products are independent of the fast sim (pipeline
    // step 2) and replay consumes them immediately, so build them
    // before the clock starts.
    buildAsicFlow();

    ReplayContext ctx{dsn,
                      *synth,
                      *placed,
                      *match,
                      snapSampler->chains(),
                      cfg,
                      resolveReplayBudget(cfg, *synth)};
    StreamingReplayPipeline pipeline(
        ctx, streamingReplayWorkers(cfg.parallelReplays, cfg.sampleSize),
        cfg.sampleSize + 1);
    snapSampler->setObserver(&pipeline);

    bool earlyStopped = false;
    RunStats rstats;
    double t0 = nowSeconds();
    fame::TokenSimulator &tsim = fameHarness->tokenSim();
    uint64_t nextService = cfg.hostServiceInterval;
    while (!driver.done() && tsim.targetCycles() < maxCycles) {
        driver.drive(*fameHarness);
        fameHarness->clock();
        if (cfg.hostServiceInterval && tsim.targetCycles() >= nextService) {
            tsim.addHostStallCycles(cfg.hostServiceStall);
            nextService += cfg.hostServiceInterval;
        }
        if (cfg.ciBound > 0 &&
            pipeline.ciBoundMet(
                cfg.ciBound, cfg.confidence,
                std::max<uint64_t>(tsim.targetCycles() / cfg.replayLength,
                                   1),
                cfg.sampleSize)) {
            earlyStopped = true;
            break;
        }
    }
    rstats.wallSeconds = nowSeconds() - t0;
    rstats.targetCycles = tsim.targetCycles();
    rstats.hostCycles = tsim.hostCycles();
    rstats.recordCount = snapSampler->recordCount();
    rstats.intervalsSeen = rstats.targetCycles / cfg.replayLength;
    rstats.simulatedHz =
        rstats.wallSeconds > 0
            ? static_cast<double>(rstats.targetCycles) / rstats.wallSeconds
            : 0;
    lastRunCycles = rstats.targetCycles;
    lastFastSimWall = rstats.wallSeconds;
    if (outRun)
        *outRun = rstats;

    // Publish a capture that completed exactly at the final cycle.
    snapSampler->flushPending();

    uint64_t population = lastRunCycles / cfg.replayLength;
    if (earlyStopped) {
        pipeline.cancelQueued();
    } else if (cfg.ciBound > 0) {
        // The bound can also be crossed while the queue tail drains
        // after the fast sim already finished — stopping the replay
        // side alone still saves the remaining replays.
        while (!pipeline.waitIdle(5)) {
            if (pipeline.ciBoundMet(cfg.ciBound, cfg.confidence,
                                    std::max<uint64_t>(population, 1),
                                    cfg.sampleSize)) {
                earlyStopped = true;
                pipeline.cancelQueued();
                break;
            }
        }
    }
    pipeline.finish();
    snapSampler->setObserver(nullptr);

    EnergyReport report;
    report.population = population;

    std::vector<ReplayRecord> records;
    if (earlyStopped) {
        // The frozen decision set: completed current-generation
        // replays, slot order. Reindex compactly for the rendering.
        records = pipeline.takeSurvivors();
        for (size_t i = 0; i < records.size(); ++i)
            records[i].outcome.index = i;
        report.snapshots = records.size();
    } else {
        auto snapshots = snapSampler->snapshots();
        std::vector<size_t> slots = snapSampler->completeSlots();
        report.snapshots = snapshots.size();
        report.fastSimWallSeconds = lastFastSimWall;
        report.earlyStopped = false;
        report.supersededReplays = pipeline.stats().superseded();
        if (markShortRun(report))
            return report;
        records.resize(snapshots.size());
        std::unique_ptr<gate::GateSimulator> fixup;
        for (size_t i = 0; i < snapshots.size(); ++i) {
            size_t slot = slots[i];
            uint64_t gen = snapSampler->generationOf(slot);
            ReplayRecord rec;
            if (pipeline.takeResult(slot, gen, rec)) {
                rec.outcome.index = i;
                records[i] = std::move(rec);
                continue;
            }
            if (!fixup)
                fixup =
                    std::make_unique<gate::GateSimulator>(synth->netlist);
            records[i] =
                replaySnapshot(*fixup, ctx, ReplayUnit{i, snapshots[i]});
        }
    }

    StreamingStats ss = pipeline.stats();
    report = aggregateReplayRecords(std::move(records),
                                    std::max<uint64_t>(population, 1), cfg);
    double replayEnd = nowSeconds();
    double fastEndAbs = t0 + lastFastSimWall;
    double replayStart =
        ss.firstReplayStart > 0 ? ss.firstReplayStart : fastEndAbs;
    report.fastSimWallSeconds = lastFastSimWall;
    report.replayWallSeconds = replayEnd - replayStart;
    report.overlapWallSeconds = std::max(
        0.0, std::min(fastEndAbs, ss.lastReplayEnd) - replayStart);
    report.earlyStopped = earlyStopped;
    report.supersededReplays = ss.superseded();
    return report;
}

} // namespace core
} // namespace strober

