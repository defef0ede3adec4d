#include "core/energy_sim.h"

#include <chrono>

#include "core/replay_executor.h"
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

EnergySimulator::EnergySimulator(const rtl::Design &target, Config config)
    : dsn(target), cfg(config), fame(fame::fame1Transform(target))
{
    resetSampling();
}

void
EnergySimulator::resetSampling()
{
    fame::SnapshotSampler::Config scfg;
    scfg.sampleSize = cfg.sampleSize;
    scfg.replayLength = cfg.replayLength;
    scfg.seed = cfg.seed;
    scfg.enabled = cfg.samplingEnabled;
    snapSampler = std::make_unique<fame::SnapshotSampler>(fame, scfg);
    fameHarness = std::make_unique<FameHarness>(fame, snapSampler.get(),
                                                cfg.backend);
    lastRunCycles = 0;
}

RunStats
EnergySimulator::run(HostDriver &driver, uint64_t maxCycles)
{
    RunStats stats;
    double start = nowSeconds();
    fame::TokenSimulator &tsim = fameHarness->tokenSim();
    uint64_t nextService = cfg.hostServiceInterval;
    uint64_t nextProbe = cfg.earlyStopProbe ? cfg.replayLength : 0;
    while (!driver.done() && tsim.targetCycles() < maxCycles) {
        driver.drive(*fameHarness);
        fameHarness->clock();
        if (cfg.hostServiceInterval &&
            tsim.targetCycles() >= nextService) {
            tsim.addHostStallCycles(cfg.hostServiceStall);
            nextService += cfg.hostServiceInterval;
        }
        if (nextProbe != 0 && tsim.targetCycles() >= nextProbe) {
            if (cfg.earlyStopProbe())
                break;
            nextProbe += cfg.replayLength;
        }
    }
    stats.wallSeconds = nowSeconds() - start;
    stats.targetCycles = tsim.targetCycles();
    stats.hostCycles = tsim.hostCycles();
    stats.recordCount = snapSampler->recordCount();
    stats.intervalsSeen = stats.targetCycles / cfg.replayLength;
    stats.simulatedHz = stats.wallSeconds > 0
                            ? static_cast<double>(stats.targetCycles) /
                                  stats.wallSeconds
                            : 0;
    lastRunCycles = stats.targetCycles;
    lastFastSimWall = stats.wallSeconds;
    return stats;
}

void
EnergySimulator::buildAsicFlow()
{
    if (synth)
        return;
    synth = std::make_unique<gate::SynthesisResult>(gate::synthesize(dsn));
    placed = std::make_unique<gate::Placement>(gate::place(synth->netlist));
    match = std::make_unique<gate::MatchTable>(
        gate::matchDesigns(dsn, synth->netlist, synth->guide));
}

const gate::SynthesisResult &
EnergySimulator::synthesis()
{
    buildAsicFlow();
    return *synth;
}

const gate::Placement &
EnergySimulator::placement()
{
    buildAsicFlow();
    return *placed;
}

const gate::MatchTable &
EnergySimulator::matchTable()
{
    buildAsicFlow();
    return *match;
}

const char *
snapshotStatusName(SnapshotStatus status)
{
    switch (status) {
      case SnapshotStatus::Replayed:
        return "replayed";
      case SnapshotStatus::Diverged:
        return "diverged";
      case SnapshotStatus::LoadFailed:
        return "load-failed";
      case SnapshotStatus::TimedOut:
        return "timed-out";
      case SnapshotStatus::ReplayError:
        return "replay-error";
    }
    return "unknown";
}

// No complete interval was ever captured: there is nothing to replay
// and (for a short run) N = floor(cycles/L) is zero, so any CI would be
// meaningless. Report the condition instead of computing garbage.
// Shared by the phased and streamed paths so both emit the exact same
// invalid report.
bool
EnergySimulator::markShortRun(EnergyReport &report) const
{
    if (report.snapshots != 0 && report.population != 0)
        return false;
    report.valid = false;
    report.degraded = true;
    if (lastRunCycles < cfg.replayLength) {
        report.statusMessage = strfmt(
            "run of %llu target cycles is shorter than one replay "
            "interval (L = %u): zero complete intervals, no estimate",
            (unsigned long long)lastRunCycles, cfg.replayLength);
    } else {
        report.statusMessage =
            "no complete snapshots; run a workload with sampling "
            "enabled first";
    }
    warn("estimate(): %s", report.statusMessage.c_str());
    return true;
}

EnergyReport
EnergySimulator::estimate()
{
    buildAsicFlow();
    EnergyReport report;

    auto snapshots = snapSampler->snapshots();
    report.population = lastRunCycles / cfg.replayLength;
    report.snapshots = snapshots.size();
    report.fastSimWallSeconds = lastFastSimWall;
    if (markShortRun(report))
        return report;

    double start = nowSeconds();

    std::vector<ReplayUnit> units(snapshots.size());
    for (size_t i = 0; i < snapshots.size(); ++i)
        units[i] = ReplayUnit{i, snapshots[i]};
    std::vector<ReplayRecord> records(units.size());

    ReplayContext ctx{dsn,
                      *synth,
                      *placed,
                      *match,
                      snapSampler->chains(),
                      cfg,
                      resolveReplayBudget(cfg, *synth)};
    InProcessReplayExecutor builtin;
    ReplayExecutor &executor =
        cfg.replayExecutor ? *cfg.replayExecutor : builtin;
    executor.replayAll(ctx, units, records);

    uint64_t population = report.population;
    report = aggregateReplayRecords(std::move(records), population, cfg);
    report.replayWallSeconds = nowSeconds() - start;
    report.fastSimWallSeconds = lastFastSimWall;
    return report;
}

power::PowerReport
measureGroundTruth(EnergySimulator &sim, HostDriver &driver,
                   uint64_t maxCycles)
{
    const gate::SynthesisResult &synth = sim.synthesis();
    GateHarness harness(synth.netlist);
    harness.simulator().clearActivity();
    runLoop(harness, driver, maxCycles);
    if (harness.cycles() == 0)
        fatal("ground-truth run executed zero cycles");
    gate::ActivityReport activity{
        harness.simulator().toggleCounts(),
        harness.simulator().macroStats(),
        harness.simulator().activityCycles()};
    return power::analyzePower(synth.netlist, sim.placement(), activity,
                               sim.config().clockHz);
}

} // namespace core
} // namespace strober
