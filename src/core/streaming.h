/**
 * @file
 * In-process streaming replay pipeline: overlaps the fast FAME-1
 * simulation (phase 1) with gate-level snapshot replay (phase 3) so
 * end-to-end latency approaches max(fast-sim, replay) instead of their
 * sum (ROADMAP "Streaming/adaptive sampling pipeline"; the same
 * stage-pipelining insight LightningSim applies to trace analysis).
 *
 * The pipeline subscribes to fame::SnapshotSampler as a SampleObserver:
 * every completed capture is pushed onto a bounded queue drained by
 * replay worker threads, each owning a private gate-level simulator and
 * funnelling through core::replaySnapshot — the same per-snapshot pure
 * function every other executor uses. Reservoir replacement cancels
 * superseded work: an eviction dequeues the old capture if it has not
 * started, or discards its result if it has; either way the superseded
 * generation never reaches the report.
 *
 * Determinism: with early stop disabled, EnergySimulator::
 * estimateStreaming() produces a report byte-identical (under
 * farm::renderReportDeterministic) to run() + estimate() for any worker
 * count. Replays run with the reservoir slot as their sample index.
 * That is already the final index: the reservoir fills slots in order
 * and a slot holds a capture only once its trace completes, so the
 * complete slots are always 0..m-1, and a record whose replay depends
 * on its index (fault-injection stall plans) needs no re-replay.
 * Adaptive termination (Config::ciBound) trades that bit-identity for
 * latency: the run stops as soon as the Section III-A confidence
 * interval is tight enough (Eq. 8 n >= 30 floor).
 */

#ifndef STROBER_CORE_STREAMING_H
#define STROBER_CORE_STREAMING_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/replay_executor.h"
#include "fame/sampler.h"

namespace strober {
namespace core {

/** Counters a streamed run exposes (report fields, service gauges). */
struct StreamingStats
{
    uint64_t published = 0;         //!< captures entering the queue
    uint64_t replaysCompleted = 0;  //!< replays run (incl. discarded)
    uint64_t supersededQueued = 0;  //!< evicted before replay started
    uint64_t supersededResults = 0; //!< evicted during/after replay
    uint64_t canceledOnStop = 0;    //!< dropped by early termination
    double firstReplayStart = 0;    //!< steady-clock s (0 = no replay)
    double lastReplayEnd = 0;

    uint64_t superseded() const
    {
        return supersededQueued + supersededResults;
    }
};

/**
 * Replay threads a streamed run starts for @p requested workers and a
 * reservoir of @p reservoirSize captures: at least one, and no more
 * than the reservoir holds (the InProcessReplayExecutor likewise caps
 * its workers at the unit count).
 */
unsigned streamingReplayWorkers(unsigned requested, size_t reservoirSize);

/**
 * Bounded-queue fan-out from the sampler to replay worker threads.
 * Observer callbacks run on the fast-sim thread; replay runs on the
 * worker threads; all shared state sits behind one mutex (the per-item
 * critical sections are tiny next to a gate-level replay).
 */
class StreamingReplayPipeline : public fame::SampleObserver
{
  public:
    /**
     * @p ctx must outlive the pipeline. @p workers replay threads start
     * immediately (>= 1 enforced); the queue bound tracks the reservoir
     * size, which eager eviction dequeues keep it under in practice.
     */
    StreamingReplayPipeline(const ReplayContext &ctx, unsigned workers,
                            size_t queueBound);
    ~StreamingReplayPipeline() override;

    StreamingReplayPipeline(const StreamingReplayPipeline &) = delete;
    StreamingReplayPipeline &
    operator=(const StreamingReplayPipeline &) = delete;

    // fame::SampleObserver
    void onSnapshotReady(size_t slot, uint64_t generation,
                         std::shared_ptr<const fame::ReplayableSnapshot>
                             snap) override;
    void onSlotEvicted(size_t slot, uint64_t generation) override;

    /**
     * Adaptive-termination check: recompute the survey-sampling CI over
     * the completed current-generation replays, in slot order, against
     * population @p populationSize. True once the replayed count meets
     * the Eq. 8 floor (n >= 30, clamped to the reservoir size) AND the
     * estimate's relativeError() drops below @p bound. Cheap (one
     * relaxed atomic load, no lock) when nothing completed since the
     * last call — it runs once per fast-sim cycle. Single-caller: only
     * the orchestrating thread may invoke it.
     */
    bool ciBoundMet(double bound, double confidence,
                    uint64_t populationSize, size_t reservoirSize);

    /** Early stop: drop everything still queued (counted canceled).
     *  In-flight replays finish and are kept. */
    void cancelQueued();

    /** Block until the queue is empty and no replay is in flight, or
     *  @p maxWaitMs passed. Used by the drain loop so ciBoundMet can
     *  fire between completions after the fast sim already ended. */
    bool waitIdle(uint64_t maxWaitMs);

    /** Close the queue, drain remaining work and join the workers.
     *  Idempotent; the destructor calls it too. */
    void finish();

    /**
     * Post-finish: move the record for capture (@p slot, @p generation)
     * out of the pipeline. False if that capture never completed replay
     * (canceled, superseded, or publish raced the shutdown) — the
     * caller replays it inline.
     */
    bool takeResult(size_t slot, uint64_t generation, ReplayRecord &out);

    /**
     * Post-finish: all surviving (current-generation) records in slot
     * order, for early-stopped aggregation.
     */
    std::vector<ReplayRecord> takeSurvivors();

    StreamingStats stats() const;

  private:
    struct Item
    {
        size_t slot;
        uint64_t generation;
        std::shared_ptr<const fame::ReplayableSnapshot> snap;
    };

    void workerMain();

    const ReplayContext &ctx;
    size_t bound;

    mutable std::mutex mtx;
    std::condition_variable readyCv; //!< queue gained work / closed
    std::condition_variable spaceCv; //!< queue has room again
    std::condition_variable doneCv;  //!< a replay completed / went idle
    std::deque<Item> queue;
    std::map<std::pair<size_t, uint64_t>, ReplayRecord> results;
    std::set<std::pair<size_t, uint64_t>> superseded;
    StreamingStats counters;
    unsigned inFlight = 0;
    bool closed = false;
    std::atomic<uint64_t> resultsVersion{0};
    uint64_t ciCheckedVersion = 0; //!< CI-thread private

    std::vector<std::thread> workers;
};

} // namespace core
} // namespace strober

#endif // STROBER_CORE_STREAMING_H
