/**
 * @file
 * Reservoir-sampled snapshot capture over a running token simulation
 * (paper Section III-B).
 *
 * The population is the stream of disjoint L-cycle intervals of the
 * target's execution; its length is unknown a priori, so the sampler
 * keeps a uniform n-subset via reservoir sampling. Each recorded interval
 * costs one scan-chain read-out plus L cycles of I/O tracing; element k
 * is recorded with probability n/k, so the overhead fades as the run
 * grows (Table III).
 *
 * A recorded interval's capture goes into a pending object, not into
 * its slot: it replaces the slot's old capture only once its L-cycle
 * trace completes. A run that ends inside the recorded interval leaves
 * the offer pending and incomplete; it is rolled back, so the old
 * capture stays. The sample therefore holds min(n, floor(T/L))
 * complete snapshots, all from the floor(T/L) complete intervals.
 *
 * Streaming: an optional SampleObserver receives every snapshot the
 * moment its L-cycle trace completes, plus an eviction notice whenever
 * reservoir replacement supersedes a previously published capture. This
 * is the seam the streaming replay pipeline (src/core/streaming.h) and
 * the farm stream feed (src/farm/stream.h) hang off so replay can
 * overlap the ongoing fast simulation. Slots hold shared_ptrs so an
 * in-flight replay of an evicted snapshot stays valid after the slot is
 * recaptured.
 */

#ifndef STROBER_FAME_SAMPLER_H
#define STROBER_FAME_SAMPLER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "fame/scan_chain.h"
#include "fame/token_sim.h"
#include "stats/sampling.h"

namespace strober {
namespace fame {

/**
 * Receives streamed reservoir events. Generations count captures into a
 * slot (first capture = 1): a (slot, generation) pair names one capture
 * uniquely for the whole run, so consumers can match eviction notices
 * against work they queued. Callbacks run on the fast-sim thread inside
 * SnapshotSampler::poll(); keep them cheap.
 */
class SampleObserver
{
  public:
    virtual ~SampleObserver() = default;

    /** @p snap finished recording its L-cycle trace (complete == true).
     *  Published exactly once per capture, in capture order. The
     *  observer shares ownership; the pointer outlives any later
     *  eviction of the slot. */
    virtual void onSnapshotReady(size_t slot, uint64_t generation,
                                 std::shared_ptr<const ReplayableSnapshot>
                                     snap) = 0;

    /** The slot was recaptured: generation @p generation is superseded
     *  and must not contribute to the final report. Fired when the
     *  replacement capture's trace completes, right before its
     *  onSnapshotReady; a replacement that never completes (the run
     *  ended inside its interval) evicts nothing. */
    virtual void onSlotEvicted(size_t slot, uint64_t generation) = 0;
};

/** Captures a reservoir of replayable snapshots from a TokenSimulator. */
class SnapshotSampler
{
  public:
    struct Config
    {
        size_t sampleSize = 30;       //!< n
        unsigned replayLength = 128;  //!< L
        uint64_t seed = 0x5eed5eedULL;
        bool enabled = true;          //!< false = measure-only runs
    };

    SnapshotSampler(const Fame1Design &fame, Config config)
        : cfg(config), chainMeta(fame.design),
          reservoir(config.sampleSize, config.seed)
    {
    }

    /**
     * Install (or clear, with nullptr) the streaming observer. Must not
     * change mid-recording; install before the run, clear after
     * flushPending(). The reservoir's record/replace decisions are
     * observer-independent, so a streamed run samples the identical
     * reservoir a phased run would.
     */
    void setObserver(SampleObserver *obs) { observer = obs; }

    /**
     * Call once per host cycle, *before* TokenSimulator::tryStep(). At
     * each L-cycle interval boundary this installs the capture that
     * completed there, offers the new interval to the reservoir and,
     * when recorded, starts capturing a snapshot for its slot.
     */
    void
    poll(TokenSimulator &tsim)
    {
        if (!cfg.enabled)
            return;
        uint64_t cycle = tsim.targetCycles();
        uint64_t interval = cycle / cfg.replayLength;
        if (cycle % cfg.replayLength != 0 || interval < nextInterval)
            return;
        // A capture started at the previous boundary has recorded
        // exactly L fired cycles by now — install it before this
        // boundary's offer picks the next slot.
        flushPending();
        nextInterval = interval + 1;
        long slot = reservoir.offer();
        if (slot < 0)
            return;
        pendingSlot = static_cast<size_t>(slot);
        pending = std::make_shared<ReplayableSnapshot>();
        tsim.captureSnapshot(chainMeta, pending.get(), cfg.replayLength);
    }

    /**
     * Install the pending capture into its slot if its trace has
     * completed: evict the slot's old capture, then publish the new
     * one (both only with an observer). poll() calls this at every
     * boundary; call it once more after the run so a capture that
     * completed exactly at the final cycle is streamed. Idempotent; an
     * incomplete capture stays pending, and after the run it counts as
     * rolled back (see the class comment).
     */
    void
    flushPending()
    {
        if (!pending || !pending->complete)
            return;
        size_t s = pendingSlot;
        if (slotGen.size() <= s)
            slotGen.resize(s + 1, 0);
        auto &slotPtr = reservoir.sample()[s];
        if (slotPtr && observer)
            observer->onSlotEvicted(s, slotGen[s]);
        // The old capture may still be queued or replaying downstream;
        // dropping our reference leaves consumers' shared_ptrs valid.
        slotPtr = std::move(pending);
        ++slotGen[s];
        if (observer)
            observer->onSnapshotReady(
                s, slotGen[s],
                std::shared_ptr<const ReplayableSnapshot>(slotPtr));
    }

    const ScanChains &chains() const { return chainMeta; }
    const Config &config() const { return cfg; }

    /** Complete snapshots collected, in slot order. */
    std::vector<const ReplayableSnapshot *>
    snapshots() const
    {
        std::vector<const ReplayableSnapshot *> out;
        for (size_t s = 0; s < reservoir.sample().size(); ++s) {
            if (const ReplayableSnapshot *p = slotView(s))
                out.push_back(p);
        }
        return out;
    }

    /**
     * Reservoir slot index of each snapshots() element, same order.
     * Streaming consumers join this against their (slot, generation)
     * keyed results to map final compacted sample indices back to the
     * work they replayed.
     */
    std::vector<size_t>
    completeSlots() const
    {
        std::vector<size_t> out;
        for (size_t s = 0; s < reservoir.sample().size(); ++s) {
            if (slotView(s) != nullptr)
                out.push_back(s);
        }
        return out;
    }

    /** Capture generation currently occupying @p slot (0 = never). */
    uint64_t
    generationOf(size_t slot) const
    {
        return (slot < slotGen.size() ? slotGen[slot] : 0) +
               (completedPending() && pendingSlot == slot ? 1 : 0);
    }

    /**
     * Mutable view of the complete snapshots, in the same order as
     * snapshots(). Exists for the fault-injection harness (src/inject),
     * which corrupts captured snapshots in place to prove the replay
     * pipeline quarantines them; production code has no business
     * mutating the reservoir.
     */
    std::vector<ReplayableSnapshot *>
    mutableSnapshots()
    {
        std::vector<ReplayableSnapshot *> out;
        for (size_t s = 0; s < reservoir.sample().size(); ++s) {
            if (ReplayableSnapshot *p = slotView(s))
                out.push_back(p);
        }
        return out;
    }

    /** Number of record events (Table III "Record Counts"); an
     *  incomplete pending capture is not counted. */
    uint64_t
    recordCount() const
    {
        return reservoir.recordCount() - (incompletePending() ? 1 : 0);
    }
    /** Number of intervals offered so far, one per L-boundary reached,
     *  whether or not the reservoir picked it. After a run of T target
     *  cycles that is floor(T/L), plus one when the run ended inside
     *  an interval (that trailing offer is never complete). */
    uint64_t intervalsSeen() const { return reservoir.elementsSeen(); }

  private:
    bool completedPending() const { return pending && pending->complete; }
    bool incompletePending() const { return pending && !pending->complete; }

    /** The complete capture @p slot holds once pending work settles:
     *  a completed pending capture counts as installed; nullptr when
     *  the slot holds no complete capture. */
    ReplayableSnapshot *
    slotView(size_t slot) const
    {
        ReplayableSnapshot *p =
            completedPending() && pendingSlot == slot
                ? pending.get()
                : reservoir.sample()[slot].get();
        return p != nullptr && p->complete ? p : nullptr;
    }

    Config cfg;
    ScanChains chainMeta;
    stats::ReservoirSampler<std::shared_ptr<ReplayableSnapshot>> reservoir;
    uint64_t nextInterval = 0;

    SampleObserver *observer = nullptr;
    std::vector<uint64_t> slotGen; //!< captures installed in each slot
    std::shared_ptr<ReplayableSnapshot> pending; //!< capture in flight
    size_t pendingSlot = 0;                      //!< its reservoir slot
};

} // namespace fame
} // namespace strober

#endif // STROBER_FAME_SAMPLER_H
