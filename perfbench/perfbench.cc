/**
 * @file
 * End-to-end benchmark of the Strober flow: closed-loop estimate jobs,
 * each the equivalent of `strober run <core> <workload>` from
 * cores::buildSoc to the finished core::EnergyReport, issued back to
 * back from one process on one client thread.
 *
 *   strober_perfbench --workload W --seed N --seconds S --trace 0|1
 *                     --cache-dir DIR [--trace-out FILE]
 *
 * Every job's report is checked and its deterministic rendering
 * digested. With --trace 0 the last stdout line carries the end-to-end
 * metrics; with --trace 1 it carries per-layer metrics taken from spans
 * recorded here, around calls into each layer's public functions, and
 * the spans are written as Chrome trace-event JSON to --trace-out.
 * perfbench/run.py builds this program, gives each run a fresh private
 * TMPDIR and cache directory, and removes both afterwards.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit.h"
#include "core/energy_sim.h"
#include "core/replay_executor.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "sim/worker_pool.h"
#include "workloads/workloads.h"

using namespace strober;

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double
rusageSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Process CPU time including waited-for children (the JIT compiler). */
double
cpuSeconds()
{
    return rusageSeconds(RUSAGE_SELF) + rusageSeconds(RUSAGE_CHILDREN);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in [0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out;
}

// --- Spans --------------------------------------------------------------

/** One completed span; times are seconds since the tracer's origin. */
struct TraceEvent
{
    std::string name;
    unsigned tid = 0;
    double start = 0;
    double dur = 0;
    long job = -1;
    long id = 0;
    long parent = 0; //!< 0: no parent
};

/**
 * In-memory span store, written out once when the run ends. Spans are
 * recorded only while `enabled`; a Span always measures its duration so
 * untraced jobs can still read the few timings the end-to-end metrics
 * need.
 */
class Tracer
{
  public:
    std::atomic<bool> enabled{false};
    std::atomic<long> job{-1};
    const double origin = nowSeconds();

    long newId() { return ++lastId; }

    void record(TraceEvent ev)
    {
        std::lock_guard<std::mutex> lock(mu);
        events.push_back(std::move(ev));
    }

    bool write(const std::string &path)
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        bool first = true;
        std::lock_guard<std::mutex> lock(mu);
        for (const TraceEvent &ev : events) {
            out << (first ? "\n" : ",\n");
            first = false;
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"job\":%ld,\"id\":%ld,"
                          "\"parent\":%ld}}",
                          jsonEscape(ev.name).c_str(), ev.tid,
                          ev.start * 1e6, ev.dur * 1e6, ev.job, ev.id,
                          ev.parent);
            out << buf;
        }
        out << "\n]}\n";
        return static_cast<bool>(out.flush());
    }

  private:
    std::atomic<long> lastId{0};
    std::mutex mu;
    std::vector<TraceEvent> events; //!< guarded by mu
};

Tracer g_tracer;
std::atomic<unsigned> g_nextTid{0};
thread_local unsigned t_tid = g_nextTid++;
thread_local long t_openSpan = 0; //!< innermost open span on this thread

/** Scoped span; nests under the innermost open span of its thread. */
class Span
{
  public:
    explicit Span(const char *name)
        : name(name), start(nowSeconds()), parent(t_openSpan),
          id(g_tracer.newId())
    {
        t_openSpan = id;
    }
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    long spanId() const { return id; }

    /** End the span (idempotent); @return its duration in seconds. */
    double stop()
    {
        if (!stopped) {
            stopped = true;
            dur = nowSeconds() - start;
            t_openSpan = parent;
            if (g_tracer.enabled) {
                g_tracer.record({name, t_tid, start - g_tracer.origin, dur,
                                 g_tracer.job, id, parent});
            }
        }
        return dur;
    }

  private:
    const char *name;
    double start;
    long parent;
    long id;
    double dur = 0;
    bool stopped = false;
};

// --- Executors --------------------------------------------------------

/**
 * The built-in in-process schedule (cfg.parallelReplays strided
 * workers, one GateSimulator each), re-implemented here only so every
 * core::replaySnapshot call can be timed. Used by traced phased jobs
 * without a cache; untraced jobs run the program's own executor.
 */
class TimedReplayExecutor : public core::ReplayExecutor
{
  public:
    std::vector<double> snapshotSeconds; //!< one per replaySnapshot call
    double busySeconds = 0;              //!< summed over workers
    double idleSeconds = 0;              //!< workers' wait for the slowest
    double allSeconds = 0;

    const char *name() const override { return "timed-in-process"; }

    void replayAll(const core::ReplayContext &ctx,
                   const std::vector<core::ReplayUnit> &units,
                   std::vector<core::ReplayRecord> &records) override
    {
        Span all("core.replay_all");
        const long parentId = all.spanId();
        unsigned parallel = std::max(1u, ctx.cfg.parallelReplays);
        parallel = std::min<unsigned>(parallel, units.size());
        std::vector<std::vector<double>> perWorker(parallel);
        auto worker = [&](unsigned w) {
            t_openSpan = parentId;
            gate::GateSimulator gsim(ctx.synth.netlist);
            for (size_t i = w; i < units.size(); i += parallel) {
                Span s("core.replay_snapshot");
                records[i] = core::replaySnapshot(gsim, ctx, units[i]);
                perWorker[w].push_back(s.stop());
            }
        };
        std::vector<std::thread> threads;
        for (unsigned t = 1; t < parallel; ++t)
            threads.emplace_back(worker, t);
        if (parallel > 0)
            worker(0);
        for (std::thread &t : threads)
            t.join();
        allSeconds = all.stop();
        for (const std::vector<double> &w : perWorker) {
            double busy = 0;
            for (double s : w)
                busy += s;
            busySeconds += busy;
            idleSeconds += std::max(0.0, allSeconds - busy);
            snapshotSeconds.insert(snapshotSeconds.end(), w.begin(),
                                   w.end());
        }
    }
};

/** Forwards to a CachingReplayExecutor inside a span. */
class SpanningExecutor : public core::ReplayExecutor
{
  public:
    explicit SpanningExecutor(core::ReplayExecutor &inner) : inner(inner) {}
    double allSeconds = 0;

    const char *name() const override { return inner.name(); }

    void replayAll(const core::ReplayContext &ctx,
                   const std::vector<core::ReplayUnit> &units,
                   std::vector<core::ReplayRecord> &records) override
    {
        Span s("farm.replay_all");
        inner.replayAll(ctx, units, records);
        allSeconds = s.stop();
    }

  private:
    core::ReplayExecutor &inner;
};

// --- Workloads --------------------------------------------------------

/** The shape of every job in one benchmark workload. */
struct Shape
{
    const char *name;
    const char *core;
    const char *workload;
    sim::Backend backend;
    bool streamed;       //!< estimateStreaming instead of run + estimate
    bool cached;         //!< farm::CachingReplayExecutor on the run's dir
    unsigned replayWorkers;
    bool reuseSeed;      //!< every job uses the workload seed itself
    bool groundTruth;    //!< traced run measures gate-level truth once
    /** Nominal wall of one job, in seconds, on a shared 4-vCPU host. A
     *  run measures --seconds / jobSeconds jobs (see jobCount), so its
     *  work, and which seeds it checks, never depend on host speed. */
    double jobSeconds;
};

const Shape kShapes[] = {
    {"replay-heavy", "boom2w", "coremark", sim::Backend::InterpretedActivity,
     false, false, 4, false, true, 1.1},
    {"rerun-compiled", "boom2w", "linuxboot", sim::Backend::CompiledParallel,
     false, true, 4, true, false, 14.0},
    {"streamed", "boom2w", "linuxboot", sim::Backend::InterpretedActivity,
     true, false, 3, false, false, 3.4},
    // Self-test shapes: one short rocket job per workload shape.
    {"smoke-phased", "rocket", "towers", sim::Backend::InterpretedActivity,
     false, false, 4, false, true, 0.25},
    {"smoke-rerun", "rocket", "towers", sim::Backend::CompiledParallel,
     false, true, 4, true, false, 0.25},
    {"smoke-streamed", "rocket", "towers", sim::Backend::InterpretedActivity,
     true, false, 3, false, false, 0.25},
};

const Shape *
findShape(const std::string &name)
{
    for (const Shape &s : kShapes) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

cores::SocConfig
coreByName(const std::string &name)
{
    if (name == "rocket")
        return cores::SocConfig::rocket();
    if (name == "boom1w")
        return cores::SocConfig::boom1w();
    return cores::SocConfig::boom2w();
}

/** What one job measured and whether its output passed. */
struct JobResult
{
    bool traced = false;
    bool cold = false; //!< started with no file in TMPDIR or the cache
    double wall = 0;  //!< buildSoc .. finished report
    double setup = 0; //!< buildSoc + byName + ctor + first synthesis()
    double cpu = 0;
    double unattributed = 0; //!< job wall under no layer span
    core::EnergyReport report;
    std::string rendering;
    std::vector<std::string> failures; //!< wrong output
    /** Fewer snapshots than requested because the sampled trailing
     *  partial interval displaced a complete capture (see runJob). */
    bool shortSample = false;
    std::map<std::string, double> layer;
    std::vector<double> snapshotSeconds;
    size_t cacheHits = 0, cacheMisses = 0, cacheStores = 0;
    uint64_t replaysExecuted = 0;
};

JobResult
runJob(const Shape &shape, uint64_t seed, const std::string &cacheDir,
       bool traced, long jobIndex)
{
    g_tracer.enabled = traced;
    g_tracer.job = jobIndex;
    JobResult r;
    r.traced = traced;
    std::map<std::string, double> &L = r.layer;

    const double cpu0 = cpuSeconds();
    Span job("bench.job");
    double childSeconds = 0;

    Span setup("bench.setup");
    Span socSpan("cores.build_soc");
    rtl::Design soc = cores::buildSoc(coreByName(shape.core));
    L["cores.build_soc_s"] = socSpan.stop();
    Span wlSpan("workloads.build");
    workloads::Workload wl = workloads::byName(shape.workload);
    L["workloads.build_s"] = wlSpan.stop();

    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 30;
    cfg.replayLength = 128;
    cfg.seed = seed;
    cfg.backend = shape.backend;
    cfg.parallelReplays = shape.replayWorkers;
    std::unique_ptr<farm::CachingReplayExecutor> caching;
    std::unique_ptr<SpanningExecutor> spanning;
    std::unique_ptr<TimedReplayExecutor> timed;
    if (shape.cached) {
        caching = std::make_unique<farm::CachingReplayExecutor>(cacheDir);
        spanning = std::make_unique<SpanningExecutor>(*caching);
        cfg.replayExecutor = traced ? static_cast<core::ReplayExecutor *>(
                                          spanning.get())
                                    : caching.get();
    } else if (traced && !shape.streamed) {
        timed = std::make_unique<TimedReplayExecutor>();
        cfg.replayExecutor = timed.get();
    }

    const double childCpu0 = rusageSeconds(RUSAGE_CHILDREN);
    Span ctorSpan("core.ctor");
    core::EnergySimulator strober(soc, cfg);
    L["core.ctor_s"] = ctorSpan.stop();
    L["codegen.compiler_cpu_s"] = rusageSeconds(RUSAGE_CHILDREN) - childCpu0;

    Span flowSpan("gate.asic_flow");
    const gate::SynthesisResult &synth = strober.synthesis();
    L["gate.asic_flow_s"] = flowSpan.stop();
    L["gate.live_gates"] = static_cast<double>(synth.stats.liveGates);
    L["gate.dffs"] = static_cast<double>(synth.netlist.dffs().size());
    r.setup = setup.stop();
    for (const char *k : {"cores.build_soc_s", "workloads.build_s",
                          "core.ctor_s", "gate.asic_flow_s"})
        childSeconds += L[k];

    Span driverSpan("cores.driver_init");
    cores::SocDriver driver(soc, wl.program);
    childSeconds += driverSpan.stop();

    core::RunStats run;
    if (shape.streamed) {
        Span s("core.stream");
        r.report = strober.estimateStreaming(driver, wl.maxCycles, &run);
        L["core.stream_s"] = s.stop();
        childSeconds += L["core.stream_s"];
        L["core.stream_fastsim_s"] = r.report.fastSimWallSeconds;
        L["core.stream_replay_s"] = r.report.replayWallSeconds;
        L["core.stream_overlap_s"] = r.report.overlapWallSeconds;
        L["core.superseded_replays"] =
            static_cast<double>(r.report.supersededReplays);
        L["core.useful_replay_ratio"] =
            run.recordCount ? static_cast<double>(run.recordCount -
                                                  r.report.supersededReplays) /
                                  static_cast<double>(run.recordCount)
                            : 0;
        L["fame.run_s"] = run.wallSeconds;
    } else {
        Span runSpan("fame.run");
        run = strober.run(driver, wl.maxCycles);
        L["fame.run_s"] = runSpan.stop();
        childSeconds += L["fame.run_s"];
        Span estSpan("core.estimate");
        r.report = strober.estimate();
        L["core.estimate_s"] = estSpan.stop();
        childSeconds += L["core.estimate_s"];
        double replayAll = timed ? timed->allSeconds
                           : spanning ? spanning->allSeconds
                                      : 0;
        L["core.replay_all_s"] = replayAll;
        L["core.aggregate_s"] = L["core.estimate_s"] - replayAll;
        if (spanning)
            L["farm.replay_all_s"] = replayAll;
    }
    r.wall = job.stop();
    r.cpu = cpuSeconds() - cpu0;
    r.unattributed = r.wall > 0 ? (r.wall - childSeconds) / r.wall : 0;

    L["fame.target_cycles"] = static_cast<double>(run.targetCycles);
    L["fame.captures"] = static_cast<double>(run.recordCount);
    L["fame.intervals"] = static_cast<double>(run.intervalsSeen);
    L["sim.cycles_per_s"] = run.simulatedHz;
    L["sim.activity"] =
        strober.harness().tokenSim().simulator().activityFactor();
    L["sim.threads"] = sim::simThreads();

    const core::EnergyReport &rep = r.report;
    double attempts = 0, retries = 0, replayed = 0;
    for (const core::SnapshotOutcome &oc : rep.outcomes) {
        attempts += oc.attempts;
        retries += oc.attempts > 1 ? oc.attempts - 1 : 0;
        replayed += oc.replayed() ? 1 : 0;
    }
    L["core.replays_attempted"] = attempts;
    L["core.replay_retries"] = retries;
    L["core.replay_ok_ratio"] =
        rep.outcomes.empty() ? 0 : replayed / rep.outcomes.size();
    L["gate.modeled_load_s"] = rep.modeledLoadSeconds;
    if (timed) {
        L["core.replay_busy_s"] = timed->busySeconds;
        L["core.replay_idle_s"] = timed->idleSeconds;
        r.snapshotSeconds = timed->snapshotSeconds;
    }
    if (caching) {
        r.cacheHits = caching->cacheStats().hits;
        r.cacheMisses = caching->cacheStats().misses;
        r.cacheStores = caching->cacheStats().stores;
        r.replaysExecuted = caching->replaysExecuted();
    }

    // Output checks: a job passes only if it meets every one.
    Span check("bench.check");
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok)
            r.failures.push_back(what);
    };
    expect(driver.done(), "driver did not finish");
    expect(driver.exitCode() == wl.expectedExit,
           strfmt("exit code 0x%x, expected 0x%x", driver.exitCode(),
                  wl.expectedExit));
    expect(rep.valid, "report invalid: " + rep.statusMessage);
    expect(!rep.degraded, "report degraded: " + rep.statusMessage);
    expect(rep.replayMismatches == 0,
           strfmt("%llu replay mismatches",
                  (unsigned long long)rep.replayMismatches));
    // A job with fewer snapshots than requested fails. One cause is a
    // known sampler defect: the reservoir is also offered the interval
    // that starts at the last L-boundary, so it sees population + 1
    // intervals. When the run ends inside that interval and the
    // reservoir samples it, the incomplete capture displaces a complete
    // one and is then dropped, leaving n - 1. Only the last capture can
    // be incomplete, so n - 1 with that extra offer identifies the
    // defect (though not which complete capture it displaced). Such a
    // job counts as failed but not as a wrong output; any other count
    // is wrong.
    if (rep.snapshots != cfg.sampleSize) {
        r.shortSample = rep.snapshots == cfg.sampleSize - 1 &&
                        run.intervalsSeen == rep.population + 1;
        expect(r.shortSample,
               strfmt("%zu snapshots, expected %zu", rep.snapshots,
                      cfg.sampleSize));
    }
    expect(rep.population == run.targetCycles / cfg.replayLength,
           strfmt("population %llu != %llu cycles / L",
                  (unsigned long long)rep.population,
                  (unsigned long long)run.targetCycles));
    r.rendering = farm::renderReportDeterministic(rep);
    check.stop();
    return r;
}

/** Gate-level ground truth of one workload, in watts. */
double
measureTruth(const Shape &shape)
{
    Span s("stats.ground_truth");
    rtl::Design soc = cores::buildSoc(coreByName(shape.core));
    workloads::Workload wl = workloads::byName(shape.workload);
    core::EnergySimulator::Config cfg;
    core::EnergySimulator strober(soc, cfg);
    cores::SocDriver driver(soc, wl.program);
    return core::measureGroundTruth(strober, driver, wl.maxCycles)
        .totalWatts();
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string cacheDir;
    std::string traceOut;
};

/** Every run measures at least this many jobs, whatever --seconds says;
 *  in a traced run that is two untraced/traced pairs. */
constexpr size_t kMinJobs = 4;
/** On the cached workload an untraced run empties the result cache
 *  before every other job, so cold and warm jobs alternate, and it
 *  measures at least this many cold jobs: one is too noisy a sample of
 *  cold cost. */
constexpr size_t kMinColdJobs = 3;

/**
 * Jobs one run measures: --seconds worth at the shape's nominal job
 * wall, at least the minimum, and whole untraced/traced pairs in a
 * traced run. The count is fixed by the arguments rather than by a
 * clock, so a seed always checks the same sampler seeds and a run's
 * `attempted` and `failed` are the same on every host and every repeat.
 */
size_t
jobCount(const Shape &shape, double seconds, bool trace)
{
    const bool alternateCold = shape.cached && !trace;
    const size_t minJobs = alternateCold ? 2 * kMinColdJobs - 1 : kMinJobs;
    size_t n = static_cast<size_t>(std::llround(seconds / shape.jobSeconds));
    n = std::max(n, minJobs);
    return trace ? n + n % 2 : n;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "strober_perfbench: %s\n"
                 "usage: strober_perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --cache-dir DIR "
                 "[--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--cache-dir")
            a.cacheDir = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown option " + k).c_str());
    }
    if (a.cacheDir.empty())
        usage("--cache-dir is required");
    return a;
}

/** Regular files under a directory tree, and their total size. */
struct DirUsage
{
    size_t files = 0;
    uint64_t bytes = 0;
};

DirUsage
dirUsage(const std::string &dir)
{
    namespace fs = std::filesystem;
    DirUsage u;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec)) {
            ++u.files;
            u.bytes += it->file_size(ec);
        }
    }
    return u;
}

/** Remove everything inside @p dir, keeping the directory itself. */
void
clearDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        fs::remove_all(e.path());
}

struct Metric
{
    std::string name;
    double value = 0;
    const char *unit = "";
};

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Shape *shape = findShape(args.workload);
    if (shape == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());

    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"nproc\": %u, \"sim_threads\": %u, "
                "\"host_compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"core\": \"%s\", \"program\": \"%s\", "
                "\"backend\": \"%s\", \"replay_workers\": %u}}\n",
                shape->name, args.seed, std::thread::hardware_concurrency(),
                sim::simThreads(),
                jsonEscape(codegen::hostCompiler()).c_str(),
                PERFBENCH_BUILD_TYPE, shape->core, shape->workload,
                sim::backendName(shape->backend), shape->replayWorkers);
    std::fflush(stdout);

    // One discarded rocket job first: it touches no on-disk cache (no
    // JIT, no result cache) but brings the host out of idle. Without
    // it, job 0 often ran up to 2x slower than the jobs after it.
    runJob(*findShape("smoke-phased"), args.seed, args.cacheDir, false, -1);

    const char *tmpEnv = std::getenv("TMPDIR");
    const std::string tmpDir = tmpEnv != nullptr ? tmpEnv : "";
    // Closed loop, one client: the next job starts when the previous
    // one has finished. A traced run runs each seed twice, untraced and
    // then traced, so it can report its tracing overhead from same-seed
    // pairs. Job 0 is then untraced, which on the cached workload keeps
    // the cold job out of the per-layer figures.
    std::vector<JobResult> jobs;
    const bool alternateCold = shape->cached && !args.trace;
    const size_t nJobs = jobCount(*shape, args.seconds, args.trace);
    while (jobs.size() < nJobs) {
        long i = static_cast<long>(jobs.size());
        long k = args.trace ? i / 2 : i;
        uint64_t seed = shape->reuseSeed ? args.seed : args.seed + k;
        bool traced = args.trace && i % 2 == 1;
        if (alternateCold && i % 2 == 0)
            clearDir(args.cacheDir);
        bool cold = dirUsage(args.cacheDir).files == 0 &&
                    (tmpDir.empty() || dirUsage(tmpDir).files == 0);
        JobResult r = runJob(*shape, seed, args.cacheDir, traced, i);
        r.cold = cold;
        if (shape->cached && i > 0 && r.rendering != jobs[0].rendering)
            r.failures.push_back("rendering differs from job 0's");
        std::printf("{\"job\": %ld, \"seed\": %" PRIu64 ", \"traced\": %d, "
                    "\"cold\": %d, \"wall_s\": %.6f, \"setup_s\": %.6f, "
                    "\"cpu_s\": %.6f, \"power_mw\": %.6f, \"ci_mw\": %.6f, "
                    "\"snapshots\": %zu, \"digest\": \"%016" PRIx64 "\", "
                    "\"short_sample\": %d, \"ok\": %s",
                    i, seed, traced ? 1 : 0, cold ? 1 : 0, r.wall, r.setup,
                    r.cpu, r.report.averagePower.mean * 1e3,
                    r.report.averagePower.halfWidth * 1e3,
                    r.report.snapshots, fnv1a64(r.rendering),
                    r.shortSample ? 1 : 0,
                    r.failures.empty() && !r.shortSample ? "true" : "false");
        for (size_t k = 0; k < r.failures.size(); ++k) {
            std::printf("%s\"%s\"", k ? ", " : ", \"failures\": [",
                        jsonEscape(r.failures[k]).c_str());
        }
        std::printf("%s}\n", r.failures.empty() ? "" : "]");
        std::fflush(stdout);
        jobs.push_back(std::move(r));
    }
    g_tracer.enabled = args.trace;
    g_tracer.job = -1;

    // failed counts every job that misses a check; correct is false only
    // if some job's output is wrong, not merely short of one sample.
    size_t failed = 0, wrong = 0, shortSamples = 0;
    for (const JobResult &j : jobs) {
        failed += j.failures.empty() && !j.shortSample ? 0 : 1;
        wrong += j.failures.empty() ? 0 : 1;
        shortSamples += j.shortSample ? 1 : 0;
    }

    auto collect = [&](auto pick, bool tracedOnly) {
        std::vector<double> v;
        for (const JobResult &j : jobs) {
            if (!tracedOnly || j.traced)
                v.push_back(pick(j));
        }
        return v;
    };
    auto medianOf = [&](auto pick) { return median(collect(pick, false)); };

    std::vector<Metric> metrics;
    size_t overheadPairs = 0;
    auto emit = [&](const std::string &name, double value, const char *unit) {
        metrics.push_back({name, value, unit});
    };
    if (!args.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        emit("estimate_s",
             medianOf([](const JobResult &j) { return j.wall; }), "s");
        // Cold: the jobs that found no file in TMPDIR (where the JIT
        // works) or in the result cache. That is every even job of the
        // cached workload and every job of one that caches nothing on
        // disk.
        std::vector<double> cold;
        for (const JobResult &j : jobs) {
            if (j.cold)
                cold.push_back(j.wall);
        }
        emit("cold_estimate_s", median(cold), "s");
        emit("setup_s",
             medianOf([](const JobResult &j) { return j.setup; }), "s");
        emit("cpu_s", medianOf([](const JobResult &j) { return j.cpu; }),
             "s");
        emit("peak_rss_mb", ru.ru_maxrss / 1024.0, "MB");
    } else {
        // Per-job layer values: median over the traced jobs.
        std::map<std::string, std::vector<double>> layers;
        for (const JobResult &j : jobs) {
            if (j.traced) {
                for (const auto &[k, v] : j.layer)
                    layers[k].push_back(v);
            }
        }
        static const char *const kLayerUnits[][2] = {
            {"cores.build_soc_s", "s"},
            {"workloads.build_s", "s"},
            {"core.ctor_s", "s"},
            {"codegen.compiler_cpu_s", "s"},
            {"gate.asic_flow_s", "s"},
            {"gate.live_gates", "count"},
            {"gate.dffs", "count"},
            {"fame.run_s", "s"},
            {"fame.target_cycles", "count"},
            {"fame.captures", "count"},
            {"fame.intervals", "count"},
            {"sim.cycles_per_s", "1/s"},
            {"sim.activity", "ratio"},
            {"sim.threads", "count"},
            {"core.estimate_s", "s"},
            {"core.replay_all_s", "s"},
            {"core.aggregate_s", "s"},
            {"core.replay_busy_s", "s"},
            {"core.replay_idle_s", "s"},
            {"core.replays_attempted", "count"},
            {"core.replay_retries", "count"},
            {"core.replay_ok_ratio", "ratio"},
            {"gate.modeled_load_s", "s"},
            {"core.stream_s", "s"},
            {"core.stream_fastsim_s", "s"},
            {"core.stream_replay_s", "s"},
            {"core.stream_overlap_s", "s"},
            {"core.superseded_replays", "count"},
            {"core.useful_replay_ratio", "ratio"},
            {"farm.replay_all_s", "s"},
        };
        for (const auto &[name, unit] : kLayerUnits)
            emit(name, median(layers[name]), unit);

        std::vector<double> snaps;
        for (const JobResult &j : jobs)
            snaps.insert(snaps.end(), j.snapshotSeconds.begin(),
                         j.snapshotSeconds.end());
        emit("core.replay_snapshot_s.p50", percentile(snaps, 0.5), "s");
        emit("core.replay_snapshot_s.p90", percentile(snaps, 0.9), "s");

        // Farm counters: totals over every job of the run.
        double hits = 0, misses = 0, stores = 0, executed = 0;
        for (const JobResult &j : jobs) {
            hits += j.cacheHits;
            misses += j.cacheMisses;
            stores += j.cacheStores;
            executed += j.replaysExecuted;
        }
        emit("farm.cache_hits", hits, "count");
        emit("farm.cache_misses", misses, "count");
        emit("farm.cache_stores", stores, "count");
        emit("farm.replays_executed", executed, "count");
        emit("farm.cache_bytes",
             static_cast<double>(dirUsage(args.cacheDir).bytes), "bytes");

        // Attribution: the share of each traced job's wall time that no
        // layer span covers; the worst job is reported.
        std::vector<double> unattr = collect(
            [](const JobResult &j) { return j.unattributed * 100; }, true);
        double worst = unattr.empty()
                           ? 0
                           : *std::max_element(unattr.begin(), unattr.end());
        if (worst > 5)
            std::fprintf(stderr, "perfbench: %.2f%% of a job's wall time is "
                                 "not covered by any layer span (> 5%%)\n",
                         worst);
        emit("bench.unattributed_pct", worst, "%");

        // Tracing overhead: median over same-seed pairs of traced vs
        // untraced wall. On the cached workload pair 0 compares the cold
        // job with a warm one, so it is left out.
        std::vector<double> pairs;
        for (size_t i = shape->cached ? 2 : 0; i + 1 < jobs.size(); i += 2)
            pairs.push_back((jobs[i + 1].wall / jobs[i].wall - 1) * 100);
        emit("bench.trace_overhead_pct", median(pairs), "%");
        overheadPairs = pairs.size();

        // Fixed by the sampler seeds.
        emit("stats.ci_halfwidth_pct",
             median(collect(
                 [](const JobResult &j) {
                     return j.report.averagePower.relativeError() * 100;
                 },
                 true)),
             "%");

        double truthErr = 0, coverage = 0;
        if (shape->groundTruth) {
            double truth = measureTruth(*shape);
            std::vector<double> errs;
            double covered = 0;
            for (const JobResult &j : jobs) {
                if (!j.traced)
                    continue;
                const stats::Estimate &e = j.report.averagePower;
                errs.push_back(std::fabs(e.mean - truth) / truth * 100);
                covered += e.lower() <= truth && truth <= e.upper() ? 1 : 0;
            }
            truthErr = median(errs);
            coverage = covered / errs.size();
            std::fprintf(stderr, "perfbench: ground truth %.4f mW\n",
                         truth * 1e3);
        }
        emit("stats.truth_error_pct", truthErr, "%");
        emit("stats.ci_coverage", coverage, "ratio");

        if (!args.traceOut.empty() && !g_tracer.write(args.traceOut)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
            return 1;
        }
    }
    std::printf("{\"summary\": {\"jobs\": %zu, \"failed\": %zu, "
                "\"wrong_output\": %zu, \"short_sample\": %zu",
                jobs.size(), failed, wrong, shortSamples);
    if (args.trace)
        std::printf(", \"overhead_pairs\": %zu", overheadPairs);
    std::printf("}}\n");
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                wrong == 0 ? "true" : "false", jobs.size(), failed);
    for (size_t k = 0; k < metrics.size(); ++k) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    k ? ", " : "", metrics[k].name.c_str(), metrics[k].value,
                    metrics[k].unit);
    }
    std::printf("}}\n");
    return 0;
}
