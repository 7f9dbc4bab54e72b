/**
 * @file
 * Experiment-engine throughput: runs the Figure 5 matrix several ways —
 * serial cold, parallel cold, and parallel through the snapshotted
 * cell runner (trace cache + snapshot cache) from fresh caches, from a
 * warm trace cache, and from warm snapshots with and without a machine
 * pool — and reports wall-clock, simulated accesses per second,
 * speedups, and whether every variant is bit-identical to the serial
 * baseline. Machine-readable copy goes to BENCH_throughput.json.
 *
 * The variants, all at the same job count:
 *   cold              runExperiments with no cache
 *   snapshot-fresh    fresh trace and snapshot caches (what every
 *                     bench main runs): records, captures, replays
 *   snapshot-capture  warm trace cache, fresh snapshot cache: every
 *                     cell replays warmup and the measured region and
 *                     captures its warm image
 *   snapshot-fork     warm snapshots: cells restore the frozen image
 *                     and run just the measured region
 *   snapshot-pooled   snapshot-fork leasing Machine storage from a
 *                     MachinePool
 *
 * Every variant runs once untimed before its timed run, so the first
 * variant measured no longer pays the process's one-time costs (heap
 * high-water growth, pool population) that used to skew the ratios.
 *
 * Usage: bench_throughput [common bench flags] [--json PATH]
 *                         [--require-cache-speedup]
 *                         [--require-snapshot-speedup]
 *                         [--require-engine-speedup]
 *        --jobs 0 (default) uses every hardware thread.
 *        --require-cache-speedup exits nonzero unless snapshot-fresh
 *          beats cold generation at the same job count (the CI gate).
 *        --require-snapshot-speedup exits nonzero unless snapshot-fork
 *          beats snapshot-capture (full warmup replay).
 *        --require-engine-speedup exits nonzero unless the cached-fork
 *          path beats cold generation at the same job count by at
 *          least 2.2x (conservative CI floor; see EXPERIMENTS.md for
 *          measured values).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "trace/trace_cache.hh"

namespace
{

/** Fields that must match cell-for-cell between variants. */
bool
sameResult(const ap::RunResult &a, const ap::RunResult &b)
{
    bool same = a.workload == b.workload && a.mode == b.mode &&
                a.pageSize == b.pageSize &&
                a.instructions == b.instructions &&
                a.idealCycles == b.idealCycles &&
                a.walkCycles == b.walkCycles &&
                a.trapCycles == b.trapCycles &&
                a.tlbMisses == b.tlbMisses && a.walks == b.walks &&
                a.traps == b.traps &&
                a.guestPageFaults == b.guestPageFaults &&
                a.avgWalkRefs == b.avgWalkRefs;
    for (int c = 0; c < 6; ++c)
        same = same && a.coverage[c] == b.coverage[c];
    return same;
}

bool
allSame(const std::vector<ap::RunResult> &a,
        const std::vector<ap::RunResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameResult(a[i], b[i]))
            return false;
    }
    return true;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using fsec = std::chrono::duration<double>;
    return fsec(std::chrono::steady_clock::now() - start).count();
}

struct Variant
{
    const char *name;
    double seconds = 0;
    double accessesPerSec = 0;
    bool identical = true;
};

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    // Matches bench_figure5_overheads' default so the recorded JSON
    // reflects the whole-matrix regeneration the caches accelerate.
    ap::BenchOptions opt(2'000'000, ap::kJobsFlag | ap::kSnapshotPoolFlag,
                         "[--json PATH] [--require-cache-speedup] "
                         "[--require-snapshot-speedup] "
                         "[--require-engine-speedup]");
    opt.jobs = 0;
    bool require_cache_speedup = false;
    bool require_snapshot_speedup = false;
    bool require_engine_speedup = false;
    std::string json_path = "BENCH_throughput.json";
    for (int i = 1; i < argc; ++i) {
        if (opt.consume(argc, argv, i))
            continue;
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--require-cache-speedup"))
            require_cache_speedup = true;
        else if (!std::strcmp(argv[i], "--require-snapshot-speedup"))
            require_snapshot_speedup = true;
        else if (!std::strcmp(argv[i], "--require-engine-speedup"))
            require_engine_speedup = true;
        else
            opt.reject(argv, i);
    }
    unsigned jobs = ap::effectiveJobs(opt.jobs);
    // At jobs=1, or on a single-hardware-thread host, the "parallel"
    // pass still runs (it is the cold baseline for the cache/engine
    // ratios) but its scaling number is meaningless — mark it skipped
    // and exempt it from validation instead of reporting a bogus <1x
    // speedup. The printed reason names which of the two applies.
    const bool parallel_skipped =
        std::thread::hardware_concurrency() <= 1 || jobs <= 1;

    std::vector<ap::ExperimentSpec> specs = ap::figure5Specs(opt.ops);
    std::printf("experiment-engine throughput: %zu cells x %llu ops, "
                "%u hardware threads\n",
                specs.size(), static_cast<unsigned long long>(opt.ops),
                std::thread::hardware_concurrency());

    // Untimed warmup: the process's first matrix pass grows the heap
    // to its high-water mark and populates the per-thread pools; run
    // it before any clock starts so that one-time cost is not charged
    // to whichever variant happens to be measured first.
    ap::runExperiments(specs, 1);

    auto t0 = std::chrono::steady_clock::now();
    std::vector<ap::RunResult> serial = ap::runExperiments(specs, 1);
    double serial_sec = secondsSince(t0);

    std::uint64_t accesses = 0;
    for (const ap::RunResult &r : serial)
        accesses += r.instructions;

    Variant cold{"cold"};
    Variant fresh{"snapshot-fresh"};
    Variant capture{"snapshot-capture"};
    Variant snapfork{"snapshot-fork"};
    std::uint64_t cache_records = 0, cache_replays = 0;
    std::uint64_t snap_captures = 0, snap_forks = 0;

    {
        // Warmup at this job count (spins up the worker pool and its
        // per-thread state), then the timed run.
        ap::runExperiments(specs, jobs);
        t0 = std::chrono::steady_clock::now();
        std::vector<ap::RunResult> r = ap::runExperiments(specs, jobs);
        cold.seconds = secondsSince(t0);
        cold.identical = allSame(serial, r);
    }
    {
        // Fresh caches per pass so each pays its own recording and
        // capture cost; the warmup pass uses throwaway caches for the
        // same reason.
        {
            ap::TraceCache warm_traces;
            ap::SnapshotCache warm_snaps;
            warm_snaps.setByteBudget(opt.snapshotPoolBytes());
            ap::runExperiments(
                specs, jobs, ap::snapshotCellFn(warm_traces, warm_snaps));
        }
        ap::TraceCache cache;
        {
            ap::SnapshotCache snaps;
            snaps.setByteBudget(opt.snapshotPoolBytes());
            t0 = std::chrono::steady_clock::now();
            std::vector<ap::RunResult> r = ap::runExperiments(
                specs, jobs, ap::snapshotCellFn(cache, snaps));
            fresh.seconds = secondsSince(t0);
            fresh.identical = allSame(serial, r);
            cache_records = cache.records();
            cache_replays = cache.replays();
        }

        // Full-replay baseline: the trace cache is warm but the
        // snapshot cache is not, so every cell replays its whole
        // trace (warmup + measured region) and captures on the way.
        ap::SnapshotCache snaps;
        snaps.setByteBudget(opt.snapshotPoolBytes());
        t0 = std::chrono::steady_clock::now();
        std::vector<ap::RunResult> r = ap::runExperiments(
            specs, jobs, ap::snapshotCellFn(cache, snaps));
        capture.seconds = secondsSince(t0);
        capture.identical = allSame(serial, r);
    }
    Variant pooled{"snapshot-pooled"};
    std::uint64_t snap_evictions = 0, snap_resident = 0;
    std::uint64_t pool_creates = 0, pool_reuses = 0;
    ap::Machine::BatchFilterStats filter_stats;
    {
        // Snapshot regeneration: warm both caches, then re-run the
        // matrix — every cell restores its frozen warm image and runs
        // only the measured region. The cache-population pass doubles
        // as this variant's untimed warmup.
        ap::TraceCache cache;
        ap::SnapshotCache snaps;
        snaps.setByteBudget(opt.snapshotPoolBytes());
        ap::runExperiments(specs, jobs,
                           ap::snapshotCellFn(cache, snaps));
        // Attribute the filter telemetry to the timed cached-fork
        // pass — the measured region the engine gate scores.
        ap::Machine::resetBatchFilterStats();
        t0 = std::chrono::steady_clock::now();
        std::vector<ap::RunResult> r = ap::runExperiments(
            specs, jobs, ap::snapshotCellFn(cache, snaps));
        snapfork.seconds = secondsSince(t0);
        snapfork.identical = allSame(serial, r);
        filter_stats = ap::Machine::batchFilterStats();
        snap_captures = snaps.captures();
        snap_forks = snaps.forks();
        snap_evictions = snaps.evictions();
        snap_resident = snaps.residentBytes();

        // Fork-path delta: same warm caches, but forked cells lease
        // reused Machine storage from a pool instead of constructing
        // a fresh Machine per cell.
        ap::MachinePool pool;
        ap::runExperiments(specs, jobs,
                           ap::snapshotCellFn(cache, snaps, &pool));
        t0 = std::chrono::steady_clock::now();
        std::vector<ap::RunResult> r2 = ap::runExperiments(
            specs, jobs, ap::snapshotCellFn(cache, snaps, &pool));
        pooled.seconds = secondsSince(t0);
        pooled.identical = allSame(serial, r2);
        pool_creates = pool.creates();
        pool_reuses = pool.reuses();
    }

    Variant *variants[] = {&cold, &fresh, &capture, &snapfork, &pooled};
    bool identical = true;
    for (Variant *v : variants) {
        v->accessesPerSec = accesses / v->seconds;
        identical = identical && v->identical;
    }
    double serial_aps = accesses / serial_sec;

    double parallel_speedup = serial_sec / cold.seconds;
    double cache_speedup = cold.seconds / fresh.seconds;
    double snapshot_speedup = capture.seconds / snapfork.seconds;
    // The machine-pool fork-path delta: warm-fork regeneration with
    // reused machine storage vs with per-cell construction.
    double pool_speedup = snapfork.seconds / pooled.seconds;
    // The whole engine pass in one number: warm cached-fork
    // regeneration vs cold generation at the same job count.
    double engine_speedup = cold.seconds / snapfork.seconds;

    std::printf("  serial cold      (jobs=1):  %7.3f s  %12.0f accesses/s\n",
                serial_sec, serial_aps);
    for (const Variant *v : variants) {
        std::printf("  %-16s (jobs=%u):  %7.3f s  %12.0f accesses/s%s\n",
                    v->name, jobs, v->seconds, v->accessesPerSec,
                    v->identical ? "" : "  NOT IDENTICAL (BUG)");
    }
    if (parallel_skipped) {
        std::printf("  parallel speedup: skipped (%s)   cache "
                    "speedup (fresh vs cold, same jobs): %.2fx\n",
                    jobs <= 1 ? "jobs=1" : "single hardware thread",
                    cache_speedup);
    } else {
        std::printf("  parallel speedup: %.2fx   cache speedup "
                    "(fresh vs cold, same jobs): %.2fx\n",
                    parallel_speedup, cache_speedup);
    }
    std::printf("  snapshot regeneration speedup (fork vs capture "
                "replay): %.2fx\n",
                snapshot_speedup);
    std::printf("  engine speedup (cached-fork vs cold, same jobs): "
                "%.2fx\n",
                engine_speedup);
    std::printf("  machine-pool fork-path delta (pooled vs fresh "
                "construction): %.2fx\n",
                pool_speedup);
    std::printf("  cache: %llu recorded, %llu replayed   snapshots: "
                "%llu captured, %llu forked\n",
                static_cast<unsigned long long>(cache_records),
                static_cast<unsigned long long>(cache_replays),
                static_cast<unsigned long long>(snap_captures),
                static_cast<unsigned long long>(snap_forks));
    std::printf("  snapshot pool: %llu evictions, %llu resident bytes "
                "(budget %llu MiB)   machine pool: %llu creates, "
                "%llu reuses\n",
                static_cast<unsigned long long>(snap_evictions),
                static_cast<unsigned long long>(snap_resident),
                static_cast<unsigned long long>(opt.snapshotPoolMb),
                static_cast<unsigned long long>(pool_creates),
                static_cast<unsigned long long>(pool_reuses));
    // Density of the L0 filter over the timed cached-fork pass: how
    // much of the stream the block sweeps saw, and how much they
    // retired without touching the TLB arrays.
    const double lane_hit_density =
        filter_stats.lanesScanned
            ? double(filter_stats.lanesFiltered) /
                  double(filter_stats.lanesScanned)
            : 0.0;
    std::printf("  filter: %llu blocks, %llu lanes (%.1f%% filtered), "
                "%llu bulk retires\n",
                static_cast<unsigned long long>(
                    filter_stats.blocksScanned),
                static_cast<unsigned long long>(
                    filter_stats.lanesScanned),
                100.0 * lane_hit_density,
                static_cast<unsigned long long>(
                    filter_stats.bulkRetires));
    std::printf("  results bit-identical: %s\n",
                identical ? "yes" : "NO (BUG)");

    std::ofstream json(json_path);
    json << "{\n"
         << "  \"cells\": " << specs.size() << ",\n"
         << "  \"ops_per_cell\": " << opt.ops << ",\n"
         << "  \"total_accesses\": " << accesses << ",\n"
         << "  \"host\": ";
    ap::writeHostMetaJson(json, ap::currentHostMeta(jobs));
    json << ",\n"
         << "  \"serial\": {\"jobs\": 1, \"seconds\": " << serial_sec
         << ", \"accesses_per_sec\": " << serial_aps << "},\n"
         << "  \"parallel\": {\"jobs\": " << jobs
         << ", \"seconds\": " << cold.seconds
         << ", \"accesses_per_sec\": " << cold.accessesPerSec
         << ", \"skipped\": " << (parallel_skipped ? "true" : "false")
         << "},\n"
         << "  \"trace_cache\": {\n"
         << "    \"records\": " << cache_records << ",\n"
         << "    \"replays\": " << cache_replays << ",\n"
         << "    \"fresh\": {\"jobs\": " << jobs
         << ", \"seconds\": " << fresh.seconds
         << ", \"accesses_per_sec\": " << fresh.accessesPerSec << "},\n"
         << "    \"speedup_vs_cold\": " << cache_speedup << "\n"
         << "  },\n"
         << "  \"snapshot_cache\": {\n"
         << "    \"captures\": " << snap_captures << ",\n"
         << "    \"forks\": " << snap_forks << ",\n"
         << "    \"evictions\": " << snap_evictions << ",\n"
         << "    \"resident_bytes\": " << snap_resident << ",\n"
         << "    \"pool_budget_mb\": " << opt.snapshotPoolMb << ",\n"
         << "    \"capture\": {\"jobs\": " << jobs
         << ", \"seconds\": " << capture.seconds
         << ", \"accesses_per_sec\": " << capture.accessesPerSec
         << "},\n"
         << "    \"fork\": {\"jobs\": " << jobs
         << ", \"seconds\": " << snapfork.seconds
         << ", \"accesses_per_sec\": " << snapfork.accessesPerSec
         << "},\n"
         << "    \"speedup_vs_capture\": " << snapshot_speedup
         << "\n"
         << "  },\n"
         << "  \"machine_pool\": {\n"
         << "    \"creates\": " << pool_creates << ",\n"
         << "    \"reuses\": " << pool_reuses << ",\n"
         << "    \"pooled\": {\"jobs\": " << jobs
         << ", \"seconds\": " << pooled.seconds
         << ", \"accesses_per_sec\": " << pooled.accessesPerSec
         << "},\n"
         << "    \"fork_path_delta\": " << pool_speedup << "\n"
         << "  },\n"
         << "  \"filter\": {\n"
         << "    \"blocks_scanned\": " << filter_stats.blocksScanned
         << ",\n"
         << "    \"lanes_scanned\": " << filter_stats.lanesScanned
         << ",\n"
         << "    \"lanes_filtered\": " << filter_stats.lanesFiltered
         << ",\n"
         << "    \"hit_mask_density\": " << lane_hit_density << ",\n"
         << "    \"bulk_retires\": " << filter_stats.bulkRetires
         << "\n"
         << "  },\n"
         << "  \"engine_speedup_vs_cold\": " << engine_speedup << ",\n"
         << "  \"speedup\": " << parallel_speedup << ",\n"
         << "  \"deterministic\": " << (identical ? "true" : "false")
         << "\n}\n";
    std::printf("  wrote %s\n", json_path.c_str());

    if (!identical)
        return 1;
    if (require_cache_speedup && cache_speedup <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: snapshotted run from fresh caches (%.3f s) "
                     "is not faster than cold generation (%.3f s)\n",
                     fresh.seconds, cold.seconds);
        return 1;
    }
    if (require_snapshot_speedup && snapshot_speedup <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: snapshot-fork regeneration (%.3f s) is not "
                     "faster than snapshot-capture replay (%.3f s)\n",
                     snapfork.seconds, capture.seconds);
        return 1;
    }
    // 2.2x is a deliberately conservative CI floor (shared runners
    // are noisy); single-core measurements sit at 2.3-3.2x — see
    // EXPERIMENTS.md.
    if (require_engine_speedup && engine_speedup < 2.2) {
        std::fprintf(stderr,
                     "FAIL: cached-fork regeneration (%.3f s) is only "
                     "%.2fx faster than cold generation (%.3f s); "
                     "the engine gate requires >=2.2x\n",
                     snapfork.seconds, engine_speedup, cold.seconds);
        return 1;
    }
    return 0;
}
