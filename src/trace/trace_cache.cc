/**
 * @file
 * Trace cache implementation.
 */

#include "trace/trace_cache.hh"

#include <optional>

#include "base/logging.hh"
#include "trace/buffer_pool.hh"
#include "trace/record.hh"

namespace ap
{

TraceCache::TracePtr
TraceCache::obtain(const TraceCacheKey &key, const RecordFn &record)
{
    std::promise<TracePtr> promise;
    std::shared_future<TracePtr> fut;
    bool winner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            winner = true;
            fut = promise.get_future().share();
            map_.emplace(key, fut);
            ++records_;
        } else {
            fut = it->second;
            ++replays_;
        }
    }
    if (winner) {
        // Record outside the lock: recordings of distinct keys run
        // concurrently, and only same-key requesters wait.
        try {
            promise.set_value(record());
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return fut.get();
}

std::uint64_t
TraceCache::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

std::uint64_t
TraceCache::replays() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return replays_;
}

namespace
{

/**
 * The record step shared by every runner: return the compiled trace
 * of this cell's operation stream, recording it on a fresh machine if
 * this call is the first for its key. A recording run is a complete
 * measured run of this very cell, so the winner also gets its result
 * in @p recorded and needs no replay.
 * @param workload the caller's instance, or nullptr to build @p name
 *        from the workload registry
 */
TraceCache::TracePtr
obtainTrace(TraceCache &traces, const std::string &name,
            const WorkloadParams &params, const SimConfig &cfg,
            Workload *workload, std::optional<RunResult> &recorded)
{
    TraceCacheKey key;
    key.workload = name;
    key.pageSize = cfg.pageSize;
    key.operations = params.operations;
    key.seed = params.seed;
    key.footprintBytes = params.footprintBytes;
    key.warmupFraction = cfg.warmupFraction;
    return traces.obtain(key, [&] {
        std::unique_ptr<Workload> owned;
        if (!workload) {
            owned = makeWorkload(name, params);
            ap_assert(owned != nullptr, "unknown workload ", name);
            workload = owned.get();
        }
        Machine machine(cfg);
        RecordedRun rec = recordRun(machine, *workload);
        recorded = rec.result;
        rec.trace.workload = name;
        auto t = std::make_shared<const CompiledTrace>(
            compileTrace(rec.trace));
        recycleTrace(std::move(rec.trace));
        return t;
    });
}

/** Restore @p snap into @p machine, position the replay at the
 *  boundary and run the measured region. */
RunResult
runForked(Machine &machine, const MachineSnapshot &snap,
          const TraceCache::TracePtr &compiled, bool batched,
          const std::string &name)
{
    bool ok = restoreSnapshot(snap, machine);
    ap_assert(ok, "snapshot restore failed for ", name);
    BatchReplayWorkload replay(compiled, batched);
    replay.resumeAtBoundary(machine);
    return machine.runMeasured(replay);
}

/** The core of every snapshotted runner; see runWorkloadSnapshotted
 *  for @p workload. */
RunResult
runSnapshotted(TraceCache &traces, SnapshotCache &snaps,
               const std::string &name, const WorkloadParams &params,
               const SimConfig &cfg, Workload *workload, bool batched,
               MachinePool *pool)
{
    std::optional<RunResult> recorded;
    TraceCache::TracePtr compiled =
        obtainTrace(traces, name, params, cfg, workload, recorded);
    // The recording run already paid for warmup, so the snapshot
    // cache is left for the next cell of this config to seed.
    if (recorded)
        return *recorded;

    SnapshotKey skey;
    skey.workload = name;
    skey.operations = params.operations;
    skey.seed = params.seed;
    skey.footprintBytes = params.footprintBytes;
    skey.configDigest = simConfigDigest(cfg);

    // Kept outside the capture lambda: the capture winner finishes
    // its run on the machine it just warmed (the snapshot future is
    // fulfilled as soon as capture completes, so same-key waiters are
    // not held through this cell's measured region).
    std::unique_ptr<Machine> warm;
    std::unique_ptr<BatchReplayWorkload> warm_replay;
    SnapshotPtr snap = snaps.obtain(skey, [&] {
        warm = std::make_unique<Machine>(cfg);
        warm_replay =
            std::make_unique<BatchReplayWorkload>(compiled, batched);
        warm->runWarmup(*warm_replay);
        return captureSnapshot(*warm);
    });

    RunResult r;
    if (warm) {
        r = warm->runMeasured(*warm_replay);
    } else if (pool) {
        MachinePool::Lease lease = pool->acquire(cfg);
        r = runForked(*lease, *snap, compiled, batched, name);
    } else {
        Machine machine(cfg);
        r = runForked(machine, *snap, compiled, batched, name);
    }
    r.workload = compiled->workload;
    return r;
}

} // namespace

RunResult
runCellSnapshotted(TraceCache &traces, SnapshotCache &snaps,
                   const std::string &workload_name,
                   const WorkloadParams &params, const SimConfig &cfg,
                   bool batched, MachinePool *pool)
{
    return runSnapshotted(traces, snaps, workload_name, params, cfg,
                          nullptr, batched, pool);
}

RunResult
runWorkloadSnapshotted(TraceCache &traces, SnapshotCache &snaps,
                       const std::string &cache_name, Workload &workload,
                       const SimConfig &cfg, MachinePool *pool)
{
    return runSnapshotted(traces, snaps, cache_name, workload.params(),
                          cfg, &workload, true, pool);
}

RunResult
runExperimentSnapshotted(TraceCache &traces, SnapshotCache &snaps,
                         const ExperimentSpec &spec, MachinePool *pool)
{
    // The parameters and config runExperiment derives from the spec.
    WorkloadParams params = defaultParamsFor(spec.workload);
    if (spec.operations)
        params.operations = spec.operations;
    SimConfig cfg =
        configFor(spec.mode, spec.pageSize, params, spec.hwOpts);
    cfg.numVcpus = spec.numVcpus;
    cfg.tlbCoherence = spec.tlbCoherence;
    return runSnapshotted(traces, snaps, spec.workload, params, cfg,
                          nullptr, true, pool);
}

CellFn
snapshotCellFn(TraceCache &traces, SnapshotCache &snaps, MachinePool *pool)
{
    return [&traces, &snaps, pool](const ExperimentSpec &spec) {
        return runExperimentSnapshotted(traces, snaps, spec, pool);
    };
}

} // namespace ap
