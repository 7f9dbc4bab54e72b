/**
 * @file
 * Record-once/replay-many trace cache for the evaluation matrix.
 *
 * Cells of the matrix that differ only in MMU mode issue byte-
 * identical operation streams: the stream is a pure function of
 * (workload, page size, operations, seed, footprint, warmup
 * fraction). The TraceCache memoizes each unique stream — the first
 * cell to ask records it through TraceRecorder and keeps its own
 * RunResult; every later cell replays the shared compiled trace
 * through the batched fast path. First-wins memoization is
 * thread-safe under the parallel_runner pool: losers of the insert
 * race block on a shared_future until the winner's recording lands.
 * That blocking is the exception: runExperiments claims cells
 * family-stride (one cell per stream per round), so a stream's later
 * cells are usually claimed after its recording has finished.
 */

#ifndef AGILEPAGING_TRACE_TRACE_CACHE_HH
#define AGILEPAGING_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/experiment.hh"
#include "sim/machine_pool.hh"
#include "sim/snapshot.hh"
#include "trace/compiled_trace.hh"

namespace ap
{

/** Everything the operation stream depends on. Mode is absent by
 *  design — that is the whole point of sharing. */
struct TraceCacheKey
{
    std::string workload;
    PageSize pageSize = PageSize::Size4K;
    std::uint64_t operations = 0;
    std::uint64_t seed = 0;
    std::uint64_t footprintBytes = 0;
    double warmupFraction = 0.0;

    bool
    operator==(const TraceCacheKey &o) const
    {
        return workload == o.workload && pageSize == o.pageSize &&
               operations == o.operations && seed == o.seed &&
               footprintBytes == o.footprintBytes &&
               warmupFraction == o.warmupFraction;
    }
};

struct TraceCacheKeyHash
{
    std::size_t
    operator()(const TraceCacheKey &k) const
    {
        std::size_t h = std::hash<std::string>{}(k.workload);
        auto mix = [&h](std::uint64_t v) {
            h ^= std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ull +
                 (h << 6) + (h >> 2);
        };
        mix(static_cast<std::uint64_t>(k.pageSize));
        mix(k.operations);
        mix(k.seed);
        mix(k.footprintBytes);
        mix(std::hash<double>{}(k.warmupFraction));
        return h;
    }
};

/**
 * Thread-safe first-wins memo of compiled traces. One instance per
 * matrix run; drop it to release the traces.
 */
class TraceCache
{
  public:
    using TracePtr = std::shared_ptr<const CompiledTrace>;
    using RecordFn = std::function<TracePtr()>;

    /**
     * Return the compiled trace for @p key, invoking @p record to
     * produce it if this is the first request. Concurrent requests
     * for the same key run @p record exactly once; the others block
     * until it completes. An exception from @p record propagates to
     * every blocked requester (and the caller).
     */
    TracePtr obtain(const TraceCacheKey &key, const RecordFn &record);

    /** Cells that recorded (cache misses). */
    std::uint64_t records() const;
    /** Cells that reused a recorded trace (cache hits). */
    std::uint64_t replays() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<TraceCacheKey, std::shared_future<TracePtr>,
                       TraceCacheKeyHash>
        map_;
    std::uint64_t records_ = 0;
    std::uint64_t replays_ = 0;
};

/**
 * Run one cell through both caches: the trace cache dedupes the
 * operation stream across cells (the first cell per key records it
 * and returns its own fresh-run result), and the snapshot cache
 * dedupes the *warm machine state* across cells whose full config
 * matches. The first replaying cell per snapshot key replays warmup
 * once and freezes the machine at the measurement boundary; every
 * later identical cell forks a fresh Machine from the frozen image
 * and runs only the measured region. Results are bit-identical to
 * runExperiment for every cell.
 * @param batched false = per-event replay (the reference the batched
 *        fast path is checked against)
 * @param pool optional machine-storage pool: forked cells lease a
 *        parked same-digest Machine (arena slabs and frame vectors
 *        warm) instead of constructing one, and park it back after the
 *        measured region. Results are bit-identical either way.
 */
RunResult runCellSnapshotted(TraceCache &traces, SnapshotCache &snaps,
                             const std::string &workload_name,
                             const WorkloadParams &params,
                             const SimConfig &cfg, bool batched = true,
                             MachinePool *pool = nullptr);

/** runExperiment, but through both caches. */
RunResult runExperimentSnapshotted(TraceCache &traces,
                                   SnapshotCache &snaps,
                                   const ExperimentSpec &spec,
                                   MachinePool *pool = nullptr);

/**
 * runCellSnapshotted for a caller-supplied workload instance (one the
 * registry cannot build — e.g. a bench-local synthetic workload).
 * @p cache_name keys the caches and must uniquely identify the
 * workload's behavior beyond its params (encode any extra knobs in
 * it). Only the first caller per trace key steps @p workload; later
 * calls replay the recorded stream and ignore it. The recording call
 * reports the workload's own name(), replays report @p cache_name.
 */
RunResult runWorkloadSnapshotted(TraceCache &traces,
                                 SnapshotCache &snaps,
                                 const std::string &cache_name,
                                 Workload &workload,
                                 const SimConfig &cfg,
                                 MachinePool *pool = nullptr);

/**
 * A CellFn routing every cell through both caches. Both caches (and
 * the pool, if given) must outlive the returned function.
 */
CellFn snapshotCellFn(TraceCache &traces, SnapshotCache &snaps,
                      MachinePool *pool = nullptr);

} // namespace ap

#endif // AGILEPAGING_TRACE_TRACE_CACHE_HH
