/**
 * @file
 * Field-for-field RunResult comparison shared by the equivalence
 * tests (cached vs fresh, batched vs per-event, forked vs cold,
 * parallel vs serial), and the per-event replay of a cached trace
 * that several of them compare against.
 */

#ifndef AGILEPAGING_TESTS_RESULT_EQ_HH
#define AGILEPAGING_TESTS_RESULT_EQ_HH

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/machine.hh"
#include "trace/trace_cache.hh"

namespace ap
{

inline void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.pageSize, b.pageSize);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.idealCycles, b.idealCycles);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.trapCycles, b.trapCycles);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.guestPageFaults, b.guestPageFaults);
    EXPECT_DOUBLE_EQ(a.avgWalkRefs, b.avgWalkRefs);
    for (int c = 0; c < 6; ++c)
        EXPECT_DOUBLE_EQ(a.coverage[c], b.coverage[c]);
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        EXPECT_EQ(a.trapByKind[k], b.trapByKind[k]);
    EXPECT_EQ(a.numVcpus, b.numVcpus);
    EXPECT_EQ(a.coherenceCycles, b.coherenceCycles);
    EXPECT_EQ(a.shootdowns, b.shootdowns);
    EXPECT_EQ(a.remoteInvalidations, b.remoteInvalidations);
    for (std::size_t k = 0; k < kNumCoherenceCauses; ++k)
        EXPECT_EQ(a.shootdownsByCause[k], b.shootdownsByCause[k]);
    EXPECT_EQ(a.segmentHits, b.segmentHits);
    EXPECT_EQ(a.segmentSpills, b.segmentSpills);
    EXPECT_EQ(a.segmentInvalidations, b.segmentInvalidations);
}

/**
 * Replay the trace @p traces already holds for this cell event by
 * event on a fresh machine: the per-event reference for the shared
 * stream. Counts as one replay() of the cache.
 */
inline RunResult
replayCachedPerEvent(TraceCache &traces, const std::string &wl,
                     const WorkloadParams &params, const SimConfig &cfg)
{
    TraceCacheKey key;
    key.workload = wl;
    key.pageSize = cfg.pageSize;
    key.operations = params.operations;
    key.seed = params.seed;
    key.footprintBytes = params.footprintBytes;
    key.warmupFraction = cfg.warmupFraction;
    TraceCache::TracePtr compiled = traces.obtain(key, [] {
        ADD_FAILURE() << "trace not cached";
        return std::make_shared<const CompiledTrace>();
    });
    Machine m(cfg);
    BatchReplayWorkload replay(compiled, false);
    RunResult r = m.run(replay);
    r.workload = compiled->workload;
    return r;
}

} // namespace ap

#endif // AGILEPAGING_TESTS_RESULT_EQ_HH
