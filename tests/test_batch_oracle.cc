/**
 * @file
 * Randomized differential test of the batch-replay loop: every
 * randomized oracle trace, compiled and replayed through
 * Machine::runAccessBatch, must reproduce the per-event replay of the
 * same trace field for field — in every translation mode, at both
 * page sizes, at 1/2/4 vCPUs and under both coherence models.
 *
 * The oracle's traces pick a fresh random page for nearly every
 * access, so on their own they would almost never reach the L0
 * filter's bulk retire. Each trace is therefore thickened with short
 * same-page bursts behind its accesses: the bursts exercise hit runs,
 * writes landing on clean entries, runs cut by policy intervals and
 * vCPU quanta, while the original accesses keep the misses and the
 * control events keep the flushes.
 *
 * The fork path runs the same loop from a restored machine: each cell
 * is also split at its midpoint, warmed batched, captured at the
 * boundary, and its measured half replayed batched in a fresh machine
 * and in a pooled machine that last ran another cell. Each must
 * match the per-event run of the same split trace.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "base/rng.hh"
#include "sim/machine.hh"
#include "sim/machine_pool.hh"
#include "sim/oracle.hh"
#include "sim/snapshot.hh"
#include "trace/compiled_trace.hh"
#include "result_eq.hh"

namespace
{

using namespace ap;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};

/**
 * @p trace with 0..15 extra accesses of the same kind appended after
 * each access or fetch, each inside the same 4K page (so every one is
 * mapped whenever the original is). About a third of the extra data
 * accesses of a writable original are writes.
 */
Trace
withSamePageBursts(const Trace &trace)
{
    Rng rng(trace.seed * 0x2545f4914f6cdd1dULL + 17);
    Trace out = trace;
    out.events.clear();
    for (const TraceEvent &e : trace.events) {
        out.events.push_back(e);
        if (e.kind != TraceEvent::Kind::Access &&
            e.kind != TraceEvent::Kind::InstrFetch)
            continue;
        const Addr page = e.addr & ~(kPageBytes - 1);
        for (std::uint64_t k = rng.nextBelow(16); k > 0; --k) {
            TraceEvent b = e;
            b.addr = page + rng.nextBelow(kPageBytes);
            b.flag = e.kind == TraceEvent::Kind::Access && e.flag &&
                     rng.chance(0.33);
            out.events.push_back(b);
        }
    }
    return out;
}

RunResult
replay(const std::shared_ptr<const CompiledTrace> &compiled,
       const SimConfig &cfg, bool batched)
{
    Machine m(cfg);
    BatchReplayWorkload w(compiled, batched);
    return m.run(w);
}

/** Restore @p snap into @p m and replay the measured region batched. */
RunResult
forkBatched(const std::shared_ptr<const CompiledTrace> &compiled,
            const MachineSnapshot &snap, Machine &m)
{
    EXPECT_TRUE(restoreSnapshot(snap, m));
    BatchReplayWorkload w(compiled, true);
    w.resumeAtBoundary(m);
    return m.runMeasured(w);
}

/** (page size, vCPUs) */
class BatchOracle
    : public ::testing::TestWithParam<std::tuple<PageSize, unsigned>>
{
};

TEST_P(BatchOracle, BatchedMatchesPerEvent)
{
    const auto [ps, vcpus] = GetParam();
    Machine::resetBatchFilterStats();
    for (std::uint64_t seed : kSeeds) {
        OracleOptions opts;
        opts.seed = seed;
        opts.pageSize = ps;
        opts.numVcpus = vcpus;
        auto compiled = std::make_shared<const CompiledTrace>(
            compileTrace(withSamePageBursts(makeRandomTrace(opts))));
        for (TlbCoherence coh :
             {TlbCoherence::Software, TlbCoherence::Hardware}) {
            if (vcpus == 1 && coh == TlbCoherence::Hardware)
                continue;
            opts.tlbCoherence = coh;
            for (VirtMode mode :
                 {VirtMode::Native, VirtMode::Nested, VirtMode::Shadow,
                  VirtMode::Agile, VirtMode::Range}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                             virtModeName(mode) + " coherence " +
                             std::to_string(int(coh)));
                const SimConfig cfg = oracleConfig(mode, opts);
                expectSameResult(replay(compiled, cfg, true),
                                 replay(compiled, cfg, false));
            }
        }
    }
    // The bursts must actually reach the bulk retire.
    const Machine::BatchFilterStats stats = Machine::batchFilterStats();
    EXPECT_GT(stats.bulkRetires, 0u);
    EXPECT_GT(stats.lanesFiltered, 0u);
}

TEST_P(BatchOracle, ForkedBatchMatchesPerEvent)
{
    const auto [ps, vcpus] = GetParam();
    // Shared by every cell: leases are per config, so each seed after
    // the first restores into the machine the previous seed ran.
    MachinePool pool;
    std::uint64_t configs = 0;
    for (std::uint64_t seed : kSeeds) {
        OracleOptions opts;
        opts.seed = seed;
        opts.pageSize = ps;
        opts.numVcpus = vcpus;
        Trace trace = withSamePageBursts(makeRandomTrace(opts));
        trace.warmupEvents = trace.events.size() / 2;
        auto compiled =
            std::make_shared<const CompiledTrace>(compileTrace(trace));
        configs = 0;
        for (TlbCoherence coh :
             {TlbCoherence::Software, TlbCoherence::Hardware}) {
            if (vcpus == 1 && coh == TlbCoherence::Hardware)
                continue;
            opts.tlbCoherence = coh;
            for (VirtMode mode :
                 {VirtMode::Native, VirtMode::Nested, VirtMode::Shadow,
                  VirtMode::Agile, VirtMode::Range}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                             virtModeName(mode) + " coherence " +
                             std::to_string(int(coh)));
                ++configs;
                const SimConfig cfg = oracleConfig(mode, opts);
                const RunResult per_event = replay(compiled, cfg, false);

                Machine warm(cfg);
                BatchReplayWorkload warm_replay(compiled, true);
                warm.runWarmup(warm_replay);
                const SnapshotPtr snap = captureSnapshot(warm);
                expectSameResult(warm.runMeasured(warm_replay), per_event);

                Machine fresh(cfg);
                expectSameResult(forkBatched(compiled, *snap, fresh),
                                 per_event);

                MachinePool::Lease lease = pool.acquire(cfg);
                expectSameResult(forkBatched(compiled, *snap, *lease),
                                 per_event);
            }
        }
    }
    EXPECT_EQ(pool.reuses(), (std::size(kSeeds) - 1) * configs);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchOracle,
    ::testing::Combine(::testing::Values(PageSize::Size4K,
                                         PageSize::Size2M),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == PageSize::Size4K
                               ? "4K"
                               : "2M") +
               "_" + std::to_string(std::get<1>(info.param)) + "vcpu";
    });

} // namespace
