/**
 * @file
 * Batch-replay loop tests: the 64-lane block loop and its bulk
 * retire of same-page L0-filter hits must be invisible in the
 * results. Covers batched-vs-per-event equivalence with multiple
 * vCPUs (where batches are split at quantum boundaries), and a
 * synthetic single-page trace whose hot run retires entirely through
 * the bulk path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "trace/compiled_trace.hh"
#include "trace/trace.hh"
#include "trace/trace_cache.hh"
#include "workloads/workload.hh"
#include "result_eq.hh"

namespace
{

using namespace ap;

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = 20'000;
    p.seed = 11;
    return p;
}

/**
 * Multi-vCPU batched replay: with numVcpus > 1 the batch loop splits
 * runs at vcpu-quantum boundaries instead of bailing to per-event
 * replay. A fresh generated run, the batched replay, and the
 * per-event replay must stay field-for-field identical at 2 and 4
 * vCPUs.
 */
TEST(BatchVector, MultiVcpuBatchedMatchesPerEvent)
{
    const WorkloadParams params = smallParams();
    for (const char *wl : {"graph500", "memcached"}) {
        for (unsigned vcpus : {2u, 4u}) {
            for (VirtMode mode : {VirtMode::Nested, VirtMode::Agile}) {
                SCOPED_TRACE(std::string(wl) + " vcpus " +
                             std::to_string(vcpus) + " mode " +
                             std::to_string(int(mode)));
                SimConfig cfg =
                    configFor(mode, PageSize::Size4K, params);
                cfg.numVcpus = vcpus;

                RunResult fresh;
                {
                    Machine m(cfg);
                    auto w = makeWorkload(wl, params);
                    ASSERT_NE(w, nullptr);
                    fresh = m.run(*w);
                }
                TraceCache cache;
                RunResult batched =
                    runCellCached(cache, wl, params, cfg, true);
                RunResult unbatched =
                    runCellCached(cache, wl, params, cfg, false);
                expectSameResult(fresh, batched);
                expectSameResult(fresh, unbatched);
            }
        }
    }
}

namespace
{

/**
 * A synthetic trace whose second access run stays inside one 4K page
 * per stream: one mapping, a priming run (fills the per-stream L0
 * slots), a zero-cost compute event to split runs, then a run that
 * re-touches the same data page and the same fetch page only.
 */
Trace
singlePageTrace()
{
    constexpr Addr kBase = 0x100000;
    Trace t;
    t.workload = "unit_single_page";
    t.seed = 1;
    t.warmupEvents = 0;

    TraceEvent mmap;
    mmap.kind = TraceEvent::Kind::MmapAt;
    mmap.addr = kBase;
    mmap.arg = 1u << 16;
    mmap.flag = true;
    t.events.push_back(mmap);

    auto pushAccess = [&t](Addr va, bool fetch) {
        TraceEvent e;
        e.kind = fetch ? TraceEvent::Kind::InstrFetch
                       : TraceEvent::Kind::Access;
        e.addr = va;
        e.flag = false;
        t.events.push_back(e);
    };
    // Priming run: interleaved fetch + data in two distinct pages.
    for (int i = 0; i < 128; ++i) {
        pushAccess(kBase + 0x1000 + (i % 64) * 8, true);
        pushAccess(kBase + (i % 64) * 8, false);
    }
    // Zero-instruction compute: splits the run without charging
    // cycles or advancing the flush generation.
    TraceEvent split;
    split.kind = TraceEvent::Kind::Compute;
    split.arg = 0;
    t.events.push_back(split);
    // Hot run: same two pages, read-only.
    for (int i = 0; i < 256; ++i) {
        pushAccess(kBase + 0x1000 + (i % 64) * 8, true);
        pushAccess(kBase + (i % 64) * 8, false);
    }
    return t;
}

} // namespace

/**
 * The bulk retire must actually cover a run that provably re-hits
 * both per-stream L0 translations — and covering it must not change
 * the results versus the per-event replay of the same trace.
 */
TEST(BatchVector, BulkRetireCoversSinglePageRun)
{
    auto compiled = std::make_shared<const CompiledTrace>(
        compileTrace(singlePageTrace()));
    SimConfig cfg =
        configFor(VirtMode::Nested, PageSize::Size4K, smallParams());

    Machine::resetBatchFilterStats();
    RunResult batched;
    {
        Machine m(cfg);
        BatchReplayWorkload w(compiled, true);
        batched = m.run(w);
    }
    Machine::BatchFilterStats stats = Machine::batchFilterStats();
    EXPECT_GE(stats.lanesFiltered, 512u);
    EXPECT_GE(stats.bulkRetires, 1u);

    RunResult per_event;
    {
        Machine m(cfg);
        BatchReplayWorkload w(compiled, false);
        per_event = m.run(w);
    }
    expectSameResult(batched, per_event);
}

} // namespace
