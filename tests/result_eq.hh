/**
 * @file
 * Field-for-field RunResult comparison shared by the equivalence
 * tests (cached vs fresh, batched vs per-event, forked vs cold,
 * parallel vs serial).
 */

#ifndef AGILEPAGING_TESTS_RESULT_EQ_HH
#define AGILEPAGING_TESTS_RESULT_EQ_HH

#include <gtest/gtest.h>

#include "sim/machine.hh"

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

} // namespace ap

#endif // AGILEPAGING_TESTS_RESULT_EQ_HH
