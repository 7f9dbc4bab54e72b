/**
 * @file
 * Unit tests for the TLB substrate: AssocCache, Tlb, TlbHierarchy,
 * PageWalkCache, NestedTlb, SptrCache.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "base/serialize.hh"
#include "tlb/assoc_cache.hh"
#include "tlb/nested_tlb.hh"
#include "tlb/pwc.hh"
#include "tlb/tlb.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vmm/sptr_cache.hh"

namespace ap
{
namespace
{

TEST(AssocCache, InsertLookup)
{
    AssocCache<int> c(16, 4);
    c.insert(1, 10);
    c.insert(2, 20);
    ASSERT_NE(c.lookup(1), nullptr);
    EXPECT_EQ(*c.lookup(1), 10);
    EXPECT_EQ(*c.lookup(2), 20);
    EXPECT_EQ(c.lookup(3), nullptr);
}

TEST(AssocCache, OverwriteSameKey)
{
    AssocCache<int> c(16, 4);
    c.insert(5, 1);
    c.insert(5, 2);
    EXPECT_EQ(*c.lookup(5), 2);
    EXPECT_EQ(c.size(), 1u);
}

TEST(AssocCache, LruEvictionWithinSet)
{
    // 4 sets x 2 ways; keys 0,4,8 map to set 0.
    AssocCache<int> c(8, 2);
    c.insert(0, 0);
    c.insert(4, 4);
    EXPECT_TRUE(c.lookup(0)); // 0 is now MRU
    bool evicted = c.insert(8, 8);
    EXPECT_TRUE(evicted);
    EXPECT_NE(c.lookup(0), nullptr);  // survived (was MRU)
    EXPECT_EQ(c.lookup(4), nullptr);  // LRU victim
    EXPECT_NE(c.lookup(8), nullptr);
}

TEST(AssocCache, FullyAssociative)
{
    AssocCache<int> c(4, 4);
    for (int i = 0; i < 4; ++i)
        c.insert(i * 100, i);
    EXPECT_EQ(c.size(), 4u);
    c.insert(999, 9); // evicts LRU (key 0)
    EXPECT_EQ(c.lookup(0), nullptr);
    EXPECT_NE(c.lookup(999), nullptr);
}

TEST(AssocCache, EraseAndEraseIf)
{
    AssocCache<int> c(16, 4);
    for (int i = 0; i < 10; ++i)
        c.insert(i, i);
    EXPECT_TRUE(c.erase(3));
    EXPECT_FALSE(c.erase(3));
    c.eraseIf([](std::uint64_t k, const int &) { return k % 2 == 0; });
    EXPECT_EQ(c.lookup(4), nullptr);
    EXPECT_NE(c.lookup(5), nullptr);
}

TEST(AssocCache, PeekDoesNotRefreshLru)
{
    AssocCache<int> c(2, 2);
    c.insert(1, 1);
    c.insert(2, 2);
    c.peek(1);        // does not make 1 MRU
    c.insert(3, 3);   // evicts true LRU = 1
    EXPECT_EQ(c.lookup(1), nullptr);
}

TEST(Tlb, HitMissStats)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(0x1000, 1).has_value());
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 42, .writable = true, .asid = 1});
    auto e = tlb.lookup(0x1fff, 1); // same page
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->pfn, 42u);
    EXPECT_TRUE(e->writable);
    EXPECT_EQ(tlb.hits.value(), 1.0);
    EXPECT_EQ(tlb.misses.value(), 1.0);
}

TEST(Tlb, AsidIsolation)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 42, .writable = true, .asid = 1});
    EXPECT_FALSE(tlb.lookup(0x1000, 2).has_value());
    EXPECT_TRUE(tlb.lookup(0x1000, 1).has_value());
}

TEST(Tlb, FlushAsidOnlyRemovesThatAsid)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    tlb.insert(0x1000, 2, TlbEntry{.pfn = 2, .writable = true, .asid = 2});
    tlb.flushAsid(1);
    EXPECT_FALSE(tlb.contains(0x1000, 1));
    EXPECT_TRUE(tlb.contains(0x1000, 2));
}

TEST(Tlb, FlushRange)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    tlb.insert(0x5000, 1, TlbEntry{.pfn = 5, .writable = true, .asid = 1});
    tlb.flushRange(0x4000, 0x2000, 1);
    EXPECT_TRUE(tlb.contains(0x1000, 1));
    EXPECT_FALSE(tlb.contains(0x5000, 1));
}

TEST(Tlb, LargePageGranularity)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 32, 4, PageSize::Size2M);
    tlb.insert(kLargePageBytes * 3, 1, TlbEntry{.pfn = 512 * 3, .writable = true, .asid = 1});
    // Any address inside the 2M region hits.
    EXPECT_TRUE(
        tlb.lookup(kLargePageBytes * 3 + 0x123456, 1).has_value());
    EXPECT_FALSE(
        tlb.lookup(kLargePageBytes * 4, 1).has_value());
}

// Range invalidation erases key by key when the range has fewer
// indices than the structure has sets and scans every line otherwise;
// either way it must erase exactly the in-range entries of one ASID.

/** Reference: erase @p tag's keys in [lo, hi] by scanning every line. */
void
scanEraseRange(AssocCache<int> &c, std::uint64_t tag, std::uint64_t lo,
               std::uint64_t hi)
{
    c.eraseIf([=](std::uint64_t k, const int &) {
        const std::uint64_t i = k & kKeyIndexMask;
        return (k >> kKeyTagShift) == tag && i >= lo && i <= hi;
    });
}

std::vector<std::uint8_t>
cacheBytes(const AssocCache<int> &c)
{
    Serializer s;
    c.saveState(s);
    return s.data();
}

TEST(TlbFlushRange, PerKeyEraseMatchesScanByteForByte)
{
    Rng rng(7);
    const std::uint64_t sets = 128;
    AssocCache<int> filled(sets * 4, 4);
    for (int n = 0; n < 2000; ++n) {
        const std::uint64_t tag = rng.nextRange(1, 3);
        filled.insert((tag << kKeyTagShift) | rng.nextBelow(4 * sets), n);
    }
    // Dead lines among live ones, so erase order cannot hide.
    for (int n = 0; n < 100; ++n)
        filled.erase((std::uint64_t{1} << kKeyTagShift) |
                     rng.nextBelow(sets));

    struct Case
    {
        std::uint64_t tag, lo, hi;
    };
    std::vector<Case> cases = {
        {1, 0, 0},
        {1, 0, sets - 2}, // sets - 1 indices: per key
        {1, 0, sets - 1}, // exactly sets indices: scan
        {1, 0, sets},     // sets + 1 indices: scan
        {2, 5, 5 + sets - 2},
        {2, 5, 5 + sets},
        {3, 0, kKeyIndexMask}, // every index of one tag
        {3, kKeyIndexMask - 3, kKeyIndexMask + 10},
        {1, kKeyIndexMask + 1, kKeyIndexMask + 5},
        {(std::uint64_t{1} << 24) | 1, 0, 10}, // tag wider than 24 bits
        {2, 10, 3},                            // empty
    };
    for (int n = 0; n < 300; ++n) {
        const std::uint64_t lo = rng.nextBelow(4 * sets);
        cases.push_back(
            {rng.nextRange(1, 3), lo, lo + rng.nextBelow(2 * sets)});
    }
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << "tag " << c.tag << " ["
                                        << c.lo << ", " << c.hi << "]");
        AssocCache<int> targeted = filled;
        AssocCache<int> scanned = filled;
        targeted.eraseTaggedRange(c.tag, c.lo, c.hi);
        scanEraseRange(scanned, c.tag, c.lo, c.hi);
        EXPECT_EQ(cacheBytes(targeted), cacheBytes(scanned));
    }
}

/** Table III TLBs for each granule plus the PWC, filled at random
 *  around one window of the address space. */
struct FlushRig
{
    /** (structure, page number or PWC prefix, asid, payload). */
    using Entry = std::tuple<unsigned, std::uint64_t, ProcId, FrameId>;

    stats::StatGroup g{"g"};
    Tlb l2u4k{"l2u4k", &g, 512, 4, PageSize::Size4K};
    Tlb l1d4k{"l1d4k", &g, 64, 4, PageSize::Size4K};
    Tlb l1d2m{"l1d2m", &g, 32, 4, PageSize::Size2M};
    Tlb l1d1g{"l1d1g", &g, 4, 4, PageSize::Size1G};
    PageWalkCache pwc{&g, 32, 4, true};

    std::vector<Tlb *>
    tlbs()
    {
        return {&l2u4k, &l1d4k, &l1d2m, &l1d1g};
    }

    static unsigned
    pwcShift(unsigned depth)
    {
        return kPageShift + (kPtLevels - depth) * kLevelBits;
    }

    void
    fill(Rng &rng, Addr window)
    {
        static const std::uint64_t kSets[] = {128, 16, 8, 1};
        FrameId payload = 1;
        unsigned s = 0;
        for (Tlb *t : tlbs()) {
            const Addr g = pageBytes(t->pageSize());
            const std::uint64_t span = 4 * (kSets[s++] + 1);
            for (int n = 0; n < 1500; ++n) {
                const Addr va = window + rng.nextBelow(span) * g +
                                rng.nextBelow(g);
                const ProcId asid = ProcId(rng.nextRange(1, 3));
                t->insert(va, asid, TlbEntry{.pfn = payload++, .asid = asid});
            }
        }
        for (int n = 0; n < 300; ++n) {
            const unsigned depth = unsigned(rng.nextRange(1, 3));
            const Addr g = Addr{1} << pwcShift(depth);
            const Addr va = window + rng.nextBelow(40) * g + rng.nextBelow(g);
            pwc.fill(va, ProcId(rng.nextRange(1, 3)), depth, payload++,
                     rng.chance(0.5));
        }
    }

    std::set<Entry>
    entries()
    {
        std::set<Entry> out;
        unsigned s = 0;
        for (Tlb *t : tlbs()) {
            const unsigned shift = pageShift(t->pageSize());
            t->forEach([&](Addr va, ProcId asid, const TlbEntry &e) {
                out.emplace(s, va >> shift, asid, e.pfn);
            });
            ++s;
        }
        pwc.forEach([&](unsigned depth, std::uint64_t prefix, ProcId asid,
                        const PwcEntry &e) {
            out.emplace(10 + depth, prefix, asid, e.frame);
        });
        return out;
    }

    /** Whether @p e lies in [base, base+len) of @p asid (len > 0). */
    static bool
    covered(const Entry &e, Addr base, Addr len, ProcId asid)
    {
        const unsigned s = std::get<0>(e);
        static const unsigned kTlbShift[] = {
            pageShift(PageSize::Size4K), pageShift(PageSize::Size4K),
            pageShift(PageSize::Size2M), pageShift(PageSize::Size1G)};
        const unsigned shift = s < 10 ? kTlbShift[s] : pwcShift(s - 10);
        const std::uint64_t i = std::get<1>(e);
        return std::get<2>(e) == asid && i >= (base >> shift) &&
               i <= ((base + len - 1) >> shift);
    }

    void
    flushRange(Addr base, Addr len, ProcId asid)
    {
        for (Tlb *t : tlbs())
            t->flushRange(base, len, asid);
        pwc.flushRange(base, len, asid);
    }
};

TEST(TlbFlushRange, RandomRangesDropExactlyInRangeEntries)
{
    // (granule, set count) pairs the ranges are sized against: each
    // TLB and each PWC table of the rig.
    const std::vector<std::pair<Addr, std::uint64_t>> targets = {
        {kPageBytes, 128},       {kPageBytes, 16},
        {kLargePageBytes, 8},    {kHugePageBytes, 1},
        {Addr{1} << 30, 8},      {Addr{1} << 39, 8},
    };
    Rng rng(20160618);
    unsigned mixed = 0; // flushes that erased some entries and kept some
    const unsigned kTrials = 240;
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        FlushRig rig;
        const Addr window =
            trial % 4 == 0 ? 0 : rng.nextBelow(Addr{1} << 17) << 30;
        rig.fill(rng, window);
        for (unsigned f = 0; f < 3; ++f) {
            const auto [g, sets] = targets[(trial + f) % targets.size()];
            Addr len = 0;
            switch ((trial / targets.size() + f) % 6) {
              case 0: len = (sets > 1 ? sets - 1 : 1) * g; break;
              case 1: len = sets * g; break;
              case 2: len = (sets + 1) * g; break;
              case 3: len = rng.nextRange(1, 3 * sets * g); break;
              case 4: len = 1; break;
              default:
                len = rng.nextRange(1, 4 * sets) * kPageBytes +
                      rng.nextRange(1, kPageBytes - 1);
                break;
            }
            Addr base = 0;
            if (rng.nextBelow(4) != 0) {
                base = window + rng.nextBelow(2 * (sets + 1) * g);
                if (rng.chance(0.5))
                    base &= ~(g - 1);
            }
            const ProcId asid = ProcId(rng.nextRange(1, 3));
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << " flush " << f << " base 0x"
                         << std::hex << base << " len 0x" << len);

            const std::set<FlushRig::Entry> before = rig.entries();
            std::set<FlushRig::Entry> expected;
            for (const FlushRig::Entry &e : before) {
                if (!FlushRig::covered(e, base, len, asid))
                    expected.insert(e);
            }
            rig.flushRange(base, len, asid);
            ASSERT_EQ(rig.entries(), expected);
            mixed += !expected.empty() && expected.size() < before.size();
        }
    }
    EXPECT_GT(mixed, kTrials);

    // Whole address space: every entry of the ASID goes, others stay.
    for (Addr len : {Addr{1} << 48, ~Addr{0}}) {
        FlushRig rig;
        rig.fill(rng, Addr{1} << 40);
        std::set<FlushRig::Entry> expected;
        for (const FlushRig::Entry &e : rig.entries()) {
            if (std::get<2>(e) != 2)
                expected.insert(e);
        }
        rig.flushRange(0, len, 2);
        EXPECT_EQ(rig.entries(), expected);
    }
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : h(&g, TlbHierarchyConfig{}) {}
    stats::StatGroup g{"g"};
    TlbHierarchy h;
};

TEST_F(HierarchyTest, MissThenFillThenL1Hit)
{
    auto r = h.probe(0x1000, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::Miss);
    h.fill(0x1000, 1, false, PageSize::Size4K, TlbEntry{.pfn = 7, .writable = true, .asid = 1});
    r = h.probe(0x1000, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::L1);
    EXPECT_EQ(r.entry.pfn, 7u);
}

TEST_F(HierarchyTest, L2HitRefillsL1)
{
    h.fill(0x1000, 1, false, PageSize::Size4K, TlbEntry{.pfn = 7, .writable = true, .asid = 1});
    // Evict from the 64-entry 4-way L1 by filling 64+ conflicting pages;
    // the 512-entry L2 retains the line.
    for (Addr va = 0x100000; va < 0x100000 + 70 * kPageBytes;
         va += kPageBytes) {
        h.fill(va, 1, false, PageSize::Size4K, TlbEntry{.pfn = 9, .writable = true, .asid = 1});
    }
    // Depending on set mapping 0x1000 may or may not be evicted from
    // L1; force worst case by conflicting in its set: just check that
    // probing still succeeds somewhere in the hierarchy.
    auto r = h.probe(0x1000, 1, false);
    EXPECT_NE(r.level, TlbHitLevel::Miss);
}

TEST_F(HierarchyTest, InstructionAndDataSeparate)
{
    h.fill(0x2000, 1, true, PageSize::Size4K, TlbEntry{.pfn = 3, .writable = false, .asid = 1});
    // Data probe: the L1D misses but the unified L2 holds it.
    auto r = h.probe(0x2000, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::L2);
}

TEST_F(HierarchyTest, LargePagesSkipL2)
{
    h.fill(0x0, 1, false, PageSize::Size2M, TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    auto r = h.probe(0x1234, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::L1);
    EXPECT_EQ(r.size, PageSize::Size2M);
    // Flush L1 2M entries; there is no L2 backing for 2M (Table III).
    h.l1d2m.flushAll();
    r = h.probe(0x1234, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::Miss);
}

TEST_F(HierarchyTest, FlushPageRemovesEverywhere)
{
    h.fill(0x3000, 1, false, PageSize::Size4K, TlbEntry{.pfn = 3, .writable = true, .asid = 1});
    h.flushPage(0x3000, 1);
    EXPECT_EQ(h.probe(0x3000, 1, false).level, TlbHitLevel::Miss);
}

TEST(Pwc, MissWhenDisabled)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, false);
    pwc.fill(0x1000, 1, 3, 99, false);
    EXPECT_EQ(pwc.probe(0x1000, 1).startDepth, 0u);
}

TEST(Pwc, DeepestSkipWins)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    Addr va = 0x7f1234567000;
    pwc.fill(va, 1, 1, 11, false);
    pwc.fill(va, 1, 2, 22, false);
    pwc.fill(va, 1, 3, 33, true);
    PwcHit hit = pwc.probe(va, 1);
    EXPECT_EQ(hit.startDepth, 3u);
    EXPECT_EQ(hit.entry.frame, 33u);
    EXPECT_TRUE(hit.entry.nested);
}

TEST(Pwc, PrefixSharing)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    Addr va1 = 0x40000000;             // depth-1 prefix = 0
    Addr va2 = va1 + 5 * kPageBytes;   // same upper levels
    pwc.fill(va1, 1, 3, 77, false);
    // va2 shares all three upper levels with va1 (same 2M region).
    EXPECT_EQ(pwc.probe(va2, 1).startDepth, 3u);
    // An address in a different 2M region only shares depths 1-2.
    Addr va3 = va1 + kLargePageBytes;
    EXPECT_EQ(pwc.probe(va3, 1).startDepth, 0u);
}

TEST(Pwc, FlushRangeDropsCoveredPrefixes)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    Addr va = 0x40000000;
    pwc.fill(va, 1, 3, 1, false);
    pwc.flushRange(va, kLargePageBytes, 1);
    EXPECT_EQ(pwc.probe(va, 1).startDepth, 0u);
}

TEST(Pwc, AsidFlush)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    pwc.fill(0x1000, 1, 2, 5, false);
    pwc.fill(0x1000, 2, 2, 6, false);
    pwc.flushAsid(1);
    EXPECT_EQ(pwc.probe(0x1000, 1).startDepth, 0u);
    EXPECT_EQ(pwc.probe(0x1000, 2).startDepth, 2u);
}

TEST(NestedTlbTest, HitAfterInsert)
{
    stats::StatGroup g("g");
    NestedTlb n(&g, 64, 4, true);
    EXPECT_FALSE(n.lookup(100).has_value());
    n.insert(100, NtlbEntry{200, PageSize::Size2M, true});
    auto e = n.lookup(100);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->hframe, 200u);
    EXPECT_EQ(e->hostSize, PageSize::Size2M);
    EXPECT_EQ(n.hits.value(), 1.0);
}

TEST(NestedTlbTest, DisabledNeverHits)
{
    stats::StatGroup g("g");
    NestedTlb n(&g, 64, 4, false);
    n.insert(100, NtlbEntry{200, PageSize::Size4K, true});
    EXPECT_FALSE(n.lookup(100).has_value());
}

TEST(NestedTlbTest, FlushFrame)
{
    stats::StatGroup g("g");
    NestedTlb n(&g, 64, 4, true);
    n.insert(100, NtlbEntry{200, PageSize::Size4K, true});
    n.flushFrame(100);
    EXPECT_FALSE(n.lookup(100).has_value());
}

TEST(SptrCacheTest, HitAvoidsTrap)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 8);
    EXPECT_FALSE(c.lookup(10).has_value());
    c.insert(10, SptrEntry{111, 222});
    auto e = c.lookup(10);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->sptRoot, 111u);
    EXPECT_EQ(e->gptRootBacking, 222u);
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(SptrCacheTest, SmallCapacityEvicts)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 4);
    for (FrameId f = 1; f <= 5; ++f)
        c.insert(f, SptrEntry{f * 10, 0});
    // Oldest (1) evicted by 5th insert in a 4-entry cache.
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_TRUE(c.lookup(5).has_value());
}

TEST(SptrCacheTest, Invalidate)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 8);
    c.insert(10, SptrEntry{1, 2});
    c.invalidate(10);
    EXPECT_FALSE(c.lookup(10).has_value());
}

TEST(SptrCacheTest, ZeroEntriesChargesNoStats)
{
    // Capacity 0 models hardware without the extension: every probe
    // misses, but there is no structure to account hits/misses
    // against, so the stats must stay untouched.
    stats::StatGroup g("g");
    SptrCache c(&g, 0);
    EXPECT_EQ(c.capacity(), 0u);
    EXPECT_FALSE(c.lookup(10).has_value());
    c.insert(10, SptrEntry{1, 2}); // dropped
    EXPECT_FALSE(c.lookup(10).has_value());
    c.invalidate(10); // no-op
    c.clear();        // no-op
    EXPECT_EQ(c.hits.value(), 0.0);
    EXPECT_EQ(c.misses.value(), 0.0);
}

TEST(SptrCacheTest, MissAccountingOnlyOnRealProbes)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 4);
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_FALSE(c.lookup(2).has_value());
    EXPECT_EQ(c.misses.value(), 2.0);
    c.insert(1, SptrEntry{10, 20});
    EXPECT_TRUE(c.lookup(1).has_value());
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 2.0);
}

} // namespace
} // namespace ap
