/**
 * @file
 * Page walk caches (MMU caches), Intel-style, extended for agile paging.
 *
 * Three structures cache partial translations that let a walk skip the
 * top one, two, or three levels (paper Section III-A). Each entry holds
 * the host frame of the table page the walk resumes from plus a single
 * mode bit saying whether that frame is a shadow-table page (resume in
 * shadow mode) or a guest-table page (resume in nested mode) — the
 * agile extension.
 */

#ifndef AGILEPAGING_TLB_PWC_HH
#define AGILEPAGING_TLB_PWC_HH

#include <memory>
#include <vector>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "tlb/assoc_cache.hh"

namespace ap
{

/** Where a PWC-resumed walk continues. */
struct PwcEntry
{
    /** Host frame of the table page to read next. */
    FrameId frame = 0;
    /** Resume in nested mode (frame is a guest-PT page). */
    bool nested = false;
};

/** Result of a PWC probe. */
struct PwcHit
{
    /** Walk depth to resume at (0 = no hit, start at the root). */
    unsigned startDepth = 0;
    PwcEntry entry{};
};

/**
 * The three-table page-walk-cache complex.
 */
class PageWalkCache : public stats::StatGroup
{
  public:
    /**
     * @param parent   stat parent
     * @param entries  entries per skip table
     * @param ways     associativity per skip table
     * @param enabled  a disabled PWC never hits (Table VI runs)
     */
    PageWalkCache(stats::StatGroup *parent, std::size_t entries,
                  std::size_t ways, bool enabled);

    /**
     * Probe for the deepest usable skip for (va, asid).
     * Tries skip-3, then skip-2, then skip-1.
     */
    PwcHit probe(Addr va, ProcId asid);

    /**
     * Record that the table page read at @p depth for @p va lives in
     * @p frame with the given mode. Depth 0 (the root) is not cached —
     * the root pointer register already provides it.
     */
    void fill(Addr va, ProcId asid, unsigned depth, FrameId frame,
              bool nested);

    /** Invalidate all partial translations of an address space. */
    void flushAsid(ProcId asid);

    /** Invalidate entries covering [base, base+len) for @p asid. */
    void flushRange(Addr base, Addr len, ProcId asid);

    /** Invalidate everything. */
    void flushAll();

    bool enabled() const { return enabled_; }

    /** Visit every live entry as @p fn(depth, prefix, asid, entry),
     *  where prefix is the VA bits consumed above @p depth. LRU state
     *  is untouched. */
    template <typename Fn>
    void
    forEach(const Fn &fn) const
    {
        for (unsigned d = 1; d < kPtLevels; ++d) {
            tables_[d - 1].forEach(
                [&](std::uint64_t k, const PwcEntry &e) {
                    fn(d, k & kKeyIndexMask,
                       static_cast<ProcId>(k >> kKeyTagShift), e);
                });
        }
    }

    /** Snapshot support. */
    void
    saveState(Serializer &s) const
    {
        for (const auto &t : tables_)
            t.saveState(s);
    }

    void
    restoreState(Deserializer &d)
    {
        for (auto &t : tables_)
            t.restoreState(d);
    }

    stats::Scalar hitsSkip1;
    stats::Scalar hitsSkip2;
    stats::Scalar hitsSkip3;
    stats::Scalar missesStat;

  private:
    /** Key for the table that resumes at @p depth. */
    std::uint64_t key(Addr va, ProcId asid, unsigned depth) const;

    bool enabled_;
    /** tables_[d-1] lets a walk resume at depth d (skip d levels). */
    std::vector<AssocCache<PwcEntry>> tables_;
};

} // namespace ap

#endif // AGILEPAGING_TLB_PWC_HH
