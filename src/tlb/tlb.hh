/**
 * @file
 * A single TLB structure holding translations for one page size.
 *
 * Regardless of virtualization technique the TLB maps gVA directly to a
 * host frame (VA to PA when native) — the paper's Table I "TLB hit"
 * row: hits are equally fast in every mode.
 */

#ifndef AGILEPAGING_TLB_TLB_HH
#define AGILEPAGING_TLB_TLB_HH

#include <optional>
#include <string>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "tlb/assoc_cache.hh"

namespace ap
{

/** Payload of one TLB entry. */
struct TlbEntry
{
    /** Final (host) frame; for a 2M/1G entry, the frame of the base. */
    FrameId pfn = 0;
    /** Write permission as seen by hardware (shadow may clear it). */
    bool writable = false;
    /** Leaf dirty state at fill time. A store through a clean entry
     *  must re-walk so the hardware can set the in-memory dirty bit
     *  (x86 SDM: the cached translation alone cannot satisfy it). */
    bool dirty = false;
    /** Global/asid: entries are tagged, flushed per-asid. */
    ProcId asid = 0;
};

/**
 * One set-associative TLB for a fixed page size.
 */
class Tlb : public stats::StatGroup
{
  public:
    /**
     * @param name     stat name ("l1d4k" etc.)
     * @param parent   stat parent group (may be nullptr)
     * @param entries  total entries
     * @param ways     associativity
     * @param ps       page size this TLB holds
     */
    Tlb(const std::string &name, stats::StatGroup *parent,
        std::size_t entries, std::size_t ways, PageSize ps);

    /**
     * Probe for (va, asid).
     * @return the entry on hit (after LRU update), nullopt on miss.
     */
    std::optional<TlbEntry> lookup(Addr va, ProcId asid);

    /**
     * Hot-path probe: identical to lookup() (LRU refresh, hit/miss
     * stats) but returns a pointer into the cache instead of copying
     * the entry through an optional. The pointer is valid until the
     * next mutating call.
     */
    const TlbEntry *
    find(Addr va, ProcId asid)
    {
        if (TlbEntry *e = cache_.lookup(key(va, asid))) {
            ++hits;
            return e;
        }
        ++misses;
        return nullptr;
    }

    /** Probe without updating LRU or stats. */
    bool contains(Addr va, ProcId asid) const;

    /** Install a translation (evicts LRU within the set if needed). */
    void
    insert(Addr va, ProcId asid, const TlbEntry &entry)
    {
        if (cache_.insert(key(va, asid), entry))
            ++evictions;
    }

    /** Invalidate one page's translation. */
    void flushPage(Addr va, ProcId asid);

    /** Invalidate every translation belonging to @p asid. */
    void flushAsid(ProcId asid);

    /** Invalidate translations of @p asid inside [base, base+len). */
    void flushRange(Addr base, Addr len, ProcId asid);

    /** Invalidate everything. */
    void flushAll();

    PageSize pageSize() const { return ps_; }
    std::size_t size() const { return cache_.size(); }

    /** Visit every live entry as @p fn(va, asid, entry), va decoded to
     *  the entry's page base. LRU state is untouched (invariant
     *  sweeps). */
    template <typename Fn>
    void
    forEach(const Fn &fn) const
    {
        cache_.forEach([&](std::uint64_t k, const TlbEntry &e) {
            Addr va = (k & ((std::uint64_t{1} << 40) - 1)) << shift_;
            fn(va, static_cast<ProcId>(k >> 40), e);
        });
    }

    /** Snapshot support (stat counters travel via the stats tree). */
    void saveState(Serializer &s) const { cache_.saveState(s); }
    void restoreState(Deserializer &d) { cache_.restoreState(d); }

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;

  private:
    std::uint64_t
    key(Addr va, ProcId asid) const
    {
        // vpn in the low bits (drives set selection); asid in the high
        // bits so different processes never alias.
        return (va >> shift_) | (static_cast<std::uint64_t>(asid) << 40);
    }

    PageSize ps_;
    /** pageShift(ps_), cached so key() is a shift, not a divide. */
    unsigned shift_;
    AssocCache<TlbEntry> cache_;
};

} // namespace ap

#endif // AGILEPAGING_TLB_TLB_HH
