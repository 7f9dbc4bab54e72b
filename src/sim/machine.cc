/**
 * @file
 * Machine implementation: composition, the access path (TLB probe,
 * fault-servicing walk loop, protection resolution), scheduling, and
 * interval-driven policies.
 */

#include "sim/machine.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "base/bitfield.hh"
#include "base/debug.hh"
#include "base/logging.hh"

namespace ap
{

namespace
{

/** Bits [pos, pos+n) of a packed bitmap as one word (n in [1, 64]). */
inline std::uint64_t
bitWindow(const std::uint64_t *bits, std::size_t pos, std::size_t n)
{
    const std::size_t k = pos >> 6;
    const unsigned s = pos & 63;
    std::uint64_t w = bits[k] >> s;
    if (s && n > 64 - s)
        w |= bits[k + 1] << (64 - s);
    if (n < 64)
        w &= (std::uint64_t(1) << n) - 1;
    return w;
}

/** Low @p n bits set (n in [0, 64]). */
inline std::uint64_t
lowMask(std::size_t n)
{
    return n >= 64 ? ~std::uint64_t(0)
                   : (std::uint64_t(1) << n) - 1;
}

/** Length of the run of set bits starting at bit 0. */
inline std::size_t
trailingOnes(std::uint64_t x)
{
    return x == ~std::uint64_t(0)
               ? 64
               : std::size_t(__builtin_ctzll(~x));
}

/**
 * Bit j set iff ((vas[j] ^ va0) & mask) == 0: the same-page sweep of
 * the last-translation filter over a window of SoA lanes. Branch-free
 * (independent lanes, no loads besides the VA stream), so the compiler
 * is free to vectorize it.
 */
inline std::uint64_t
samePageMask(const Addr *vas, std::size_t n, Addr va0, Addr mask)
{
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < n; ++j)
        m |= std::uint64_t(((vas[j] ^ va0) & mask) == 0) << j;
    return m;
}

// Process-wide batch-filter telemetry (relaxed: the counters are
// observational sums, never synchronization).
std::atomic<std::uint64_t> g_blocks_scanned{0};
std::atomic<std::uint64_t> g_lanes_scanned{0};
std::atomic<std::uint64_t> g_lanes_filtered{0};
std::atomic<std::uint64_t> g_bulk_retires{0};

} // namespace

Machine::BatchFilterStats
Machine::batchFilterStats()
{
    BatchFilterStats s;
    s.blocksScanned = g_blocks_scanned.load(std::memory_order_relaxed);
    s.lanesScanned = g_lanes_scanned.load(std::memory_order_relaxed);
    s.lanesFiltered = g_lanes_filtered.load(std::memory_order_relaxed);
    s.bulkRetires = g_bulk_retires.load(std::memory_order_relaxed);
    return s;
}

void
Machine::resetBatchFilterStats()
{
    g_blocks_scanned.store(0, std::memory_order_relaxed);
    g_lanes_scanned.store(0, std::memory_order_relaxed);
    g_lanes_filtered.store(0, std::memory_order_relaxed);
    g_bulk_retires.store(0, std::memory_order_relaxed);
}

Machine::Machine(const SimConfig &cfg)
    : stats::StatGroup("machine"),
      instructionsStat(this, "instructions", "instructions executed",
                       [this] { return double(instructions_); }),
      walkCyclesStat(this, "walk_cycles", "translation cycles",
                     [this] { return double(walk_cycles_); }),
      l2HitCyclesStat(this, "l2_hit_cycles", "cycles in L2 TLB hits"),
      protFaults(this, "prot_faults", "write-permission fixups"),
      arenaPoolHits(this, "arena_pool_hits",
                    "PT-page acquires served without heap allocation",
                    [this] { return double(mem_.arena().poolHits()); }),
      arenaRecycles(this, "arena_recycles",
                    "PT-page acquires served from the recycle list",
                    [this] { return double(mem_.arena().recycles()); }),
      arenaHighWater(this, "arena_high_water",
                     "most PT pages simultaneously live",
                     [this] { return double(mem_.arena().highWater()); }),
      arenaSlabAllocs(this, "arena_slab_allocs",
                      "slab allocations (heap fallback path)",
                      [this] { return double(mem_.arena().slabAllocs()); }),
      guestPtFrameRecycles(
          this, "guest_pt_frame_recycles",
          "guest PT frame ids served by recycling",
          [this] { return vmm_ ? double(vmm_->ptAllocator().recycles())
                               : 0.0; }),
      guestPtFrameHighWater(
          this, "guest_pt_frame_high_water",
          "most guest PT frame ids simultaneously allocated",
          [this] { return vmm_ ? double(vmm_->ptAllocator().highWater())
                               : 0.0; }),
      guestDataFrameRecycles(
          this, "guest_data_frame_recycles",
          "guest data frame ids served by recycling",
          [this] { return vmm_ ? double(vmm_->dataAllocator().recycles())
                               : 0.0; }),
      guestDataFrameHighWater(
          this, "guest_data_frame_high_water",
          "most guest data frame ids simultaneously allocated",
          [this] { return vmm_ ? double(vmm_->dataAllocator().highWater())
                               : 0.0; }),
      cfg_(cfg),
      rng_(12345),          // workload stream: identical in every mode
      internal_rng_(12345), // machine stream: driven by events only
      mem_(cfg.hostMemFrames,
           cfg.arenaSlabPages ? cfg.arenaSlabPages
                              : PtPageArena::kDefaultSlabPages)
{
    tlb_ = std::make_unique<TlbHierarchy>(this, cfg_.tlb);
    pwc_ = std::make_unique<PageWalkCache>(this, cfg_.pwcEntries,
                                           cfg_.pwcWays, cfg_.pwcEnabled);
    ntlb_ = std::make_unique<NestedTlb>(this, cfg_.ntlbEntries,
                                        cfg_.ntlbWays, cfg_.ntlbEnabled);
    walker_ = std::make_unique<Walker>(this, mem_, *pwc_, *ntlb_);

    // Translation coherence: every vCPU's private stack registers with
    // the shared domain; the guest OS and shadow manager invalidate
    // through it. The nested TLB caches gPA->hPA and is per-VM, so the
    // extra vCPUs share ntlb_ (and the walker serializes through it
    // deterministically under the round-robin schedule).
    coh_ = std::make_unique<CoherenceDomain>(this, cfg_.tlbCoherence,
                                             cfg_.ipiShootdownCycles,
                                             cfg_.hwInvalidateCycles);
    coh_->addVcpu(tlb_.get(), pwc_.get());
    for (unsigned v = 1; v < cfg_.numVcpus; ++v) {
        auto stack = std::make_unique<VcpuStack>();
        stack->group = std::make_unique<stats::StatGroup>(
            "vcpu" + std::to_string(v), this);
        stack->tlb = std::make_unique<TlbHierarchy>(stack->group.get(),
                                                    cfg_.tlb);
        stack->pwc = std::make_unique<PageWalkCache>(
            stack->group.get(), cfg_.pwcEntries, cfg_.pwcWays,
            cfg_.pwcEnabled);
        stack->walker = std::make_unique<Walker>(stack->group.get(),
                                                 mem_, *stack->pwc,
                                                 *ntlb_);
        coh_->addVcpu(stack->tlb.get(), stack->pwc.get());
        extra_vcpus_.push_back(std::move(stack));
    }
    setActiveVcpu(0);
    vcpu_quantum_left_ = cfg_.vcpuQuantumOps;

    // Resolve the translation backend: stateful modes get a per-machine
    // instance from the registry (stats registered under this machine),
    // the classic paging families share the stateless singletons.
    BackendArgs bargs;
    bargs.statParent = this;
    bargs.numVcpus = cfg_.numVcpus;
    bargs.range = cfg_.range;
    backend_owned_ = makeTranslationBackend(cfg_.mode, bargs);
    backend_ = backend_owned_ ? backend_owned_.get()
                              : &builtinBackend(cfg_.mode);
    range_backend_ = dynamic_cast<RangeBackend *>(backend_);
    walker_->setBackend(backend_, 0);
    for (unsigned v = 1; v < cfg_.numVcpus; ++v)
        extra_vcpus_[v - 1]->walker->setBackend(backend_, v);
    if (CoherenceListener *listener = backend_->coherenceListener())
        coh_->addListener(listener);

    const BackendTraits &traits = backendTraits(cfg_.mode);
    if (traits.usesVmm) {
        VmmConfig vcfg;
        vcfg.guestPtFrames = cfg_.guestPtFrames;
        vcfg.guestDataFrames = cfg_.guestDataFrames;
        vcfg.hostPageSize = cfg_.pageSize;
        vcfg.costs = cfg_.trapCosts;
        vcfg.sptrCacheEntries = cfg_.sptrCacheEntries;
        vmm_ = std::make_unique<Vmm>(this, mem_, vcfg, ntlb_.get());
        if (traits.usesShadowMgr) {
            ShadowConfig scfg;
            scfg.unsyncEnabled = cfg_.unsyncEnabled;
            scfg.hwOptAd = cfg_.hwOptAd;
            smgr_ = std::make_unique<ShadowMgr>(this, mem_, *vmm_, scfg,
                                                coh_.get());
            if (traits.usesAgilePolicy) {
                policy_ = std::make_unique<AgilePolicy>(this, *smgr_,
                                                        cfg_.policy);
            } else if (traits.usesShsp) {
                shsp_ = std::make_unique<ShspController>(this, *smgr_,
                                                         cfg_.shsp);
            }
        }
    }

    GuestOsConfig gcfg = cfg_.guestOs;
    // The guest granule follows the machine page size unless the
    // caller picked a different guest granule explicitly (mixed-stage
    // configurations, Section V).
    if (gcfg.pageSize == PageSize::Size4K)
        gcfg.pageSize = cfg_.pageSize;
    guest_os_ = std::make_unique<GuestOs>(this, mem_, vmm_.get(),
                                          smgr_.get(), coh_.get(), gcfg);
    guest_os_->onMediatedGptWrite = [this](ProcId pid, Addr va,
                                           unsigned depth,
                                           const GptWriteOutcome &out) {
        if (policy_)
            policy_->onMediatedWrite(pid, va, depth, out);
    };
    guest_os_->onAnyGptWrite = [this](ProcId, Addr, unsigned) {
        ++interval_gpt_writes_;
    };

    next_interval_ = cfg_.policyIntervalOps;
}

Machine::~Machine() = default;

void
Machine::setActiveVcpu(unsigned vcpu)
{
    active_vcpu_ = vcpu;
    if (vcpu == 0) {
        atlb_ = tlb_.get();
        apwc_ = pwc_.get();
        awalker_ = walker_.get();
        al0_ = l0_;
    } else {
        VcpuStack &s = *extra_vcpus_[vcpu - 1];
        atlb_ = s.tlb.get();
        apwc_ = s.pwc.get();
        awalker_ = s.walker.get();
        al0_ = s.l0;
    }
}

TlbHierarchy &
Machine::tlbOf(unsigned vcpu)
{
    return vcpu == 0 ? *tlb_ : *extra_vcpus_[vcpu - 1]->tlb;
}

PageWalkCache &
Machine::pwcOf(unsigned vcpu)
{
    return vcpu == 0 ? *pwc_ : *extra_vcpus_[vcpu - 1]->pwc;
}

bool
Machine::shadowed(ProcId pid) const
{
    return smgr_ && smgr_->hasProcess(pid);
}

ProcId
Machine::spawnProcess()
{
    ProcId pid = guest_os_->createProcess(cfg_.mode);
    if (policy_)
        policy_->onProcessStart(pid);
    if (shsp_)
        shsp_->onProcessStart(pid);
    switchTo(pid);
    return pid;
}

void
Machine::switchTo(ProcId pid)
{
    ap_assert(guest_os_->hasProcess(pid), "switch to dead process");
    if (pid == current_)
        return;
    current_ = pid;
    instructions_ += cfg_.ctxSwitchGuestCycles; // guest-side work
    if (shadowed(pid))
        smgr_->onCtxSwitchIn(pid);
    // Nested/native CR3 writes are direct; with per-asid TLB tagging
    // (PCID-style) no flush is required.
}

WalkResult
Machine::translate(ProcId pid, Addr va, bool write)
{
    for (int attempt = 0; attempt < 32; ++attempt) {
        TranslationContext &ctx = guest_os_->context(pid);
        // The walker hands back its reused scratch result; no handler
        // below re-enters the walker, so the reference stays valid
        // until the retry.
        const WalkResult &r = awalker_->walk(ctx, va, write);
        walk_cycles_ += r.coldRefs * cfg_.walkRefCycles +
                        (r.refs - r.coldRefs) * cfg_.walkRefWarmCycles +
                        r.extraCycles;
        if (r.ok()) {
            last_translate_faults_ = attempt;
            if (r.dirtyTransition && cfg_.hwOptAd && shadowed(pid) &&
                !ctx.fullNested) {
                // Hardware A/D writeback into all three tables costs
                // up to a full nested walk (Section IV).
                walk_cycles_ += cfg_.adWritebackRefs * cfg_.walkRefCycles;
                // Keep the guest table's A/D architecturally coherent.
                auto gm = guest_os_->process(pid).pt->lookup(va);
                if (gm) {
                    Pte *gpte =
                        guest_os_->process(pid).pt->entry(va, gm->depth);
                    gpte->accessed = true;
                    if (write && r.writable)
                        gpte->dirty = true;
                }
            }
            return r;
        }
        switch (r.fault) {
          case WalkFault::ShadowFault: {
            ShadowFillResult fill = smgr_->handleShadowFault(pid, va);
            if (fill == ShadowFillResult::NeedGuestFault) {
                // A true guest fault surfaces through the VMM first.
                vmm_->chargeTrap(TrapKind::GuestFaultMediation);
                if (!guest_os_->handlePageFault(pid, va, write))
                    ap_panic("guest segfault at 0x", std::hex, va);
            }
            break;
          }
          case WalkFault::GuestFault:
            // Nested portions deliver guest faults directly.
            if (!guest_os_->handlePageFault(pid, va, write))
                ap_panic("guest segfault at 0x", std::hex, va);
            break;
          case WalkFault::HostFault:
            if (!vmm_->handleHostFault(r.faultGpa))
                ap_fatal("host memory exhausted (gpa 0x", std::hex,
                         r.faultGpa, ")");
            break;
          case WalkFault::NativeFault:
            if (!guest_os_->handlePageFault(pid, va, write))
                ap_panic("segfault at 0x", std::hex, va);
            break;
          default:
            ap_panic("unexpected walk fault");
        }
    }
    ap_panic("translation did not converge at 0x", std::hex, va);
}

void
Machine::resolveProtection(ProcId pid, Addr va)
{
    ++protFaults;
    AP_DPRINTF(Machine, "proc ", pid, ": protection fixup at 0x",
               std::hex, va);
    ap_assert(guest_os_->vmaWritable(pid, va),
              "workload wrote a read-only mapping at 0x", std::hex, va);

    if (!guest_os_->guestMappingWritable(pid, va)) {
        // Guest-level COW (or a racing unmap): the guest's own fault
        // handler fixes it. Shadow-portion faults pay VMM mediation;
        // faults in nested-mode regions are delivered directly.
        if (shadowed(pid) && !guest_os_->context(pid).fullNested &&
            !smgr_->leafUnderNestedMode(pid, va)) {
            vmm_->chargeTrap(TrapKind::GuestFaultMediation);
        }
        if (!guest_os_->handlePageFault(pid, va, true))
            ap_panic("COW fixup failed at 0x", std::hex, va);
        return;
    }
    if (!guest_os_->isNative()) {
        FrameId gframe = guest_os_->leafFrame(pid, va);
        if (gframe && !vmm_->hostWritable(gframe)) {
            // Host-level COW from content-based sharing. The same exit
            // repairs the shadow leaf (new backing, writability).
            if (!vmm_->breakHostCow(gframe))
                ap_fatal("host memory exhausted during COW break");
            if (shadowed(pid) && !guest_os_->context(pid).fullNested)
                smgr_->refreshLeaf(pid, va);
            else
                coh_->flushPage(va, pid, CoherenceCause::HostRemap);
            return;
        }
    }
    if (shadowed(pid) && !guest_os_->context(pid).fullNested) {
        // Dirty-bit emulation (no A/D hardware optimization).
        smgr_->emulateDirtyWrite(pid, va);
        return;
    }
    // Stale cached translation: drop it and rewalk (local vCPU only —
    // the entry was just probed here).
    atlb_->flushPage(va, pid);
}

void
Machine::verifyAgainstFunctional(ProcId pid, Addr va, FrameId got)
{
    FrameId leaf = guest_os_->leafFrame(pid, va);
    ap_assert(leaf != 0, "verify: no functional mapping at 0x", std::hex,
              va);
    FrameId expected =
        guest_os_->isNative() ? leaf : vmm_->backing(leaf);
    ap_assert(got == expected, "translation mismatch at 0x", std::hex, va,
              ": hw 0x", got, " functional 0x", expected);
}

void
Machine::doAccess(Addr va, bool write, bool instr)
{
    if (!extra_vcpus_.empty()) {
        if (vcpu_quantum_left_ == 0) {
            vcpu_quantum_left_ = cfg_.vcpuQuantumOps;
            unsigned next = active_vcpu_ + 1;
            setActiveVcpu(next == cfg_.numVcpus ? 0 : next);
        }
        --vcpu_quantum_left_;
    }
    instructions_ += cfg_.cyclesPerOp;
    maybeInterval();
    accessSlow(va, write, instr);
}

void
Machine::accessSlow(Addr va, bool write, bool instr)
{
    ProcId pid = current_;

    for (int attempt = 0; attempt < 8; ++attempt) {
        TlbProbeResult hit = atlb_->probe(va, pid, instr);
        if (hit.level != TlbHitLevel::Miss) {
            if (hit.level == TlbHitLevel::L2) {
                // L2 TLB hit latency is identical in every mode and so
                // belongs to base execution time, not translation
                // overhead (the paper's T counts misses only).
                instructions_ += cfg_.l2TlbHitCycles;
                l2HitCyclesStat += cfg_.l2TlbHitCycles;
            }
            if (write && !hit.entry.writable) {
                resolveProtection(pid, va);
                continue;
            }
            if (write && !hit.entry.dirty) {
                // x86 semantics: a store through a cached translation
                // whose leaf dirty bit is clear must re-walk so the
                // hardware can set the in-memory dirty bit. Without
                // this, a write hitting an entry filled by a read
                // would never dirty the page.
                atlb_->flushPage(va, pid);
                continue;
            }
            if (cfg_.verifyTranslations) {
                std::uint64_t frames = pageBytes(hit.size) / kPageBytes;
                verifyAgainstFunctional(
                    pid, va, hit.entry.pfn + (frameOf(va) % frames));
            }
            al0_[instr] = {va, ~(pageBytes(hit.size) - 1), pid,
                           hit.size, hit.entry.writable, hit.entry.dirty,
                           atlb_->flushGeneration(pid)};
            return;
        }
        ++tlb_misses_;
        std::array<std::uint64_t, kNumTrapKinds> traps_before{};
        if (walk_trace_ && vmm_) {
            for (std::size_t k = 0; k < kNumTrapKinds; ++k)
                traps_before[k] = vmm_->trapCount(static_cast<TrapKind>(k));
        }
        WalkResult r = translate(pid, va, write);
        if (walk_trace_)
            recordWalkTrace(pid, va, write, instr, r, traps_before);
        if (write && !r.writable) {
            resolveProtection(pid, va);
            continue;
        }
        TlbEntry entry;
        entry.pfn = r.hframe;
        entry.writable = r.writable;
        entry.dirty = r.dirty;
        entry.asid = pid;
        atlb_->fill(va, pid, instr, r.size, entry);
        if (cfg_.verifyTranslations) {
            std::uint64_t frames = pageBytes(r.size) / kPageBytes;
            verifyAgainstFunctional(pid, va,
                                    r.hframe + (frameOf(va) % frames));
        }
        al0_[instr] = {va, ~(pageBytes(r.size) - 1), pid, r.size,
                       r.writable, r.dirty, atlb_->flushGeneration(pid)};
        return;
    }
    ap_panic("access did not converge at 0x", std::hex, va);
}

void
Machine::runAccessBatch(const Addr *vas, const std::uint64_t *write_bits,
                        const std::uint64_t *instr_bits,
                        std::size_t begin, std::size_t count)
{
    if (extra_vcpus_.empty()) {
        runBatchRange(vas, write_bits, instr_bits, begin, count);
        return;
    }
    // Multi-vCPU: replay the deterministic round-robin schedule at
    // quantum granularity. Rotation happens exactly where doAccess
    // would rotate — before the first access of a fresh quantum — and
    // each sub-batch drains on the active vCPU's private stack (TLBs,
    // PWC, walker, L0 filter lanes), so the interleaving and every
    // counter are bit-identical to the per-event path. The L0 lanes
    // stay sound across rotations because remote-vCPU invalidations
    // bump that vCPU's flush generation (coherence shootdowns).
    std::size_t i = begin;
    const std::size_t end = begin + count;
    while (i < end) {
        if (vcpu_quantum_left_ == 0) {
            vcpu_quantum_left_ = cfg_.vcpuQuantumOps;
            unsigned next = active_vcpu_ + 1;
            setActiveVcpu(next == cfg_.numVcpus ? 0 : next);
        }
        const std::size_t m =
            std::min<std::size_t>(end - i, vcpu_quantum_left_);
        runBatchRange(vas, write_bits, instr_bits, i, m);
        vcpu_quantum_left_ -= m;
        i += m;
    }
}

std::size_t
Machine::intervalRoom(Cycles op_cycles) const
{
    // Largest k such that k op-charges from here leave
    // instructions_ < next_interval_ after every one of them.
    if (instructions_ >= next_interval_)
        return 0;
    if (op_cycles == 0)
        return std::numeric_limits<std::size_t>::max();
    const std::uint64_t budget = next_interval_ - instructions_ - 1;
    return std::size_t(std::min<std::uint64_t>(
        budget / op_cycles,
        std::numeric_limits<std::size_t>::max()));
}

void
Machine::runBatchRange(const Addr *vas, const std::uint64_t *write_bits,
                       const std::uint64_t *instr_bits,
                       std::size_t begin, std::size_t count)
{
    if (count == 0)
        return;
    // Verification re-checks every access against the functional
    // mappings; the filter would skip those checks, so turn it off.
    const bool filter_ok = !cfg_.verifyTranslations;

    const std::uint64_t misses_before = tlb_misses_;
    if (cfg_.batchedWalks && prime_next_ && count >= 64)
        primeBatch(vas, begin, count);

    const Cycles op_cycles = cfg_.cyclesPerOp;
    // The flush generation only moves inside maybeInterval() or
    // accessSlow(), so cache it in a register and re-load after
    // either call instead of chasing the pointer every lane.
    std::uint64_t gen = atlb_->flushGeneration(current_);

    std::uint64_t blocks = 0, lanes = 0, filtered = 0, retires = 0;

    std::size_t i = begin;
    const std::size_t end = begin + count;
    while (i < end) {
        const std::size_t bn = std::min<std::size_t>(64, end - i);
        const std::uint64_t w_w = bitWindow(write_bits, i, bn);
        const std::uint64_t w_i = bitWindow(instr_bits, i, bn);
        ++blocks;
        lanes += bn;

        std::size_t j = 0;
        while (j < bn) {
            const Addr va = vas[i + j];
            const bool write = (w_w >> j) & 1;
            const bool instr = (w_i >> j) & 1;
            // Same page, same stream, nothing flushed since: the probe
            // would hit the same (still-MRU) L1 entry and take the same
            // early-outs, so the lane can be accounted without
            // re-touching the arrays. Probe lane j with this predicate
            // first and sweep only when it holds: misses cost one
            // predicate, and each sweep amortizes over a whole hit-run.
            const LastXlat &p = al0_[instr];
            const bool pred =
                filter_ok && p.mask != 0 && ((va ^ p.va) & p.mask) == 0 &&
                p.asid == current_ && p.gen == gen &&
                (!write || (p.writable && p.dirty));
            if (pred && instructions_ + op_cycles < next_interval_) {
                // Hit with interval room: extend it into a run over a
                // bounded window with the branch-free same-page sweep
                // of both L0 streams, then retire the run in bulk —
                // one instruction charge, one stat add per stream.
                // Window width trades sweep waste on isolated hits
                // against per-sweep overhead on dense blocks; hit
                // runs in the matrix average well under 16.
                const std::size_t wn =
                    std::min<std::size_t>(bn - j, 16);
                std::uint64_t hm_d = 0;
                std::uint64_t hm_i = 0;
                const LastXlat &d = al0_[0];
                if (d.mask != 0 && d.asid == current_ &&
                    d.gen == gen) {
                    hm_d = samePageMask(vas + i + j, wn, d.va, d.mask);
                    if (!(d.writable && d.dirty))
                        hm_d &= ~(w_w >> j);
                }
                const LastXlat &f = al0_[1];
                if (f.mask != 0 && f.asid == current_ &&
                    f.gen == gen) {
                    hm_i = samePageMask(vas + i + j, wn, f.va, f.mask);
                    if (!(f.writable && f.dirty))
                        hm_i &= ~(w_w >> j);
                }
                const std::uint64_t hit =
                    ((hm_d & ~(w_i >> j)) | (hm_i & (w_i >> j))) &
                    lowMask(wn);
                const std::size_t k = std::min(
                    trailingOnes(hit), intervalRoom(op_cycles));
#ifndef NDEBUG
                ap_assert(k > 0, "probed lane lost from its own sweep");
                for (std::size_t t = 0; t < k; ++t) {
                    const Addr va_t = vas[i + j + t];
                    const bool wr_t = (w_w >> (j + t)) & 1;
                    const bool in_t = (w_i >> (j + t)) & 1;
                    const LastXlat &l0t = al0_[in_t];
                    ap_assert(
                        l0t.mask != 0 &&
                            ((va_t ^ l0t.va) & l0t.mask) == 0 &&
                            l0t.asid == current_ && l0t.gen == gen &&
                            (!wr_t || (l0t.writable && l0t.dirty)),
                        "same-page sweep claimed a lane the per-lane "
                        "filter rejects");
                }
#endif
                instructions_ += std::uint64_t(k) * op_cycles;
                const std::uint64_t wnd = (w_i >> j) & lowMask(k);
                const std::uint64_t n_i =
                    std::uint64_t(__builtin_popcountll(wnd));
                const std::uint64_t n_d = k - n_i;
                if (n_d)
                    atlb_->countFilteredL1Hit(al0_[0].size, false, n_d);
                if (n_i)
                    atlb_->countFilteredL1Hit(al0_[1].size, true, n_i);
                filtered += k;
                ++retires;
                j += k;
                continue;
            }
            // Single lane: the filter rejected it, or the policy
            // interval fires on this access. Exactly doAccess's charge
            // and tick — except that a lane which failed the predicate
            // needs no post-interval recheck: the interval can only
            // advance the flush generation, and the filter compares
            // the slot's generation for equality, so a rejected lane
            // can never newly pass.
            instructions_ += op_cycles;
            if (instructions_ >= next_interval_) {
                maybeInterval();
                gen = atlb_->flushGeneration(current_);
                // Only a predicate-passing lane deflected here by
                // interval room can still be a filter hit, and only
                // if the tick flushed nothing (slot generation still
                // current).
                if (pred && p.gen == gen) {
                    atlb_->countFilteredL1Hit(p.size, instr);
                    ++filtered;
                    ++j;
                    continue;
                }
            }
            accessSlow(va, write, instr);
            gen = atlb_->flushGeneration(current_);
            ++j;
        }
        i += bn;
    }

    g_blocks_scanned.fetch_add(blocks, std::memory_order_relaxed);
    g_lanes_scanned.fetch_add(lanes, std::memory_order_relaxed);
    g_lanes_filtered.fetch_add(filtered, std::memory_order_relaxed);
    g_bulk_retires.fetch_add(retires, std::memory_order_relaxed);

    // Re-arm priming only at walk densities where the sorted pre-touch
    // pays for the sort (roughly one miss per 16 accesses — cold or
    // TLB-thrashing phases); a warm TLB keeps it off.
    prime_next_ = (tlb_misses_ - misses_before) * 16 >= count;
}

void
Machine::primeBatch(const Addr *vas, std::size_t begin, std::size_t count)
{
    prime_vpns_.clear();
    prime_vpns_.reserve(count);
    for (std::size_t i = begin; i < begin + count; ++i)
        prime_vpns_.push_back(vas[i] >> kPageShift);
    std::sort(prime_vpns_.begin(), prime_vpns_.end());
    prime_vpns_.erase(
        std::unique(prime_vpns_.begin(), prime_vpns_.end()),
        prime_vpns_.end());
    const TranslationContext &ctx = guest_os_->context(current_);
    Walker::PrimeMemo memo;
    for (Addr vpn : prime_vpns_)
        awalker_->primeWalk(ctx, vpn << kPageShift, memo);
}

void
Machine::touch(Addr va, bool write, bool instr)
{
    doAccess(va, write, instr);
}

void
Machine::enableWalkTrace(std::size_t capacity)
{
    walk_trace_ = std::make_unique<WalkTraceBuffer>(capacity);
}

void
Machine::recordWalkTrace(
    ProcId pid, Addr va, bool write, bool instr, const WalkResult &r,
    const std::array<std::uint64_t, kNumTrapKinds> &traps_before)
{
    auto clamp8 = [](unsigned v) {
        return static_cast<std::uint8_t>(std::min(v, 255u));
    };
    WalkTraceRecord rec;
    rec.va = va;
    rec.asid = pid;
    rec.mode =
        static_cast<std::uint8_t>(guest_os_->context(pid).mode);
    rec.pageSize = static_cast<std::uint8_t>(r.size);
    if (write)
        rec.flags |= WalkTraceRecord::kFlagWrite;
    if (instr)
        rec.flags |= WalkTraceRecord::kFlagInstr;
    if (r.fullNested)
        rec.flags |= WalkTraceRecord::kFlagFullNested;
    rec.switchDepth = clamp8(r.switchDepth);
    rec.refs = clamp8(r.refs);
    rec.coldRefs = clamp8(r.coldRefs);
    for (std::size_t t = 0; t < kNumWalkTables; ++t)
        rec.refsByTable[t] = clamp8(r.refsByTable[t]);
    rec.pwcStartDepth = clamp8(r.pwcStartDepth);
    rec.ntlbHits = clamp8(r.ntlbHits);
    rec.faults = clamp8(last_translate_faults_);
    if (vmm_) {
        for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
            if (vmm_->trapCount(static_cast<TrapKind>(k)) >
                traps_before[k]) {
                rec.trapMask |= std::uint16_t(1u << k);
            }
        }
    }
    walk_trace_->append(rec);
}

void
Machine::maybeInterval()
{
    if (instructions_ < next_interval_)
        return;
    next_interval_ = instructions_ + cfg_.policyIntervalOps;

    std::uint64_t ops = instructions_ - interval_start_ops_;
    if (ops == 0)
        ops = 1;
    Cycles walk_delta = walk_cycles_ - interval_walk_cycles_;

    if (policy_ || shsp_) {
        ShspSample sample;
        sample.walkCycles = walk_delta;
        // SHSP compares against the *recurring* traps shadowing
        // causes. Mode-independent exits (EPT faults, host COW) and
        // one-time rebuild fills would otherwise bias it: the former
        // toward nested forever, the latter into a zap/rebuild
        // oscillation (fills right after a switch are transient).
        if (vmm_) {
            const TrapKind shadow_kinds[] = {
                TrapKind::ShadowPtWrite,  TrapKind::GuestFaultMediation,
                TrapKind::CtxSwitch,      TrapKind::TlbFlush,
                TrapKind::AdEmulation,    TrapKind::Unsync};
            Cycles shadow_cycles = 0;
            for (TrapKind k : shadow_kinds) {
                std::uint64_t now = vmm_->trapCount(k);
                std::uint64_t delta =
                    now - interval_trap_counts_[std::size_t(k)];
                shadow_cycles += delta * cfg_.trapCosts.cost(k);
            }
            sample.trapCycles = shadow_cycles;
        }
        sample.gptWrites = interval_gpt_writes_;
        sample.idealCycles = ops;
        PolicySample psample;
        psample.walkCycles = walk_delta;
        psample.gptWrites = interval_gpt_writes_;
        psample.idealCycles = ops;
        for (ProcId pid : guest_os_->livePids()) {
            if (!shadowed(pid))
                continue;
            if (policy_)
                policy_->onInterval(pid, psample);
            if (shsp_)
                shsp_->onInterval(pid, sample);
        }
    }

    interval_start_ops_ = instructions_;
    interval_walk_cycles_ = walk_cycles_;
    interval_trap_cycles_base_ = vmm_ ? vmm_->trapCycles() : 0;
    if (vmm_) {
        for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
            interval_trap_counts_[k] =
                vmm_->trapCount(static_cast<TrapKind>(k));
        }
    }
    interval_gpt_writes_ = 0;
}

// ---------------------------------------------------------------------
// WorkloadHost
// ---------------------------------------------------------------------

Addr
Machine::mmap(Addr length, bool writable, bool file_backed,
              std::uint64_t file_id)
{
    return guest_os_->mmap(current_, length, writable,
                           file_backed ? VmaKind::File : VmaKind::Anon,
                           file_id);
}

bool
Machine::mmapAt(Addr base, Addr length, bool writable, bool file_backed,
                std::uint64_t file_id)
{
    return guest_os_->mmapFixed(current_, base, length, writable,
                                file_backed ? VmaKind::File
                                            : VmaKind::Anon,
                                file_id);
}

void
Machine::munmap(Addr base, Addr length)
{
    guest_os_->munmap(current_, base, length);
}

void
Machine::access(Addr va, bool write)
{
    doAccess(va, write, false);
}

void
Machine::instrFetch(Addr va)
{
    doAccess(va, false, true);
}

void
Machine::compute(std::uint64_t instructions)
{
    instructions_ += instructions;
}

void
Machine::forkTouchExit(std::uint64_t touch_pages)
{
    ProcId parent = current_;
    ProcId child = guest_os_->fork(parent);
    if (!child)
        return;
    switchTo(child);
    for (std::uint64_t i = 0; i < touch_pages; ++i) {
        Addr va = guest_os_->randomMappedVa(child, internal_rng_);
        if (va)
            doAccess(va, true, false);
    }
    switchTo(parent);
    guest_os_->exitProcess(child);
}

void
Machine::yield()
{
    if (!background_) {
        ProcId main = current_;
        background_ = guest_os_->createProcess(cfg_.mode);
        if (policy_)
            policy_->onProcessStart(background_);
        if (shsp_)
            shsp_->onProcessStart(background_);
        switchTo(background_);
        Addr scratch = guest_os_->mmap(background_, 64 * kPageBytes, true,
                                       VmaKind::Anon);
        for (unsigned i = 0; i < 8; ++i)
            doAccess(scratch + i * kPageBytes, true, false);
        switchTo(main);
    }
    ProcId main = current_;
    switchTo(background_);
    // The daemon does a little work (e.g. network stack processing).
    Addr va = guest_os_->randomMappedVa(background_, internal_rng_);
    if (va)
        doAccess(va, false, false);
    compute(50);
    switchTo(main);
}

void
Machine::reclaimTick(std::uint64_t max_pages)
{
    guest_os_->reclaimScan(current_, max_pages);
}

void
Machine::sharePagesScan()
{
    if (!vmm_)
        return;
    std::vector<FrameId> remapped;
    vmm_->sharePages(&remapped);
    if (remapped.empty())
        return;
    if (smgr_)
        smgr_->invalidateByGuestFrames(remapped);
    // Cached translations may hold the retired host frames — on every
    // vCPU.
    coh_->flushAll(CoherenceCause::HostRemap);
}

// ---------------------------------------------------------------------
// Runs and results
// ---------------------------------------------------------------------

RunResult
Machine::snapshot(const std::string &workload_name) const
{
    RunResult r;
    r.workload = workload_name;
    r.mode = cfg_.mode;
    r.pageSize = cfg_.pageSize;
    r.instructions = instructions_;
    r.idealCycles = instructions_ + guest_os_->guestCycles();
    r.walkCycles = walk_cycles_;
    r.trapCycles = vmm_ ? vmm_->trapCycles() : 0;
    r.tlbMisses = tlb_misses_;
    r.traps = vmm_ ? vmm_->trapCountTotal() : 0;
    r.guestPageFaults =
        static_cast<std::uint64_t>(guest_os_->pageFaults.value());
    if (extra_vcpus_.empty()) {
        // Classic single-walker expressions, kept verbatim so a 1-vCPU
        // machine reports bit-identical numbers.
        r.walks = static_cast<std::uint64_t>(walker_->walks.value());
        r.avgWalkRefs = walker_->refsDist.mean();
        r.rawRefsTotal = walker_->refsOkTotal.value();
        double total_walks = 0;
        for (const auto &c : walker_->coverage)
            total_walks += c.value();
        for (int i = 0; i < 6; ++i) {
            r.rawCoverage[i] = walker_->coverage[i].value();
            r.coverage[i] = total_walks
                                ? walker_->coverage[i].value() / total_walks
                                : 0.0;
        }
    } else {
        // Aggregate every vCPU's walker.
        double walks_total = 0, refs_total = 0, total_walks = 0;
        double cov[6] = {0, 0, 0, 0, 0, 0};
        auto accumulate = [&](const Walker &w) {
            walks_total += w.walks.value();
            refs_total += w.refsOkTotal.value();
            for (int i = 0; i < 6; ++i) {
                cov[i] += w.coverage[i].value();
                total_walks += w.coverage[i].value();
            }
        };
        accumulate(*walker_);
        for (const auto &vs : extra_vcpus_)
            accumulate(*vs->walker);
        r.walks = static_cast<std::uint64_t>(walks_total);
        r.rawRefsTotal = refs_total;
        for (int i = 0; i < 6; ++i) {
            r.rawCoverage[i] = cov[i];
            r.coverage[i] = total_walks ? cov[i] / total_walks : 0.0;
        }
        r.avgWalkRefs = total_walks ? refs_total / total_walks : 0.0;
    }
    if (vmm_) {
        for (std::size_t k = 0; k < kNumTrapKinds; ++k)
            r.trapByKind[k] = vmm_->trapCount(static_cast<TrapKind>(k));
    }
    if (range_backend_) {
        r.segmentHits = range_backend_->hitCount();
        r.segmentSpills = range_backend_->spillCount();
        r.segmentInvalidations = range_backend_->invalidationCount();
    }
    r.numVcpus = cfg_.numVcpus;
    r.coherenceCycles = coh_->cycles();
    r.shootdowns = coh_->shootdownCount();
    r.remoteInvalidations = coh_->remoteInvalidationCount();
    for (std::size_t c = 0; c < kNumCoherenceCauses; ++c) {
        r.shootdownsByCause[c] =
            coh_->shootdownsByCause(static_cast<CoherenceCause>(c));
    }
    return r;
}

RunResult
Machine::delta(const RunResult &end, const RunResult &start)
{
    RunResult d = end;
    d.instructions -= start.instructions;
    d.idealCycles -= start.idealCycles;
    d.walkCycles -= start.walkCycles;
    d.trapCycles -= start.trapCycles;
    d.tlbMisses -= start.tlbMisses;
    d.walks -= start.walks;
    d.traps -= start.traps;
    d.guestPageFaults -= start.guestPageFaults;
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        d.trapByKind[k] -= start.trapByKind[k];
    d.coherenceCycles -= start.coherenceCycles;
    d.shootdowns -= start.shootdowns;
    d.remoteInvalidations -= start.remoteInvalidations;
    for (std::size_t c = 0; c < kNumCoherenceCauses; ++c)
        d.shootdownsByCause[c] -= start.shootdownsByCause[c];
    d.segmentHits -= start.segmentHits;
    d.segmentSpills -= start.segmentSpills;
    d.segmentInvalidations -= start.segmentInvalidations;
    double walks = 0;
    for (int i = 0; i < 6; ++i) {
        d.rawCoverage[i] = end.rawCoverage[i] - start.rawCoverage[i];
        walks += d.rawCoverage[i];
    }
    for (int i = 0; i < 6; ++i)
        d.coverage[i] = walks ? d.rawCoverage[i] / walks : 0.0;
    d.rawRefsTotal = end.rawRefsTotal - start.rawRefsTotal;
    d.avgWalkRefs = walks ? d.rawRefsTotal / walks : 0.0;
    return d;
}

ProcId
Machine::runWarmup(Workload &workload)
{
    ProcId pid = spawnProcess();
    run_pid_ = pid;
    workload.init(*this);
    // Fast-forward: populate the working set, then run the first part
    // of the workload (TLB/policy warmup) without measuring, then
    // measure the rest — the standard simulation methodology the
    // paper's real-hardware runs do not need but whole-run simulation
    // does.
    workload.warmup(*this);
    std::uint64_t warm_steps =
        workload.selfWarmup()
            ? 0
            : static_cast<std::uint64_t>(workload.params().operations *
                                         cfg_.warmupFraction);
    std::uint64_t steps = 0;
    bool more = true;
    while (more && steps < warm_steps) {
        more = workload.step(*this);
        ++steps;
    }
    warm_exhausted_ = !more;
    return pid;
}

RunResult
Machine::runMeasured(Workload &workload)
{
    RunResult base = snapshot(workload.name());
    // Measurement boundary: from here on the trace and the counters
    // describe the same set of walks, so summarizing the trace
    // reproduces the RunResult's coverage numbers exactly.
    if (walk_trace_)
        walk_trace_->clear();
    bool more = !warm_exhausted_;
    while (more)
        more = workload.step(*this);
    RunResult result = delta(snapshot(workload.name()), base);
    // The delta above already froze the counters; tear the workload
    // process down in bulk rather than simulating its exit.
    guest_os_->reapProcess(run_pid_);
    return result;
}

RunResult
Machine::run(Workload &workload)
{
    runWarmup(workload);
    return runMeasured(workload);
}

void
Machine::saveState(Serializer &s) const
{
    s.putMarker(0x4843414d); // "MACH"
    rng_.saveState(s);
    internal_rng_.saveState(s);
    s.putU32(current_);
    s.putU32(background_);
    s.putU32(run_pid_);
    s.putBool(warm_exhausted_);
    static_assert(std::is_trivially_copyable_v<LastXlat>,
                  "LastXlat must be raw-serializable");
    s.putRaw(&l0_[0], sizeof(l0_));
    s.putU32(last_translate_faults_);
    s.putU64(instructions_);
    s.putU64(walk_cycles_);
    s.putU64(tlb_misses_);
    s.putU64(next_interval_);
    s.putU64(interval_walk_cycles_);
    s.putU64(interval_trap_cycles_base_);
    for (std::uint64_t c : interval_trap_counts_)
        s.putU64(c);
    s.putU64(interval_gpt_writes_);
    s.putU64(interval_start_ops_);

    mem_.saveState(s);
    tlb_->saveState(s);
    pwc_->saveState(s);
    // Extra vCPU stacks and the schedule position; the config digest
    // pins numVcpus, so reader and writer agree on the count.
    if (!extra_vcpus_.empty()) {
        s.putU32(active_vcpu_);
        s.putU64(vcpu_quantum_left_);
        for (const auto &vs : extra_vcpus_) {
            vs->tlb->saveState(s);
            vs->pwc->saveState(s);
            s.putRaw(&vs->l0[0], sizeof(vs->l0));
        }
    }
    coh_->saveState(s);
    ntlb_->saveState(s);
    s.putBool(vmm_ != nullptr);
    if (vmm_)
        vmm_->saveState(s);
    guest_os_->saveState(s);
    s.putBool(smgr_ != nullptr);
    if (smgr_)
        smgr_->saveState(s);
    s.putBool(shsp_ != nullptr);
    if (shsp_)
        shsp_->saveState(s);
    // Backend-private state (segment-register files). The stateless
    // built-in backends write nothing, preserving the classic layout.
    backend_->saveState(s);
    // Stats last: every component above is pure state, the stats tree
    // carries the accumulated counters of all of them.
    saveStatsTree(s);
    s.putMarker(0x444e4546); // "FEND"
}

bool
Machine::restoreState(Deserializer &d)
{
    d.checkMarker(0x4843414d);
    rng_.restoreState(d);
    internal_rng_.restoreState(d);
    current_ = d.getU32();
    background_ = d.getU32();
    run_pid_ = d.getU32();
    warm_exhausted_ = d.getBool();
    d.getRaw(&l0_[0], sizeof(l0_));
    last_translate_faults_ = d.getU32();
    instructions_ = d.getU64();
    walk_cycles_ = d.getU64();
    tlb_misses_ = d.getU64();
    next_interval_ = d.getU64();
    interval_walk_cycles_ = d.getU64();
    interval_trap_cycles_base_ = d.getU64();
    for (std::uint64_t &c : interval_trap_counts_)
        c = d.getU64();
    interval_gpt_writes_ = d.getU64();
    interval_start_ops_ = d.getU64();
    if (!d.ok())
        return false;

    // A machine that already ran carries guest and shadow page-table
    // trees whose destructors would free frames out of the image about
    // to be restored; abandon them against the old memory before the
    // wipe (no-op on a fresh machine). This is what makes restoring
    // into a *reused* machine — keeping its arena slabs and frame
    // vectors warm — byte-equivalent to restoring into a fresh one.
    guest_os_->abandonForRestore();
    if (smgr_)
        smgr_->abandonForRestore();
    // Host-side priming gate: a fresh machine primes its first batch,
    // so a reused one must too (the flag is host-only and never
    // serialized, but it must not leak across lives).
    prime_next_ = true;

    // Order matters: memory first (page trees materialize), then the
    // structures that hold frame ids into it, then the guest OS (which
    // adopts its page-table roots), then the shadow manager (which
    // resolves guest tables through the restored guest OS).
    mem_.restoreState(d);
    tlb_->restoreState(d);
    pwc_->restoreState(d);
    if (!extra_vcpus_.empty()) {
        unsigned active = d.getU32();
        if (active >= cfg_.numVcpus)
            return false;
        vcpu_quantum_left_ = d.getU64();
        for (auto &vs : extra_vcpus_) {
            vs->tlb->restoreState(d);
            vs->pwc->restoreState(d);
            d.getRaw(&vs->l0[0], sizeof(vs->l0));
        }
        setActiveVcpu(active);
    }
    coh_->restoreState(d);
    ntlb_->restoreState(d);
    if (d.getBool() != (vmm_ != nullptr))
        return false;
    if (vmm_)
        vmm_->restoreState(d);
    guest_os_->restoreState(d);
    if (d.getBool() != (smgr_ != nullptr))
        return false;
    if (smgr_) {
        smgr_->restoreState(d, [this](ProcId pid) -> RadixPageTable * {
            return guest_os_->hasProcess(pid)
                       ? guest_os_->process(pid).pt.get()
                       : nullptr;
        });
    }
    if (d.getBool() != (shsp_ != nullptr))
        return false;
    if (shsp_)
        shsp_->restoreState(d);
    backend_->restoreState(d);
    restoreStatsTree(d);
    d.checkMarker(0x444e4546);
    return d.ok();
}

} // namespace ap
