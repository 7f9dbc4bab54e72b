/**
 * @file
 * Host physical frame allocator implementation.
 */

#include "mem/phys_mem.hh"

#include <algorithm>

#include "base/logging.hh"
#include "mem/frame_alloc.hh"

namespace ap
{

PhysMem::PhysMem(std::uint64_t frames, std::size_t slab_pages)
    : capacity_(frames), arena_(slab_pages)
{
    ap_assert(frames >= 1, "PhysMem needs at least 1 frame");
    // Index 0 is the reserved null frame; usable ids are 1..capacity_.
    frames_.resize(frames + 1);
    tables_.resize(frames + 1, nullptr);
}

FrameId
PhysMem::allocRaw()
{
    if (!free_list_.empty()) {
        FrameId f = free_list_.back();
        free_list_.pop_back();
        ++allocated_;
        return f;
    }
    if (next_fresh_ <= capacity_) {
        ++allocated_;
        return next_fresh_++;
    }
    return kNoFrame;
}

FrameId
PhysMem::allocData(std::uint64_t content_id)
{
    FrameId f = allocRaw();
    if (f == kNoFrame)
        return kNoFrame;
    FrameInfo &fi = frames_[f];
    fi.kind = FrameKind::Data;
    fi.owner = TableOwner::None;
    fi.contentId = content_id;
    return f;
}

FrameId
PhysMem::allocDataContiguous(std::uint64_t n, std::uint64_t content_id)
{
    ap_assert(n >= 1, "allocDataContiguous(0)");
    FrameId first = ((next_fresh_ + n - 1) / n) * n;
    if (first + n - 1 <= capacity_) {
        // Frames skipped to reach alignment stay available for 4K use.
        for (FrameId f = next_fresh_; f < first; ++f)
            free_list_.push_back(f);
        next_fresh_ = first + n;
    } else if (n == 1) {
        return allocData(content_id);
    } else {
        // Fresh region exhausted: recycle an aligned run of freed
        // frames so large-page churn cannot exhaust a mostly-free pool.
        first = claimContiguousRun(free_list_, n);
        if (first == kNoFrame)
            return kNoFrame;
    }
    allocated_ += n;
    for (FrameId f = first; f < first + n; ++f) {
        FrameInfo &fi = frames_[f];
        fi.kind = FrameKind::Data;
        fi.owner = TableOwner::None;
        fi.contentId = content_id;
    }
    return first;
}

FrameId
PhysMem::allocTable(TableOwner owner)
{
    FrameId f = allocRaw();
    if (f == kNoFrame)
        return kNoFrame;
    FrameInfo &fi = frames_[f];
    fi.kind = FrameKind::PageTable;
    fi.owner = owner;
    fi.contentId = 0;
    bool fresh = false;
    PtPage *page = arena_.acquire(fresh);
    if (!fresh)
        page->fill(Pte{});
    tables_[f] = page;
    ++table_counts_[static_cast<std::size_t>(owner)];
    return f;
}

void
PhysMem::free(FrameId frame)
{
    FrameInfo &fi = info(frame);
    ap_assert(fi.kind != FrameKind::Free, "double free of frame ", frame);
    if (fi.kind == FrameKind::PageTable) {
        --table_counts_[static_cast<std::size_t>(fi.owner)];
        // Park the 4 KB PTE array in the arena for the next allocTable
        // instead of returning it to the heap.
        arena_.release(tables_[frame]);
        tables_[frame] = nullptr;
    }
    fi = FrameInfo{};
    --allocated_;
    free_list_.push_back(frame);
}

FrameKind
PhysMem::kind(FrameId frame) const
{
    return info(frame).kind;
}

TableOwner
PhysMem::owner(FrameId frame) const
{
    return info(frame).owner;
}

std::uint64_t
PhysMem::contentId(FrameId frame) const
{
    const FrameInfo &fi = info(frame);
    ap_assert(fi.kind == FrameKind::Data, "contentId of non-data frame");
    return fi.contentId;
}

void
PhysMem::setContentId(FrameId frame, std::uint64_t content_id)
{
    FrameInfo &fi = info(frame);
    ap_assert(fi.kind == FrameKind::Data, "setContentId of non-data frame");
    fi.contentId = content_id;
}

std::uint64_t
PhysMem::tableFrames(TableOwner owner) const
{
    return table_counts_[static_cast<std::size_t>(owner)];
}

void
PhysMem::saveState(Serializer &s) const
{
    s.putMarker(0x4d454d50); // "PMEM"
    s.putU64(capacity_);
    s.putU64(allocated_);
    s.putU64(next_fresh_);
    s.putPodVector(free_list_);
    for (std::uint64_t c : table_counts_)
        s.putU64(c);
    for (FrameId f = 1; f < next_fresh_; ++f) {
        const FrameInfo &fi = frames_[f];
        s.putU8(static_cast<std::uint8_t>(fi.kind));
        s.putU8(static_cast<std::uint8_t>(fi.owner));
        s.putU64(fi.contentId);
        const PtPage *page = tables_[f];
        s.putBool(page != nullptr);
        if (page) {
            static_assert(std::is_trivially_copyable_v<Pte>,
                          "Pte must be raw-serializable");
            s.putRaw(page->data(), sizeof(PtPage));
        }
    }
    arena_.saveState(s);
}

void
PhysMem::restoreState(Deserializer &d)
{
    d.checkMarker(0x4d454d50);
    if (d.getU64() != capacity_) {
        d.fail();
        return;
    }
    allocated_ = d.getU64();
    std::uint64_t prev_fresh = next_fresh_;
    next_fresh_ = d.getU64();
    d.getPodVector(free_list_);
    for (std::uint64_t &c : table_counts_)
        c = d.getU64();
    if (!d.ok() || next_fresh_ > capacity_ + 1) {
        d.fail();
        return;
    }
    // Only frames that were ever handed out (by the prior life of this
    // machine or by the image) can hold state; everything beyond both
    // high-water marks is still default-initialized, so the wipe is
    // O(touched) rather than O(capacity).
    std::uint64_t wipe = std::max(prev_fresh, next_fresh_);
    std::fill(frames_.begin() + 1,
              frames_.begin() + static_cast<std::ptrdiff_t>(wipe),
              FrameInfo{});
    std::fill(tables_.begin() + 1,
              tables_.begin() + static_cast<std::ptrdiff_t>(wipe),
              nullptr);
    // Cursor recycling: all previously live table pages revert to the
    // arena at once; the loop below re-acquires them from the same
    // slabs and overwrites every byte from the image.
    arena_.reset();
    for (FrameId f = 1; f < next_fresh_; ++f) {
        FrameInfo &fi = frames_[f];
        fi.kind = static_cast<FrameKind>(d.getU8());
        fi.owner = static_cast<TableOwner>(d.getU8());
        fi.contentId = d.getU64();
        if (d.getBool()) {
            bool fresh = false;
            PtPage *page = arena_.acquire(fresh);
            d.getRaw(page->data(), sizeof(PtPage));
            tables_[f] = page;
        }
    }
    arena_.restoreState(d);
}

PhysMem::FrameInfo &
PhysMem::info(FrameId frame)
{
    ap_assert(frame > 0 && frame <= capacity_, "bad frame id ", frame);
    return frames_[frame];
}

const PhysMem::FrameInfo &
PhysMem::info(FrameId frame) const
{
    ap_assert(frame > 0 && frame <= capacity_, "bad frame id ", frame);
    return frames_[frame];
}

} // namespace ap
