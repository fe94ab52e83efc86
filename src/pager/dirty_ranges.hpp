/**
 * @file
 * Per-page dirty byte-range tracking for differential logging.
 *
 * The paper's byte-granularity differential logging (section 3.2)
 * "truncates the preceding and trailing clean regions" of a dirty
 * B-tree page and logs only the dirty portions. We track a small set
 * of disjoint [lo, hi) ranges per cached page: B-tree mutations mark
 * the bytes they touch, and at commit each range becomes one NVWAL
 * frame. Nearby ranges are merged (logging a few clean gap bytes is
 * cheaper than another 32-byte frame header), and the range count is
 * capped so tracking stays O(1) per page.
 *
 * A set can be attached to a DirtyList: it is then on that intrusive
 * list exactly while it is non-empty, so the owner (the pager) finds
 * its dirty pages in O(dirty) instead of walking its whole cache.
 */

#ifndef NVWAL_PAGER_DIRTY_RANGES_HPP
#define NVWAL_PAGER_DIRTY_RANGES_HPP

#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace nvwal
{

class DirtyRanges;

/** Head of an intrusive list of attached, non-empty DirtyRanges. */
struct DirtyList
{
    DirtyRanges *head = nullptr;
};

/** Sorted, disjoint dirty byte ranges within one page. */
class DirtyRanges
{
  public:
    /**
     * @param merge_gap Adjacent ranges closer than this are merged.
     * @param max_ranges Hard cap; the closest pair is merged when a
     *        mark would exceed it.
     */
    explicit DirtyRanges(std::uint32_t merge_gap = 32,
                         std::uint32_t max_ranges = 8)
        : _mergeGap(merge_gap), _maxRanges(max_ranges)
    {}

    // Copies and moves carry the ranges only: a set copied out of a
    // page (a queued commit frame) never joins the page's list, and
    // an attached target keeps its own attachment.
    DirtyRanges(const DirtyRanges &other)
        : _mergeGap(other._mergeGap), _maxRanges(other._maxRanges),
          _ranges(other._ranges)
    {}
    DirtyRanges(DirtyRanges &&other) noexcept
        : _mergeGap(other._mergeGap), _maxRanges(other._maxRanges),
          _ranges(std::move(other._ranges))
    { other.clear(); }
    DirtyRanges &operator=(const DirtyRanges &other);
    ~DirtyRanges() { unlink(); }

    /**
     * Join @p list under @p tag (the owner's key, e.g. a page
     * number); call once, while the set is empty. From here on the
     * set sits on the list iff it is non-empty: the first mark()
     * links it, clear() and destruction unlink it.
     */
    void attach(DirtyList *list, std::uint32_t tag);

    std::uint32_t tag() const { return _tag; }

    /** Next set on the same DirtyList (nullptr at the tail). */
    DirtyRanges *nextDirty() const { return _next; }

    /** Mark [lo, hi) dirty. */
    void mark(std::uint32_t lo, std::uint32_t hi);

    /** True if no byte is dirty. */
    bool empty() const { return _ranges.empty(); }

    /** Sorted disjoint ranges. */
    const std::vector<ByteRange> &ranges() const { return _ranges; }

    /** Sum of range sizes. */
    std::uint32_t totalBytes() const;

    /** Smallest single range covering everything (empty if clean). */
    ByteRange bounding() const;

    void
    clear()
    {
        _ranges.clear();
        unlink();
    }

  private:
    void enforceCap();
    void link();
    void unlink();

    std::uint32_t _mergeGap;
    std::uint32_t _maxRanges;
    std::vector<ByteRange> _ranges;

    DirtyList *_list = nullptr;
    DirtyRanges *_prev = nullptr;
    DirtyRanges *_next = nullptr;
    std::uint32_t _tag = 0;
    bool _linked = false;
};

} // namespace nvwal

#endif // NVWAL_PAGER_DIRTY_RANGES_HPP
