#pragma once

/**
 * @file
 * InsertBag: an unordered container with thread-local insertion.
 *
 * This is the worklist container behind round-based data-driven
 * algorithms (Algorithm 1 in the paper): each thread appends to its own
 * segment without synchronization, and the filled bag is later iterated
 * in parallel. It also backs the matrix API's "unordered list" sparse
 * vector representation.
 */

#include <cstddef>
#include <span>

#include "check/fuzz.h"
#include "runtime/parallel.h"
#include "runtime/per_thread.h"
#include "support/tracked_vector.h"

namespace gas::rt {

template <typename T>
class InsertBag
{
  public:
    InsertBag() = default;

    /// Append an item to the calling thread's segment. Thread-safe as
    /// long as each thread only touches its own segment.
    void
    push(const T& item)
    {
        // Fuzz point: bag pushes mark "frontier discovered" moments in
        // round-based operators; delaying here reorders discovery
        // relative to neighboring operators' label updates.
        check::fuzz::maybe_yield(check::fuzz::Site::kBagPush);
        segments_.local().push_back(item);
    }

    template <typename... Args>
    void
    emplace(Args&&... args)
    {
        check::fuzz::maybe_yield(check::fuzz::Site::kBagPush);
        segments_.local().emplace_back(std::forward<Args>(args)...);
    }

    /// Total number of items across all segments. Call after the filling
    /// loop has completed.
    std::size_t
    size() const
    {
        std::size_t total = 0;
        for (unsigned tid = 0; tid < segments_.size(); ++tid) {
            total += segments_.at(tid).size();
        }
        return total;
    }

    bool empty() const { return size() == 0; }

    /// Discard all items but keep segment capacity for reuse.
    void
    clear()
    {
        for (unsigned tid = 0; tid < segments_.size(); ++tid) {
            segments_.at(tid).clear();
        }
    }

    /// Apply @p fn to every item sequentially.
    template <typename Fn>
    void
    for_each(Fn&& fn) const
    {
        for (unsigned tid = 0; tid < segments_.size(); ++tid) {
            for (const T& item : segments_.at(tid)) {
                fn(item);
            }
        }
    }

    /// Apply @p fn to every item in parallel.
    template <typename Fn>
    void
    parallel_apply(Fn&& fn, LoopOptions options = {}) const
    {
        parallel_apply_spans(
            [&](std::span<const T> items) {
                for (const T& item : items) {
                    fn(item);
                }
            },
            options);
    }

    /// Apply @p fn to contiguous pieces of the bag in parallel:
    /// fn(std::span<const T>) sees every item exactly once. A piece is
    /// the part of one loop chunk that falls in one thread's segment,
    /// so a caller can run a per-piece prologue (count, then reserve
    /// output space) before visiting the items.
    template <typename Fn>
    void
    parallel_apply_spans(Fn&& fn, LoopOptions options = {}) const
    {
        // Build a prefix-sum index so a single flat do_all covers all
        // segments with balanced chunks.
        const unsigned num_segments = segments_.size();
        std::vector<std::size_t> offsets(num_segments + 1, 0);
        for (unsigned tid = 0; tid < num_segments; ++tid) {
            offsets[tid + 1] = offsets[tid] + segments_.at(tid).size();
        }
        const std::size_t total = offsets[num_segments];
        if (total == 0) {
            return;
        }
        do_all_blocked(
            total,
            [&](Range range) {
                // Locate the segment containing range.begin.
                unsigned seg = 0;
                while (offsets[seg + 1] <= range.begin) {
                    ++seg;
                }
                std::size_t i = range.begin;
                while (i < range.end) {
                    const auto& segment = segments_.at(seg);
                    const std::size_t seg_begin = offsets[seg];
                    const std::size_t stop =
                        std::min(range.end, offsets[seg + 1]);
                    if (i < stop) {
                        fn(std::span<const T>(segment.data() +
                                                  (i - seg_begin),
                                              stop - i));
                        i = stop;
                    }
                    ++seg;
                }
            },
            options);
    }

    /// Copy out all items (test/debug helper).
    std::vector<T>
    to_vector() const
    {
        std::vector<T> out;
        out.reserve(size());
        for_each([&](const T& item) { out.push_back(item); });
        return out;
    }

  private:
    mutable PerThread<TrackedVector<T>> segments_;
};

} // namespace gas::rt
