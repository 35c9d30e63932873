#pragma once

/**
 * @file
 * Ordered-by-integer-metric (OBIM) executor: asynchronous for_each with
 * soft priorities.
 *
 * Work items carry an integer priority (e.g. the delta-stepping bucket
 * index distance/Δ). Threads preferentially drain the globally lowest
 * non-empty priority bin but may run slightly ahead — priorities are a
 * scheduling hint, not a barrier, which is exactly the "soft priority"
 * semantics the paper attributes to Galois worklists. Unlike the
 * bulk-synchronous delta-stepping of LAGraph, there is no round
 * boundary: an item relaxed in bucket b can immediately enable work in
 * bucket b that other threads pick up.
 *
 * The implementation keeps a fixed array of lazily allocated bins
 * behind atomic pointers, so the hot push path is one atomic pointer
 * load plus one short bin-mutex critical section.
 */

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "check/fuzz.h"
#include "metrics/counters.h"
#include "runtime/backoff.h"
#include "runtime/thread_pool.h"
#include "support/cancel.h"
#include "support/check.h"
#include "support/faults.h"
#include "support/thread_annotations.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace gas::rt {

namespace detail {

/// One priority bin: a mutex-protected FIFO of items. FIFO order
/// within a bucket gives the breadth-first-like processing order
/// delta-stepping relies on for work efficiency.
template <typename T>
class PriorityBin
{
  public:
    /// Drained prefix length above which pop_batch compacts the vector.
    static constexpr std::size_t kCompactMin = 64;

    /// Returns true when the bin went empty -> non-empty (the caller
    /// maintains the kObimBinsLive gauge from these edge reports, which
    /// are exact because both transitions happen under the bin mutex).
    bool
    push(const T& item) GAS_EXCLUDES(lock_)
    {
        gas::LockGuard guard(lock_);
        const bool was_empty = head_ == items_.size();
        items_.push_back(item);
        size_hint_.store(items_.size() - head_,
                         std::memory_order_relaxed);
        return was_empty;
    }

    /// Pop up to @p max items into @p out. Returns the number popped;
    /// sets @p became_empty when this call drained the bin's last item.
    std::size_t
    pop_batch(std::vector<T>& out, std::size_t max, bool& became_empty)
        GAS_EXCLUDES(lock_)
    {
        gas::LockGuard guard(lock_);
        std::size_t taken = 0;
        while (taken < max && head_ < items_.size()) {
            out.push_back(items_[head_]);
            ++head_;
            ++taken;
        }
        became_empty = taken != 0 && head_ == items_.size();
        if (head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (head_ >= kCompactMin && head_ >= items_.size() - head_) {
            // A bin fed faster than it drains never hits the
            // fully-drained branch above, so the processed prefix would
            // otherwise grow without bound. Erasing once the prefix is
            // at least as long as the live suffix keeps storage within
            // 2x the live item count at amortized O(1) per item.
            metrics::bump(metrics::kObimCompactions);
            items_.erase(items_.begin(),
                         items_.begin() +
                             static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        size_hint_.store(items_.size() - head_,
                         std::memory_order_relaxed);
        return taken;
    }

    /// Lock-free emptiness hint (may be momentarily stale).
    bool
    looks_empty() const
    {
        // relaxed: purely an optimization to skip the bin mutex. A
        // stale zero makes the scan miss this bin once (pending_ keeps
        // the executor alive to rescan); a stale nonzero costs one
        // mutex acquisition. The hint is always written under lock_,
        // so it can never stay stale past the next push/pop.
        return size_hint_.load(std::memory_order_relaxed) == 0;
    }

    /// Total buffered slots including the drained prefix (tests use
    /// this to assert that bin memory stays bounded).
    std::size_t
    storage_size() const GAS_EXCLUDES(lock_)
    {
        gas::LockGuard guard(lock_);
        return items_.size();
    }

  private:
    mutable gas::Mutex lock_;
    std::vector<T> items_ GAS_GUARDED_BY(lock_);
    std::size_t head_ GAS_GUARDED_BY(lock_) = 0;
    /// Lock-free mirror of items_.size() - head_, written only under
    /// lock_ but read without it (looks_empty); atomic, not guarded.
    std::atomic<std::size_t> size_hint_{0};
};

} // namespace detail

/**
 * Priority-aware worklist shared by all threads of one execution.
 * Priorities above kMaxPriorities-1 are clamped into the last bin
 * (they still execute, just without further ordering).
 */
template <typename T>
class ObimWorklist
{
  public:
    static constexpr std::size_t kMaxPriorities = 4096;

    ObimWorklist() : slots_(kMaxPriorities)
    {
        for (auto& slot : slots_) {
            slot.store(nullptr, std::memory_order_relaxed);
        }
        // Bin 0 is the degradation target when a lazy bin allocation
        // fails mid-run (push() routes the item there, FIFO, losing
        // only the ordering hint). Allocating it up front — while the
        // worklist ctor can still propagate bad_alloc cleanly — means
        // the fallback path itself can never fail.
        slots_[0].store(new detail::PriorityBin<T>(),
                        std::memory_order_relaxed);
    }

    ~ObimWorklist()
    {
        for (auto& slot : slots_) {
            delete slot.load(std::memory_order_relaxed);
        }
    }

    ObimWorklist(const ObimWorklist&) = delete;
    ObimWorklist& operator=(const ObimWorklist&) = delete;

    /// Insert an item with @p priority (lower runs sooner).
    void
    push(const T& item, std::size_t priority)
    {
        if (priority >= kMaxPriorities) {
            priority = kMaxPriorities - 1;
        }
        // Fuzz point: delay between the operator's data writes and the
        // item becoming visible in its priority bin.
        check::fuzz::maybe_yield(check::fuzz::Site::kObimPush);
        // relaxed: the count only gates termination, which re-checks it
        // with an acquire load after an empty scan; the increment must
        // simply be visible before the matching finish_item decrement,
        // which fetch_add's atomicity guarantees on its own.
        pending_.fetch_add(1, std::memory_order_relaxed);
        // bin() may degrade to bin 0 under allocation failure; the
        // watermarks below must track where the item actually landed or
        // a scan starting past bin 0 would never find it.
        priority = place(priority, item);
        metrics::bump(metrics::kPushes);

        // Watermark maintenance: lower the scan cursor, raise the upper
        // bound. Both are scan hints. Safety comes from pending_: no
        // item is lost and the executor stops only once it reaches 0.
        // Liveness needs more, because the cursor can pass a live item:
        // a scan passes an empty bin q, this push lands in q without
        // lowering a cursor that is <= q, and the scan then pops a bin
        // p > q and raises the cursor to p. pop_batch therefore starts
        // every scan after an empty one at bin 0, so a live item below
        // the cursor is found by the next idle scan.
        std::size_t cursor = cursor_.load(std::memory_order_relaxed);
        while (priority < cursor &&
               !cursor_.compare_exchange_weak(cursor, priority,
                                              std::memory_order_relaxed)) {
        }
        std::size_t top = top_.load(std::memory_order_relaxed);
        while (priority >= top &&
               !top_.compare_exchange_weak(top, priority + 1,
                                           std::memory_order_relaxed)) {
        }
    }

    /// Fetch a batch of items near the current lowest priority.
    /// Returns false when the whole worklist is quiescent.
    bool
    pop_batch(std::vector<T>& out, std::size_t max)
    {
        Backoff backoff;
        // Start timestamp of the current idle episode (0 = not idle);
        // feeds the tracer's scheduler-stall attribution, mirroring the
        // idle-episode tracking in for_each.
        uint64_t idle_since_ns = 0;
        // Set after an empty scan: the cursor may have been raised past
        // a live item (see push), so the retry scans from bin 0.
        bool rescan_from_zero = false;
        while (true) {
            // Cancellation / abort point: once per scan, so a tripped
            // token stops the executor within one batch.
            if (abort_.load(std::memory_order_acquire) ||
                cancel_requested()) {
                if (idle_since_ns != 0) {
                    trace::stall(idle_since_ns,
                                 trace::StallKind::kObimPop);
                }
                return false;
            }
            faults::maybe_delay();
            // Fuzz point: perturb which bin a scan reaches first.
            check::fuzz::maybe_yield(check::fuzz::Site::kObimPop);
            // relaxed: both watermarks are scan hints. A too-high
            // cursor or too-low top can only make this scan miss a bin;
            // the empty-scan path re-checks pending_ (acquire) and
            // retries from bin 0, so no item is stranded by a stale
            // hint.
            const std::size_t start = rescan_from_zero
                ? 0
                : cursor_.load(std::memory_order_relaxed);
            const std::size_t limit = top_.load(std::memory_order_relaxed);
            for (std::size_t p = start; p < limit; ++p) {
                // acquire: pairs with the release in bin()'s CAS so the
                // bin's members are fully constructed before first use.
                detail::PriorityBin<T>* bin_ptr =
                    slots_[p].load(std::memory_order_acquire);
                if (bin_ptr == nullptr || bin_ptr->looks_empty()) {
                    continue;
                }
                if (check::fuzz::force_steal_fail()) {
                    // Fuzzed scan miss: pretend the bin was empty and
                    // move on, exercising the retry/termination path.
                    metrics::bump(metrics::kStealFails);
                    continue;
                }
                bool became_empty = false;
                const std::size_t got =
                    bin_ptr->pop_batch(out, max, became_empty);
                if (got != 0) {
                    if (became_empty) {
                        metrics::gauge_add(metrics::kObimBinsLive, -1);
                    }
                    if (idle_since_ns != 0) {
                        trace::stall(idle_since_ns,
                                     trace::StallKind::kObimPop);
                    }
                    metrics::bump(metrics::kSteals, got);
                    // Fuzz point: widen the window in which a push
                    // into a bin below p can land before the cursor
                    // moves past it.
                    check::fuzz::maybe_yield(
                        check::fuzz::Site::kObimCursor);
                    // Advance the cursor hint past drained bins.
                    std::size_t cursor =
                        cursor_.load(std::memory_order_relaxed);
                    while (cursor < p &&
                           !cursor_.compare_exchange_weak(
                               cursor, p, std::memory_order_relaxed)) {
                    }
                    return true;
                }
                metrics::bump(metrics::kStealFails);
            }
            // Empty scan: back off exponentially before touching the
            // shared pending counter again (same policy as for_each).
            if (idle_since_ns == 0 && trace::enabled()) {
                idle_since_ns = now_ns();
            }
            metrics::bump(metrics::kBackoffs);
            backoff.wait();
            rescan_from_zero = true;
            // acquire: pairs with finish_item's release half, so a
            // thread observing pending == 0 also observes every side
            // effect of the operators whose completion drove it to 0 —
            // the invariant callers rely on after pop_batch returns
            // false ("the worklist is quiescent and results are
            // visible").
            if (pending_.load(std::memory_order_acquire) == 0) {
                if (idle_since_ns != 0) {
                    trace::stall(idle_since_ns,
                                 trace::StallKind::kObimPop);
                }
                return false;
            }
        }
    }

    /// Mark one previously popped item as fully processed.
    void
    finish_item()
    {
        // acq_rel: the release half publishes the finished operator's
        // side effects to whichever thread reads pending == 0 and
        // terminates; the acquire half orders this decrement after the
        // operator body so it cannot be hoisted above a still-pending
        // push (which would briefly show pending == 0 mid-operator).
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }

    std::size_t
    pending() const
    {
        return pending_.load(std::memory_order_relaxed);
    }

    /// Make every pop_batch return false at its next scan. Used by the
    /// executor when an operator throws, so sibling workers drain
    /// instead of waiting on a pending count that cannot balance.
    void
    request_abort()
    {
        abort_.store(true, std::memory_order_release);
    }

    bool
    aborted() const
    {
        return abort_.load(std::memory_order_relaxed);
    }

  private:
    /// Insert @p item into its priority's bin, degrading to bin 0 when
    /// the bin cannot be allocated. Returns the priority of the bin the
    /// item actually landed in (for watermark maintenance).
    std::size_t
    place(std::size_t priority, const T& item)
    {
        detail::PriorityBin<T>* target = bin(priority);
        if (target == nullptr) {
            // Graceful degradation: the ordering hint is lost but the
            // item still executes, FIFO through the pre-allocated bin 0.
            metrics::bump(metrics::kDegradedFallbacks);
            trace::instant(trace::Category::kRuntime, "degrade:obim",
                           priority);
            priority = 0;
            target = slots_[0].load(std::memory_order_relaxed);
        }
        if (target->push(item)) {
            metrics::gauge_add(metrics::kObimBinsLive, 1);
        }
        return priority;
    }

    /// The bin for @p priority, lazily allocated; nullptr when the
    /// allocation failed (real or fault-injected).
    detail::PriorityBin<T>*
    bin(std::size_t priority)
    {
        // acquire: pairs with the release half of the publishing CAS
        // below — a thread that sees a non-null pointer also sees the
        // bin's constructed members (mutex, vector header).
        detail::PriorityBin<T>* existing =
            slots_[priority].load(std::memory_order_acquire);
        if (existing != nullptr) {
            return existing;
        }
        std::unique_ptr<detail::PriorityBin<T>> created;
        try {
            faults::try_alloc("obim.bin");
            created = std::make_unique<detail::PriorityBin<T>>();
        } catch (const std::bad_alloc&) {
            return nullptr;
        }
        detail::PriorityBin<T>* expected = nullptr;
        // acq_rel: release publishes the freshly constructed bin;
        // acquire covers the failure path, where `expected` becomes the
        // winner's pointer and is dereferenced by the caller.
        if (slots_[priority].compare_exchange_strong(
                expected, created.get(), std::memory_order_acq_rel)) {
            return created.release();
        }
        return expected; // another thread won the race
    }

    std::vector<std::atomic<detail::PriorityBin<T>*>> slots_;
    std::atomic<std::size_t> cursor_{0};
    std::atomic<std::size_t> top_{0};
    std::atomic<std::size_t> pending_{0};
    std::atomic<bool> abort_{false};
};

/**
 * Context handed to an ordered operator for pushing prioritized work.
 */
template <typename T>
class OrderedContext
{
  public:
    explicit OrderedContext(ObimWorklist<T>& worklist) : worklist_(worklist)
    {
    }

    void
    push(const T& item, std::size_t priority)
    {
        worklist_.push(item, priority);
    }

  private:
    ObimWorklist<T>& worklist_;
};

/**
 * Process @p initial and all pushed items, scheduling by priority.
 *
 * @param initial  container of T items.
 * @param pri      priority function for the initial items:
 *                 size_t pri(const T&). Operators pass explicit
 *                 priorities when pushing.
 * @param fn       operator: fn(const T& item, OrderedContext<T>& ctx).
 */
template <typename T, typename Container, typename PriFn, typename Fn>
void
for_each_ordered(const Container& initial, PriFn&& pri, Fn&& fn,
                 std::size_t batch_size = 16)
{
    trace::Span region(trace::Category::kRuntime, "for_each_ordered");

    ObimWorklist<T> worklist;
    for (const T& item : initial) {
        worklist.push(item, pri(item));
    }
    if (worklist.pending() == 0) {
        return;
    }

    if (cancel_requested()) {
        return; // Tripped before the region started: nothing to unwind.
    }

    ThreadPool::get().run([&](unsigned tid, unsigned) {
        trace::Span worker(trace::Category::kWorker, "for_each_ordered",
                           tid);
        OrderedContext<T> ctx(worklist);
        std::vector<T> batch;
        batch.reserve(batch_size);
        while (worklist.pop_batch(batch, batch_size)) {
            for (const T& item : batch) {
                try {
                    fn(item, ctx);
                } catch (...) {
                    worklist.request_abort();
                    throw; // ThreadPool::run captures and rethrows.
                }
                worklist.finish_item();
            }
            batch.clear();
        }
    });

    // A cancelled region legitimately leaves unclaimed items behind;
    // the invariant only holds for runs that drained to completion.
    GAS_CHECK(worklist.pending() == 0 || worklist.aborted() ||
                  cancel_requested(),
              "for_each_ordered terminated with pending work");
}

} // namespace gas::rt
