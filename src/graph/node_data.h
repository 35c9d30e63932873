#pragma once

/**
 * @file
 * Checked accessor wrappers for per-node and per-edge label arrays.
 *
 * Lonestar-style operators keep their mutable state (bfs levels, sssp
 * distances, component labels, ktruss edge-alive flags) in flat arrays
 * indexed by node or edge id. NodeData<T> wraps such an array and
 * routes every access through the GAS_CHECK shadow-memory detector
 * (check/shadow.h), classifying it as plain or atomic:
 *
 *  - at()/mut()/get()/set() are *plain* accesses: correct only while no
 *    other thread can touch the same element in the same parallel
 *    region (owner-computes loops, sequential phases);
 *  - load()/store()/compare_exchange*() are *atomic* accesses, the
 *    std::atomic_ref idiom of the asynchronous operators; they never
 *    conflict with each other, only with plain accesses;
 *  - view() returns a copyable handle with the same checked atomic
 *    load()/compare_exchange(), for hot loops that keep it in a local.
 *
 * In unchecked builds ShadowArray::record() is an empty inline
 * function, so each accessor compiles down to the bare array access
 * (or the identical atomic_ref operation the kernels used before) —
 * zero instrumentation overhead, no shadow allocation.
 *
 * EdgeData is an alias: the wrapper is index-based and works the same
 * for edge-indexed arrays.
 */

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "check/shadow.h"

namespace gas::graph {

template <typename T>
class NodeData
{
  public:
    NodeData() = default;

    /// Value-initialized array of @p size elements.
    explicit NodeData(std::size_t size, const char* name = "labels")
        : data_(size), shadow_(size, name)
    {
    }

    /// Array of @p size copies of @p init.
    NodeData(std::size_t size, const T& init, const char* name = "labels")
        : data_(size, init), shadow_(size, name)
    {
    }

    std::size_t size() const { return data_.size(); }

    /// Plain read, by reference (no copy of large element types).
    const T&
    at(std::size_t i) const
    {
        shadow_.record(i, check::Access::kRead);
        return data_[i];
    }

    /// Plain write access, by reference: recorded as a write, so reads
    /// through the returned reference are covered conservatively.
    T&
    mut(std::size_t i)
    {
        shadow_.record(i, check::Access::kWrite);
        return data_[i];
    }

    /// Plain read, by value.
    T
    get(std::size_t i) const
    {
        shadow_.record(i, check::Access::kRead);
        return data_[i];
    }

    /// Plain write.
    void
    set(std::size_t i, const T& value)
    {
        shadow_.record(i, check::Access::kWrite);
        data_[i] = value;
    }

    /// Atomic load.
    T
    load(std::size_t i,
         std::memory_order order = std::memory_order_relaxed) const
    {
        shadow_.record(i, check::Access::kAtomicRead);
        return std::atomic_ref<T>(data_[i]).load(order);
    }

    /// Atomic store.
    void
    store(std::size_t i, const T& value,
          std::memory_order order = std::memory_order_relaxed)
    {
        shadow_.record(i, check::Access::kAtomicWrite);
        std::atomic_ref<T>(data_[i]).store(value, order);
    }

    /// Atomic compare-exchange (strong).
    bool
    compare_exchange(std::size_t i, T& expected, const T& desired,
                     std::memory_order order = std::memory_order_relaxed)
    {
        shadow_.record(i, check::Access::kAtomicRmw);
        return std::atomic_ref<T>(data_[i]).compare_exchange_strong(
            expected, desired, order,
            std::memory_order_relaxed);
    }

    /// Atomic compare-exchange (weak, for retry loops).
    bool
    compare_exchange_weak(
        std::size_t i, T& expected, const T& desired,
        std::memory_order order = std::memory_order_relaxed)
    {
        shadow_.record(i, check::Access::kAtomicRmw);
        return std::atomic_ref<T>(data_[i]).compare_exchange_weak(
            expected, desired, order,
            std::memory_order_relaxed);
    }

    /**
     * Copyable handle with the atomic accessors, for hot loops that
     * copy what they read into locals (see view()). Same recording as
     * load()/compare_exchange() on the wrapper.
     */
    class View
    {
      public:
        /// Atomic load.
        T
        load(std::size_t i,
             std::memory_order order = std::memory_order_relaxed) const
        {
            shadow_->record(i, check::Access::kAtomicRead);
            return std::atomic_ref<T>(data_[i]).load(order);
        }

        /// Atomic compare-exchange (strong).
        bool
        compare_exchange(
            std::size_t i, T& expected, const T& desired,
            std::memory_order order = std::memory_order_relaxed) const
        {
            shadow_->record(i, check::Access::kAtomicRmw);
            return std::atomic_ref<T>(data_[i]).compare_exchange_strong(
                expected, desired, order, std::memory_order_relaxed);
        }

      private:
        friend class NodeData;

        View(T* data, const check::ShadowArray* shadow)
            : data_(data), shadow_(shadow)
        {
        }

        T* data_;
        // Never dereferenced in unchecked builds (record() is empty),
        // so the optimizer drops it there.
        const check::ShadowArray* shadow_;
    };

    /// Atomic-access handle for a hot loop. A loop that calls load()
    /// through a by-reference capture of the wrapper reloads its data
    /// pointer after every store that may alias it (a bag push, a
    /// counter bump); a local copy of the view lets it stay in a
    /// register. Valid until the wrapper is destroyed, moved from or
    /// emptied by take().
    View view() { return View(data_.data(), &shadow_); }

    /// Unchecked view for sequential post-processing (result copies,
    /// verification) outside any parallel region.
    const std::vector<T>& vec() const { return data_; }

    /// Move the underlying array out (result hand-off; the wrapper is
    /// empty afterwards).
    std::vector<T>
    take()
    {
        return std::move(data_);
    }

  private:
    // mutable: atomic_ref requires a non-const lvalue even for loads,
    // and logically-const readers (load/at/get on a const NodeData)
    // must still be recordable.
    mutable std::vector<T> data_;
    // no_unique_address: the unchecked ShadowArray is an empty class,
    // so release builds don't even pay its padding byte.
    [[no_unique_address]] check::ShadowArray shadow_;
};

/// Edge-indexed checked array (same wrapper, clearer intent at use
/// sites like ktruss's per-edge alive flags).
template <typename T>
using EdgeData = NodeData<T>;

} // namespace gas::graph
