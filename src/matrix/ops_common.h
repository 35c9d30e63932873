#pragma once

/**
 * @file
 * Shared kernel infrastructure for the grb operations: mask views,
 * atomic semiring accumulation, backend-dependent scheduling, the
 * output-buffer protocol (take / publish, with an optional recycle
 * buffer), and the sparse-accumulator (SPA) workspace pool.
 */

#include <atomic>

#include "matrix/types.h"
#include "matrix/vector.h"
#include "metrics/counters.h"
#include "runtime/insert_bag.h"
#include "runtime/parallel.h"
#include "support/cancel.h"
#include "support/check.h"

namespace gas::grb {

/// Loop options matching the active backend's scheduling model:
/// static one-block-per-thread for Reference (SuiteSparse / OpenMP
/// static style), chunked dynamic for Parallel (Galois style).
inline rt::LoopOptions
backend_schedule()
{
    if (backend() == Backend::kReference) {
        return {rt::Schedule::kStatic, 0};
    }
    return {};
}

/// True when outputs must be kept sorted (the Reference backend always
/// compacts into sorted form, like SuiteSparse).
inline bool
backend_sorts_outputs()
{
    return backend() == Backend::kReference;
}

/**
 * The one true mask-entry truth test (GrB mask semantics).
 *
 * Every mask consumer — MaskView below and the dispatcher's candidate
 * counting — must agree on this predicate, or kernels diverge on
 * structural/complement descriptors. Keep it in one place.
 */
template <typename MT>
inline bool
mask_entry_true(bool present, MT value, bool structural, bool complement)
{
    const bool present_true = present && (structural || value != MT{0});
    return complement ? !present_true : present_true;
}

/**
 * O(1)-testable view of an optional vector mask.
 *
 * Sparse masks are lazily sorted so membership tests can binary-search.
 * A null mask tests true everywhere. With the descriptor's
 * structural_mask hint set, presence alone decides the test and mask
 * values are never read (GrB_STRUCTURE semantics).
 */
template <typename MT>
class MaskView
{
  public:
    MaskView(const Vector<MT>* mask, const Descriptor& desc)
        : mask_(mask), complement_(desc.mask_complement),
          structural_(desc.structural_mask)
    {
        if (mask_ == nullptr ||
            mask_->format() != VectorFormat::kSparse) {
            return;
        }
        // The caller owns the mask, so any normalization works on a
        // private copy. A dense-ish sparse mask (>= 1/32 occupancy,
        // e.g. a traversal's visited set on its way to saturation) is
        // densified so each test is an O(1) bitmap probe instead of a
        // binary search; sparser masks are merely sorted.
        if (mask_->nvals() * 32 >= mask_->size()) {
            copy_ = *mask_;
            copy_->densify();
            mask_ = &*copy_;
        } else if (!mask_->sorted()) {
            copy_ = *mask_;
            copy_->sort_entries();
            mask_ = &*copy_;
        }
    }

    bool
    test(Index i) const
    {
        if (mask_ == nullptr) {
            return true;
        }
        if (mask_->format() == VectorFormat::kDense) {
            return mask_entry_true(mask_->dense_presence()[i] != 0,
                                   mask_->dense_values()[i],
                                   structural_, complement_);
        }
        const auto& idx = mask_->sparse_indices();
        const auto it = std::lower_bound(idx.begin(), idx.end(), i);
        const bool present = it != idx.end() && *it == i;
        return mask_entry_true(
            present,
            present ? mask_->sparse_values()[static_cast<std::size_t>(
                          it - idx.begin())]
                    : MT{0},
            structural_, complement_);
    }

    /**
     * Call fn(j, test(j)) for every j in [lo, hi), in column order; the
     * view must hold a mask. A dense mask is probed per column; a
     * sparse one is walked alongside the columns (one binary search per
     * call), so the range costs O(hi - lo) plus its mask entries, never
     * a search per column.
     */
    template <typename Fn>
    void
    scan(Index lo, Index hi, Fn&& fn) const
    {
        // Locals, not members: fn's byte stores could alias them, which
        // would reload every one of them per column.
        const bool structural = structural_;
        const bool complement = complement_;
        if (mask_->format() == VectorFormat::kDense) {
            const uint8_t* const present = mask_->dense_presence().data();
            const MT* const values = mask_->dense_values().data();
            for (Index j = lo; j < hi; ++j) {
                fn(j, mask_entry_true(present[j] != 0, values[j],
                                      structural, complement));
            }
        } else {
            const auto& idx = mask_->sparse_indices();
            const Index* const first = idx.data();
            const Index* const last = first + idx.size();
            const MT* const values = mask_->sparse_values().data();
            const Index* at = std::lower_bound(first, last, lo);
            for (Index j = lo; j < hi; ++j) {
                const bool present = at != last && *at == j;
                fn(j, mask_entry_true(present,
                                      present ? values[at - first] : MT{0},
                                      structural, complement));
                at += present ? 1 : 0;
            }
        }
    }

  private:
    const Vector<MT>* mask_;
    bool complement_;
    bool structural_;
    std::optional<Vector<MT>> copy_;
};

/// Default per-entry sink of the SpMV kernels (ops_spmv.h) and the
/// element-wise kernels (ops_vector.h): does nothing, so a plain
/// operation compiles to the sink-free loop.
struct NoSink
{
    template <typename T>
    void
    operator()(Index, T&) const noexcept
    {
    }
};

namespace detail {

/// A kernel's output shell: a fresh vector, or @p recycle's storage
/// (capacity kept) when the caller donates it.
template <typename T>
Vector<T>
take_output(Index size, Vector<T>* recycle)
{
    Vector<T> result(size);
    if (recycle != nullptr) {
        result = std::move(*recycle);
        result.clear_keep_capacity(size);
    }
    return result;
}

/// A dense output shell with no entry present. A fresh one is
/// densified (its bytes charged on allocation); a recycled one is
/// refilled by assign, so its capacity is reused.
template <typename T>
Vector<T>
take_dense_output(Index size, Vector<T>* recycle)
{
    Vector<T> result = take_output(size, recycle);
    if (recycle != nullptr) {
        result.dense_values().assign(size, T{});
        result.dense_presence().assign(size, uint8_t{0});
        result.set_format(VectorFormat::kDense);
    } else {
        result.densify();
    }
    return result;
}

/// Bill @p result's storage growth and move it into @p w, handing w's
/// old storage back to @p recycle. Runs after the last read of the
/// operands, which round-based callers may alias with w. The capacity
/// watermark never bills the same bytes twice.
template <typename T>
void
publish_output(Vector<T>& w, Vector<T>& result, Vector<T>* recycle)
{
    result.charge_materialized();
    if (recycle != nullptr) {
        *recycle = std::move(w);
    }
    w = std::move(result);
}

/// Sparse output built from a bag of emitted (index, value) pairs:
/// copy them into w (unsorted; the Reference backend sorts them).
template <typename T>
void
publish_sparse_output(Vector<T>& w, Index size,
                      const rt::InsertBag<std::pair<Index, T>>& output,
                      Vector<T>* recycle = nullptr)
{
    Vector<T> result = take_output(size, recycle);
    auto& oidx = result.sparse_indices();
    auto& ovals = result.sparse_values();
    oidx.reserve(output.size());
    ovals.reserve(output.size());
    output.for_each([&](const std::pair<Index, T>& entry) {
        oidx.push_back(entry.first);
        ovals.push_back(entry.second);
    });
    result.set_format(VectorFormat::kSparse);
    result.set_sorted(false);
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    publish_output(w, result, recycle);
}

} // namespace detail

/// Atomically fold @p value into @p slot with the semiring add.
template <typename T, typename AddFn>
inline void
atomic_accum(T& slot, T value, AddFn&& add)
{
    std::atomic_ref<T> ref(slot);
    T current = ref.load(std::memory_order_relaxed);
    while (true) {
        const T next = add(current, value);
        if (next == current) {
            return;
        }
        if (ref.compare_exchange_weak(current, next,
                                      std::memory_order_relaxed)) {
            return;
        }
    }
}

/// SPA occupancy flag of a slot the scatter has claimed (see
/// SpaWorkspace).
inline constexpr uint8_t kClaimed = 1;
/// SPA occupancy flag of a slot the mask rejects, set before the
/// scatter (see SpaWorkspace).
inline constexpr uint8_t kMaskedOut = 2;

/// Atomic claim of an SPA slot; returns true for the first claimant.
/// A slot already claimed or kMaskedOut is never claimed.
inline bool
atomic_claim(uint8_t& flag)
{
    std::atomic_ref<uint8_t> ref(flag);
    if (ref.load(std::memory_order_relaxed) != 0) {
        return false;
    }
    return ref.exchange(kClaimed, std::memory_order_relaxed) == 0;
}

/**
 * Sparse accumulator workspace: a value array held at the semiring
 * identity plus occupancy flags, sized to the largest vector seen.
 *
 * One workspace is cached per (scalar type, semiring) template
 * instantiation. Each occupancy flag is in one of three states:
 *
 *  - 0, free: the value holds the identity.
 *  - kClaimed: a scatter wrote the slot (atomic_claim).
 *  - kMaskedOut: a masked vxm marked the column as rejected before its
 *    scatter; for a semiring with an absorbing element the value holds
 *    absorbing(), so vxm's scatter ends every edge into it at its first
 *    load, and atomic_claim never claims the slot.
 *
 * During a scatter a value of absorbing() is therefore final: the slot
 * is kMaskedOut, or the scatter that stored absorbing() claims it
 * itself, so vxm skips edges into such slots without claiming.
 *
 * Outside an operation every value holds the identity and every flag
 * is free; the operation that dirtied slots restores them in the same
 * pass that reads them out (vxm's compaction), so no operation pays an
 * extra O(dimension) reset.
 */
template <typename T, typename Semiring>
class SpaWorkspace
{
  public:
    static SpaWorkspace&
    get(Index size)
    {
        static SpaWorkspace workspace;
        workspace.ensure(size);
        return workspace;
    }

    T* values() { return values_.data(); }
    uint8_t* occupied() { return occupied_.data(); }

  private:
    void
    ensure(Index size)
    {
        if (values_.size() < size) {
            values_.assign(size, Semiring::identity());
            occupied_.assign(size, uint8_t{0});
            metrics::charge_materialized(
                static_cast<uint64_t>(size) * (sizeof(T) + 1));
        }
    }

    TrackedVector<T> values_;
    TrackedVector<uint8_t> occupied_;
};

} // namespace gas::grb
