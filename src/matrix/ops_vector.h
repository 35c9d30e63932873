#pragma once

/**
 * @file
 * Vector-level GraphBLAS-style operations: assign, apply, element-wise
 * add/multiply, reduce, gather/scatter (GrB_extract/GrB_assign with an
 * index vector), select, and comparison.
 *
 * Every operation makes one full pass over its operand structures — the
 * paper's "lightweight loop" critique — and bumps kPasses accordingly
 * so Table IV/V can count passes per system.
 *
 * The element-wise kernels take the SpMV kernels' trailing parameters
 * (ops_spmv.h), which is how the lazy planner (matrix/lazy.h) fuses a
 * downstream masked assign into them: sink(i, value) runs on every
 * produced entry before it is stored (possibly on worker threads, at
 * most once per index; NoSink compiles away), and ewise_mult's recycle
 * buffer donates its storage to the output. ewise_mult_select is the
 * one fused element-wise kernel: eWiseMult -> select with the product
 * vector never materialized.
 */

#include <type_traits>

#include "matrix/ops_common.h"
#include "runtime/reducers.h"
#include "trace/trace.h"

namespace gas::grb {

namespace detail {

/// Bill @p n entry-wise read-modify-writes (apply-style ops), once per
/// block.
inline void
bump_read_write_work(uint64_t n)
{
    metrics::bump(metrics::kLabelReads, n);
    metrics::bump(metrics::kLabelWrites, n);
    metrics::bump(metrics::kWorkItems, n);
}

} // namespace detail

/**
 * w<mask> = value for all positions allowed by the mask
 * (GrB_assign with GrB_ALL). Without a mask, w becomes fully dense.
 * With a mask, w is densified and masked positions are overwritten;
 * with desc.replace set, positions the mask does NOT admit lose their
 * entries (GrB_REPLACE), exactly as the fused assign kernels do.
 */
template <typename T, typename MT = uint8_t>
void
assign_scalar(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
              T value)
{
    trace::Span span(trace::Category::kGrb, "assign_scalar", w.size());
    metrics::bump(metrics::kPasses);
    if (mask == nullptr) {
        w.fill(value);
        metrics::bump(metrics::kLabelWrites, w.size());
        metrics::bump(metrics::kWorkItems, w.size());
        return;
    }
    w.densify();
    auto& vals = w.dense_values();
    auto& present = w.dense_presence();

    if (!desc.mask_complement && !desc.replace &&
        mask->format() == VectorFormat::kSparse) {
        // Fast path: iterate only the mask's explicit entries. Not
        // valid under replace semantics, which must also clear the
        // positions the mask does not name.
        std::atomic<Nnz> added{0};
        rt::do_all_blocked(
            mask->sparse_indices().size(),
            [&](rt::Range range) {
                // Block-local copies (see detail::ewise_mult_dense): the
                // presence byte store would reload each one per entry.
                const Index* idx = mask->sparse_indices().data();
                const MT* mvals = mask->sparse_values().data();
                uint8_t* wpresent = present.data();
                T* wvals = vals.data();
                const bool structural = desc.structural_mask;
                const T x = value;
                Nnz local_added = 0;
                uint64_t writes = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    if (!structural && mvals[k] == MT{0}) {
                        continue;
                    }
                    const Index i = idx[k];
                    if (wpresent[i] == 0) {
                        wpresent[i] = 1;
                        ++local_added;
                    }
                    wvals[i] = x;
                    ++writes;
                }
                added.fetch_add(local_added, std::memory_order_relaxed);
                metrics::bump(metrics::kLabelWrites, writes);
                metrics::bump(metrics::kWorkItems, writes);
            },
            backend_schedule());
        w.set_dense_nvals(w.nvals() + added.load());
        return;
    }

    const MaskView<MT> view(mask, desc);
    std::atomic<Nnz> added{0};
    std::atomic<Nnz> removed{0};
    rt::do_all_blocked(
        w.size(),
        [&](rt::Range range) {
            Nnz local_added = 0;
            Nnz local_removed = 0;
            uint64_t assigned = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                if (!view.test(static_cast<Index>(i))) {
                    if (desc.replace && present[i] != 0) {
                        // GrB_REPLACE: entries outside the mask are
                        // cleared, not carried over.
                        present[i] = 0;
                        ++local_removed;
                    }
                    continue;
                }
                if (present[i] == 0) {
                    present[i] = 1;
                    ++local_added;
                }
                vals[i] = value;
                ++assigned;
            }
            added.fetch_add(local_added, std::memory_order_relaxed);
            removed.fetch_add(local_removed, std::memory_order_relaxed);
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kLabelWrites, assigned + local_removed);
        },
        backend_schedule());
    w.set_dense_nvals(w.nvals() + added.load() - removed.load());
}

/// w = f(u) entry-wise, preserving u's structure. f: T -> T.
template <typename T, typename Fn>
void
apply(Vector<T>& w, const Vector<T>& u, Fn&& fn)
{
    trace::Span span(trace::Category::kGrb, "apply", u.nvals());
    metrics::bump(metrics::kPasses);
    w = u;
    if (w.format() == VectorFormat::kDense) {
        auto& vals = w.dense_values();
        const auto& present = w.dense_presence();
        rt::do_all_blocked(
            w.size(),
            [&](rt::Range range) {
                uint64_t applied = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (present[i] != 0) {
                        vals[i] = fn(vals[i]);
                        ++applied;
                    }
                }
                detail::bump_read_write_work(applied);
            },
            backend_schedule());
        return;
    }
    auto& vals = w.sparse_values();
    rt::do_all_blocked(
        vals.size(),
        [&](rt::Range range) {
            for (std::size_t k = range.begin; k < range.end; ++k) {
                vals[k] = fn(vals[k]);
            }
            detail::bump_read_write_work(range.size());
        },
        backend_schedule());
}

/**
 * w = u (+) v on the union of supports (GrB_eWiseAdd). Where only one
 * operand is explicit its value passes through unchanged.
 * The result is dense if either operand is dense. A sink (other than
 * NoSink) needs both operands dense: only that branch runs it, on
 * every union entry, the u-only ones included.
 */
template <typename T, typename Fn, typename Sink = NoSink>
void
ewise_add(Vector<T>& w, const Vector<T>& u, const Vector<T>& v, Fn&& fn,
          const Sink& sink = {})
{
    constexpr bool kHasSink = !std::is_same_v<Sink, NoSink>;
    GAS_CHECK(u.size() == v.size(), "ewise_add dimension mismatch");
    GAS_CHECK(!kHasSink ||
                  (u.format() == VectorFormat::kDense &&
                   v.format() == VectorFormat::kDense),
              "ewise_add: a sink requires dense operands");
    trace::Span span(trace::Category::kGrb, "ewise_add", u.nvals());
    metrics::bump(metrics::kPasses);

    if (u.format() == VectorFormat::kSparse &&
        v.format() == VectorFormat::kSparse) {
        Vector<T> us = u;
        Vector<T> vs = v;
        us.sort_entries();
        vs.sort_entries();
        Vector<T> result(u.size());
        auto& idx = result.sparse_indices();
        auto& vals = result.sparse_values();
        const auto& ui = us.sparse_indices();
        const auto& uv = us.sparse_values();
        const auto& vi = vs.sparse_indices();
        const auto& vv = vs.sparse_values();
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < ui.size() || b < vi.size()) {
            if (b >= vi.size() || (a < ui.size() && ui[a] < vi[b])) {
                idx.push_back(ui[a]);
                vals.push_back(uv[a]);
                ++a;
            } else if (a >= ui.size() || vi[b] < ui[a]) {
                idx.push_back(vi[b]);
                vals.push_back(vv[b]);
                ++b;
            } else {
                idx.push_back(ui[a]);
                vals.push_back(fn(uv[a], vv[b]));
                ++a;
                ++b;
            }
        }
        // One merge step and one output write per union entry.
        metrics::bump(metrics::kWorkItems, idx.size());
        metrics::bump(metrics::kLabelWrites, idx.size());
        result.set_format(VectorFormat::kSparse);
        result.set_sorted(true);
        result.charge_materialized();
        w = std::move(result);
        return;
    }

    // At least one dense operand: produce a dense result.
    Vector<T> base = u.format() == VectorFormat::kDense ? u : v;
    const Vector<T>& other = u.format() == VectorFormat::kDense ? v : u;
    const bool base_is_u = u.format() == VectorFormat::kDense;
    base.densify();
    T* vals = base.dense_values().data();
    uint8_t* present = base.dense_presence().data();
    std::atomic<Nnz> added{0};
    // Fold one entry of the other operand; returns whether it was new.
    auto fold = [vals, present, base_is_u, &fn](Index i, T value) {
        if (present[i] != 0) {
            // Preserve argument order: fn(u value, v value).
            vals[i] = base_is_u ? fn(vals[i], value) : fn(value, vals[i]);
            return Nnz{0};
        }
        present[i] = 1;
        vals[i] = value;
        return Nnz{1};
    };
    // Every folded entry is one operator application and one write.
    auto flush = [&](uint64_t folded, Nnz local_added) {
        added.fetch_add(local_added, std::memory_order_relaxed);
        metrics::bump(metrics::kWorkItems, folded);
        metrics::bump(metrics::kLabelWrites, folded);
    };
    if (other.format() == VectorFormat::kDense) {
        rt::do_all_blocked(
            base.size(),
            [&](rt::Range range) {
                // Block-local copies (see ewise_mult_dense).
                const T* ovals = other.dense_values().data();
                const uint8_t* opresent = other.dense_presence().data();
                auto block_fold = fold;
                uint64_t folded = 0;
                Nnz local_added = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (opresent[i] != 0) {
                        local_added +=
                            block_fold(static_cast<Index>(i), ovals[i]);
                        ++folded;
                        sink(static_cast<Index>(i), vals[i]);
                    } else if constexpr (kHasSink) {
                        // base is u here: its u-only entries are
                        // produced entries too.
                        if (present[i] != 0) {
                            sink(static_cast<Index>(i), vals[i]);
                        }
                    }
                }
                flush(folded, local_added);
            },
            backend_schedule());
    } else {
        const auto& oidx = other.sparse_indices();
        const auto& ovals = other.sparse_values();
        rt::do_all_blocked(
            oidx.size(),
            [&](rt::Range range) {
                Nnz local_added = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    local_added += fold(oidx[k], ovals[k]);
                }
                flush(range.size(), local_added);
            },
            backend_schedule());
    }
    base.set_dense_nvals(base.nvals() + added.load());
    w = std::move(base);
}

namespace detail {

/**
 * The dense-dense pass of eWiseMult: call keep(i, value) on each
 * product over the support intersection, in parallel blocks, and
 * return how many products keep accepted (it stores those itself).
 */
template <typename T, typename Fn, typename Keep>
Nnz
ewise_mult_dense(const Vector<T>& u, const Vector<T>& v, const Fn& fn,
                 Keep&& keep)
{
    std::atomic<Nnz> kept{0};
    rt::do_all_blocked(
        u.size(),
        [&](rt::Range range) {
            // Block-local copies of the data pointers and of keep (which
            // holds the output's): a uint8_t store may alias any memory,
            // so a pointer read through a closure reloads per entry.
            const T* uvals = u.dense_values().data();
            const uint8_t* upresent = u.dense_presence().data();
            const T* vvals = v.dense_values().data();
            const uint8_t* vpresent = v.dense_presence().data();
            auto block_keep = keep;
            uint64_t products = 0;
            Nnz local = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                if (upresent[i] != 0 && vpresent[i] != 0) {
                    T value = fn(uvals[i], vvals[i]);
                    ++products;
                    if (block_keep(static_cast<Index>(i), value)) {
                        ++local;
                    }
                }
            }
            kept.fetch_add(local, std::memory_order_relaxed);
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kLabelReads, 2 * products);
            metrics::bump(metrics::kLabelWrites, local);
        },
        backend_schedule());
    return kept.load();
}

/**
 * The sparse branch of eWiseMult: iterate the sparse operand (u when
 * both are sparse), probe the other, and append each product that
 * keep(i, value) accepts (keep may rewrite the value) to a sparse w.
 * The output keeps the iterated operand's order.
 */
template <typename T, typename Fn, typename Keep>
void
ewise_mult_sparse(Vector<T>& w, const Vector<T>& u, const Vector<T>& v,
                  const Fn& fn, Keep&& keep, Vector<T>* recycle = nullptr)
{
    const Vector<T>* iter = &u;
    const Vector<T>* probe = &v;
    bool iter_is_u = true;
    if (u.format() == VectorFormat::kDense) {
        iter = &v;
        probe = &u;
        iter_is_u = false;
    }
    Vector<T> sorted_probe;
    const Vector<T>* probe_view = probe;
    if (probe->format() == VectorFormat::kSparse && !probe->sorted()) {
        sorted_probe = *probe;
        sorted_probe.sort_entries();
        probe_view = &sorted_probe;
    }

    Vector<T> result = take_output(u.size(), recycle);
    auto& idx = result.sparse_indices();
    auto& vals = result.sparse_values();
    uint64_t entries = 0;
    iter->for_entries([&](Index i, T value) {
        ++entries;
        std::optional<T> other;
        if (probe_view->format() == VectorFormat::kDense) {
            if (probe_view->dense_presence()[i] != 0) {
                other = probe_view->dense_values()[i];
            }
        } else {
            const auto& pidx = probe_view->sparse_indices();
            const auto it =
                std::lower_bound(pidx.begin(), pidx.end(), i);
            if (it != pidx.end() && *it == i) {
                other = probe_view->sparse_values()[static_cast<std::size_t>(
                    it - pidx.begin())];
            }
        }
        if (!other.has_value()) {
            return;
        }
        T product = iter_is_u ? fn(value, *other) : fn(*other, value);
        if (keep(i, product)) {
            idx.push_back(i);
            vals.push_back(product);
        }
    });
    metrics::bump(metrics::kWorkItems, entries);
    metrics::bump(metrics::kLabelReads, entries);
    metrics::bump(metrics::kLabelWrites, idx.size());
    result.set_format(VectorFormat::kSparse);
    result.set_sorted(iter->sorted());
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    publish_output(w, result, recycle);
}

} // namespace detail

/**
 * w = u (*) v on the intersection of supports (GrB_eWiseMult). The
 * result is dense when both operands are dense, sparse otherwise.
 * @p recycle, when non-null, donates its storage to the output and
 * receives w's old storage back; it must not alias w.
 */
template <typename T, typename Fn, typename Sink = NoSink>
void
ewise_mult(Vector<T>& w, const Vector<T>& u, const Vector<T>& v, Fn&& fn,
           const Sink& sink = {}, Vector<T>* recycle = nullptr)
{
    GAS_CHECK(u.size() == v.size(), "ewise_mult dimension mismatch");
    GAS_CHECK(recycle != &w, "ewise_mult: recycle must not alias w");
    trace::Span span(trace::Category::kGrb, "ewise_mult", u.nvals());
    metrics::bump(metrics::kPasses);

    if (u.format() != VectorFormat::kDense ||
        v.format() != VectorFormat::kDense) {
        detail::ewise_mult_sparse(w, u, v, fn,
                                  [&](Index i, T& value) {
                                      sink(i, value);
                                      return true;
                                  },
                                  recycle);
        return;
    }

    Vector<T> result = detail::take_dense_output(u.size(), recycle);
    T* vals = result.dense_values().data();
    uint8_t* present = result.dense_presence().data();
    result.set_dense_nvals(detail::ewise_mult_dense(
        u, v, fn, [vals, present, &sink](Index i, T& value) {
            sink(i, value);
            vals[i] = value;
            present[i] = 1;
            return true;
        }));
    detail::publish_output(w, result, recycle);
}

/// Monoid reduction of all explicit entries of @p u.
template <typename Monoid, typename T>
T
reduce(const Vector<T>& u)
{
    trace::Span span(trace::Category::kGrb, "reduce", u.nvals());
    metrics::bump(metrics::kPasses);
    auto merge = [](T a, T b) { return Monoid::add(a, b); };
    rt::Reducer<T, decltype(merge)> reducer(Monoid::identity(), merge);
    if (u.format() == VectorFormat::kDense) {
        const auto& vals = u.dense_values();
        const auto& present = u.dense_presence();
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                T local = Monoid::identity();
                uint64_t reads = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (present[i] != 0) {
                        local = Monoid::add(local, vals[i]);
                        ++reads;
                    }
                }
                reducer.update(local);
                metrics::bump(metrics::kLabelReads, reads);
                metrics::bump(metrics::kWorkItems, reads);
            },
            backend_schedule());
    } else {
        const auto& vals = u.sparse_values();
        rt::do_all_blocked(
            vals.size(),
            [&](rt::Range range) {
                T local = Monoid::identity();
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    local = Monoid::add(local, vals[k]);
                }
                reducer.update(local);
                metrics::bump(metrics::kLabelReads, range.size());
                metrics::bump(metrics::kWorkItems, range.size());
            },
            backend_schedule());
    }
    return reducer.reduce();
}

/**
 * Gather: w(i) = u(idx(i)) for every i (GrB_extract with an index
 * vector). All three vectors must be fully dense.
 */
template <typename T, typename IT>
void
gather(Vector<T>& w, const Vector<T>& u, const Vector<IT>& idx)
{
    GAS_CHECK(u.format() == VectorFormat::kDense &&
                  idx.format() == VectorFormat::kDense,
              "gather requires dense operands");
    trace::Span span(trace::Category::kGrb, "gather", idx.size());
    metrics::bump(metrics::kPasses);
    Vector<T> result(idx.size());
    result.densify();
    auto& out = result.dense_values();
    auto& present = result.dense_presence();
    const auto& uvals = u.dense_values();
    const auto& ivals = idx.dense_values();
    rt::do_all_blocked(
        idx.size(),
        [&](rt::Range range) {
            for (std::size_t i = range.begin; i < range.end; ++i) {
                out[i] = uvals[static_cast<Index>(ivals[i])];
                present[i] = 1;
            }
            // Two reads (index, value), one write per element.
            metrics::bump(metrics::kLabelReads, 2 * range.size());
            metrics::bump(metrics::kLabelWrites, range.size());
            metrics::bump(metrics::kWorkItems, range.size());
        },
        backend_schedule());
    result.set_dense_nvals(idx.size());
    result.charge_materialized();
    w = std::move(result);
}

/**
 * Scatter-min: w(idx(i)) = min(w(idx(i)), u(i)) for every i
 * (GrB_assign with an index vector and the MIN accumulator).
 * w, u, idx must be dense and w fully populated.
 */
template <typename T, typename IT>
void
scatter_min(Vector<T>& w, const Vector<IT>& idx, const Vector<T>& u)
{
    GAS_CHECK(w.format() == VectorFormat::kDense &&
                  u.format() == VectorFormat::kDense &&
                  idx.format() == VectorFormat::kDense,
              "scatter_min requires dense operands");
    trace::Span span(trace::Category::kGrb, "scatter_min", idx.size());
    metrics::bump(metrics::kPasses);
    auto& wvals = w.dense_values();
    const auto& uvals = u.dense_values();
    const auto& upresent = u.dense_presence();
    const auto& ivals = idx.dense_values();
    const auto& ipresent = idx.dense_presence();
    rt::do_all_blocked(
        idx.size(),
        [&](rt::Range range) {
            uint64_t updates = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                if (upresent[i] == 0 || ipresent[i] == 0) {
                    continue; // implicit source or index: no update
                }
                atomic_accum(wvals[static_cast<Index>(ivals[i])], uvals[i],
                             [](T a, T b) { return std::min(a, b); });
                ++updates;
            }
            metrics::bump(metrics::kLabelReads, 2 * updates);
            metrics::bump(metrics::kLabelWrites, updates);
            metrics::bump(metrics::kWorkItems, updates);
        },
        backend_schedule());
}

/// Sparse selection: w = entries (i, x) of u where pred(i, x).
template <typename T, typename Pred>
void
select_entries(Vector<T>& w, const Vector<T>& u, Pred&& pred)
{
    trace::Span span(trace::Category::kGrb, "select", u.nvals());
    metrics::bump(metrics::kPasses);
    rt::InsertBag<std::pair<Index, T>> kept;
    if (u.format() == VectorFormat::kDense) {
        const auto& vals = u.dense_values();
        const auto& present = u.dense_presence();
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                uint64_t selected = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (present[i] != 0 &&
                        pred(static_cast<Index>(i), vals[i])) {
                        kept.push({static_cast<Index>(i), vals[i]});
                        ++selected;
                    }
                }
                metrics::bump(metrics::kWorkItems, range.size());
                metrics::bump(metrics::kLabelReads, selected);
            },
            backend_schedule());
    } else {
        const auto& idx = u.sparse_indices();
        const auto& vals = u.sparse_values();
        rt::do_all_blocked(
            idx.size(),
            [&](rt::Range range) {
                uint64_t selected = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    if (pred(idx[k], vals[k])) {
                        kept.push({idx[k], vals[k]});
                        ++selected;
                    }
                }
                metrics::bump(metrics::kWorkItems, range.size());
                metrics::bump(metrics::kLabelReads, selected);
            },
            backend_schedule());
    }
    detail::publish_sparse_output(w, u.size(), kept);
}

/**
 * w = the entries (i, fn(u(i), v(i))) of the support intersection that
 * pass pred(i, value): eWiseMult -> select_entries with the product
 * vector never materialized (the lazy planner's eWiseMult -> select
 * chain). Eager equivalent:
 *
 *   ewise_mult(tmp, u, v, fn);
 *   select_entries(w, tmp, pred);
 */
template <typename T, typename Fn, typename Pred>
void
ewise_mult_select(Vector<T>& w, const Vector<T>& u, const Vector<T>& v,
                  Fn&& fn, Pred&& pred)
{
    GAS_CHECK(u.size() == v.size(), "ewise_mult_select dimension mismatch");
    trace::Span span(trace::Category::kGrb, "ewise_mult_select",
                     u.nvals());
    metrics::bump(metrics::kPasses);

    if (u.format() != VectorFormat::kDense ||
        v.format() != VectorFormat::kDense) {
        detail::ewise_mult_sparse(
            w, u, v, fn,
            [&](Index i, const T& value) { return pred(i, value); });
        return;
    }

    rt::InsertBag<std::pair<Index, T>> kept;
    detail::ewise_mult_dense(u, v, fn, [&](Index i, const T& value) {
        if (!pred(i, value)) {
            return false;
        }
        kept.push({i, value});
        return true;
    });
    detail::publish_sparse_output(w, u.size(), kept);
}

/// Structural and value equality of two vectors (same explicit entries
/// with equal values).
template <typename T>
bool
vectors_equal(const Vector<T>& u, const Vector<T>& v)
{
    metrics::bump(metrics::kPasses);
    if (u.size() != v.size() || u.nvals() != v.nvals()) {
        return false;
    }
    metrics::bump(metrics::kWorkItems, u.nvals() * 2);
    metrics::bump(metrics::kLabelReads, u.nvals() * 2);
    return u.extract_tuples() == v.extract_tuples();
}

} // namespace gas::grb
