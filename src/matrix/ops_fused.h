#pragma once

/**
 * @file
 * Fused element-wise composites: single-pass implementations of the
 * eWise chains the lazy planner (src/matrix/lazy.h) recognizes.
 *
 * The paper's limitation #1 for the matrix API is forced
 * materialization: every GrB_* call writes a full output object, so a
 * chain like eWiseMult -> select streams each intermediate through
 * memory once on the way out and once on the way back in. These
 * kernels collapse such chains:
 *
 *  - fused_ewise_assign / fused_ewise_mult_select are the element-wise
 *    composites (eWise feeding a masked assign, eWiseMult feeding a
 *    select) with the intermediate vector never materialized.
 *  - ewise_mult_recycle builds the eWiseMult operand of a fused
 *    eWiseMult -> mxv chain in recycled storage.
 *
 * SpMV chains need no kernel here: vxm / mxv / mxv_sparse and
 * SpmvDispatcher::dispatch_spmv take the per-entry sink and recycle
 * buffer themselves (ops_spmv.h).
 */

#include <optional>

#include "matrix/ops_vector.h"

namespace gas::grb {

/**
 * Dense-dense eWiseMult into recycled dense storage: the input-
 * materialization step of the fused eWiseMult -> mxv chain. Identical
 * output to the eager dense-dense ewise_mult, but @p result keeps its
 * capacity across calls, so steady-state rounds charge zero
 * kBytesMaterialized (the watermark bills only growth). Computing the
 * product per edge inside the pull kernel instead was measured slower:
 * an average in-degree of edges/vertex type-erased multiplies per
 * round costs more than the one vertex-sized pass it saves.
 */
template <typename T, typename Fn>
void
ewise_mult_recycle(Vector<T>& result, Index n, const uint8_t* a_present,
                   const T* a_vals, const uint8_t* b_present,
                   const T* b_vals, const Fn& fn)
{
    trace::Span span(trace::Category::kGrb, "ewise_mult", n);
    metrics::bump(metrics::kPasses);
    result.clear_keep_capacity(n);
    result.dense_values().assign(n, T{});
    result.dense_presence().assign(n, 0);
    result.set_format(VectorFormat::kDense);
    auto& vals = result.dense_values();
    auto& present = result.dense_presence();
    std::atomic<Nnz> count{0};
    rt::do_all_blocked(
        n,
        [&](rt::Range range) {
            Nnz local = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                if (a_present[i] != 0 && b_present[i] != 0) {
                    vals[i] = fn(a_vals[i], b_vals[i]);
                    present[i] = 1;
                    ++local;
                }
            }
            count.fetch_add(local, std::memory_order_relaxed);
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kLabelReads, 2 * local);
            metrics::bump(metrics::kLabelWrites, local);
        },
        backend_schedule());
    result.set_dense_nvals(count.load());
    result.charge_materialized();
}

/**
 * Element-wise composite: w = u op v (intersection for eWiseMult,
 * union for eWiseAdd) with @p sink.assign_at(i) fired at every produced
 * entry the assign's implicit value mask admits (every produced entry
 * when @p structural_assign). Operands must both be dense — the only
 * shape the lazy planner fuses; other shapes fall back to the eager
 * pair. Eager equivalent:
 *
 *   ewise_mult(w, u, v, op);          // or ewise_add
 *   assign_scalar(target, &w, d, s);  // d non-complement, non-replace
 *
 * @p sink is any type with the AssignSink shape (lazy.h): callable
 * prepare / assign_at(Index) / finish members, each testable in a
 * boolean context and skipped when unset.
 */
template <typename T, typename Fn, typename Sink>
void
fused_ewise_assign(Vector<T>& w, const Vector<T>& u, const Vector<T>& v,
                   Fn&& fn, bool intersection, bool structural_assign,
                   const Sink& sink)
{
    GAS_CHECK(u.size() == v.size(),
              "fused_ewise_assign dimension mismatch");
    GAS_CHECK(u.format() == VectorFormat::kDense &&
                  v.format() == VectorFormat::kDense,
              "fused_ewise_assign requires dense operands");
    trace::Span span(trace::Category::kGrb, "ewise_fused_assign",
                     u.nvals());
    metrics::bump(metrics::kPasses);
    if (sink.prepare) {
        sink.prepare();
    }

    Vector<T> result(u.size());
    result.densify();
    auto& vals = result.dense_values();
    auto& present = result.dense_presence();
    const auto& uvals = u.dense_values();
    const auto& upresent = u.dense_presence();
    const auto& vvals = v.dense_values();
    const auto& vpresent = v.dense_presence();
    std::atomic<Nnz> count{0};
    rt::do_all_blocked(
        u.size(),
        [&](rt::Range range) {
            Nnz local = 0;
            uint64_t both = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                const bool up = upresent[i] != 0;
                const bool vp = vpresent[i] != 0;
                T value;
                if (up && vp) {
                    value = fn(uvals[i], vvals[i]);
                    ++both;
                } else if (!intersection && up) {
                    value = uvals[i];
                } else if (!intersection && vp) {
                    value = vvals[i];
                } else {
                    continue;
                }
                vals[i] = value;
                present[i] = 1;
                ++local;
                if (sink.assign_at &&
                    (structural_assign || value != T{0})) {
                    sink.assign_at(static_cast<Index>(i));
                }
            }
            count.fetch_add(local, std::memory_order_relaxed);
            // One read per produced entry, two where both were present.
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kLabelReads, local + both);
            metrics::bump(metrics::kLabelWrites, local);
        },
        backend_schedule());
    result.set_dense_nvals(count.load());
    result.charge_materialized();
    w = std::move(result);
    if (sink.finish) {
        sink.finish();
    }
}

/**
 * Element-wise composite: w = the entries (i, fn(u(i), v(i))) over the
 * support intersection where pred(i, value). The eWiseMult -> select
 * chain with the full product vector never materialized. Eager
 * equivalent:
 *
 *   ewise_mult(tmp, u, v, fn);
 *   select_entries(w, tmp, pred);
 */
template <typename T, typename Fn, typename Pred>
void
fused_ewise_mult_select(Vector<T>& w, const Vector<T>& u,
                        const Vector<T>& v, Fn&& fn, Pred&& pred)
{
    GAS_CHECK(u.size() == v.size(),
              "fused_ewise_mult_select dimension mismatch");
    trace::Span span(trace::Category::kGrb, "ewise_mult_select",
                     u.nvals());
    metrics::bump(metrics::kPasses);

    Vector<T> result(u.size());

    if (u.format() == VectorFormat::kDense &&
        v.format() == VectorFormat::kDense) {
        const auto& uvals = u.dense_values();
        const auto& upresent = u.dense_presence();
        const auto& vvals = v.dense_values();
        const auto& vpresent = v.dense_presence();
        rt::InsertBag<std::pair<Index, T>> kept;
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                uint64_t products = 0;
                uint64_t selected = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (upresent[i] == 0 || vpresent[i] == 0) {
                        continue;
                    }
                    const T value = fn(uvals[i], vvals[i]);
                    ++products;
                    if (pred(static_cast<Index>(i), value)) {
                        kept.push({static_cast<Index>(i), value});
                        ++selected;
                    }
                }
                metrics::bump(metrics::kWorkItems, range.size());
                metrics::bump(metrics::kLabelReads, 2 * products);
                metrics::bump(metrics::kLabelWrites, selected);
            },
            backend_schedule());
        auto& oidx = result.sparse_indices();
        auto& ovals = result.sparse_values();
        oidx.reserve(kept.size());
        ovals.reserve(kept.size());
        kept.for_each([&](const std::pair<Index, T>& entry) {
            oidx.push_back(entry.first);
            ovals.push_back(entry.second);
        });
        result.set_format(VectorFormat::kSparse);
        result.set_sorted(false);
    } else {
        // Iterate the sparse side, probe the other — the eager
        // ewise_mult walk with the select predicate applied in-line.
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
        if (probe->format() == VectorFormat::kSparse &&
            !probe->sorted()) {
            sorted_probe = *probe;
            sorted_probe.sort_entries();
            probe_view = &sorted_probe;
        }
        auto& oidx = result.sparse_indices();
        auto& ovals = result.sparse_values();
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
                    other = probe_view->sparse_values()
                        [static_cast<std::size_t>(it - pidx.begin())];
                }
            }
            if (!other.has_value()) {
                return;
            }
            const T product = iter_is_u ? fn(value, *other)
                                        : fn(*other, value);
            if (pred(i, product)) {
                oidx.push_back(i);
                ovals.push_back(product);
            }
        });
        metrics::bump(metrics::kWorkItems, entries);
        metrics::bump(metrics::kLabelReads, entries);
        metrics::bump(metrics::kLabelWrites, oidx.size());
        result.set_format(VectorFormat::kSparse);
        result.set_sorted(false);
    }

    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    result.charge_materialized();
    w = std::move(result);
}

} // namespace gas::grb
