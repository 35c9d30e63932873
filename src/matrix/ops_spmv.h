#pragma once

/**
 * @file
 * Sparse matrix-vector products.
 *
 * vxm (w = u * A) is the push-style kernel: it enumerates the explicit
 * entries of u and scatters along the corresponding rows of A into a
 * shared sparse accumulator (SAXPY form). Work is proportional to the
 * active entries' degrees — this is the kernel behind each round of a
 * round-based data-driven algorithm (bfs frontier expansion, sssp
 * relaxations).
 *
 * mxv (w = A * u) is the pull-style kernel (SDOT form): every row of A
 * computes a dot product against a dense u. Work is proportional to
 * nvals(A) — one full topology pass per call. Two mitigations recover
 * much of that cost for traversal workloads (the GraphBLAST recipe):
 * masked-out rows are skipped before the row is touched, and semirings
 * with an absorbing add element (LorLand's "any"-style OR) stop the
 * row scan at the first hit.
 *
 * mxv_sparse is the mask-driven pull variant: when the mask is sparse
 * it iterates only candidate rows (mask support, or its sorted
 * complement) instead of all n, producing a sparse output.
 *
 * Each kernel takes two optional trailing parameters, which is how the
 * lazy planner (matrix/lazy.h) fuses a downstream apply or masked
 * assign into the product instead of running a second pass:
 *
 *  - sink(i, value) runs on every output entry after the mask and
 *    before the entry is stored; it may rewrite the value. It can run
 *    on worker threads, at most once per index. The default NoSink
 *    compiles away.
 *  - recycle, when non-null, donates its storage to the output and
 *    receives w's old storage back, so a round-based algorithm's
 *    per-round output stops being a fresh allocation (the capacity
 *    watermark bills only growth). It must not alias w or u.
 *
 * All three kernels are storage-format aware (matrix/formats.h): with
 * a row bitmap the pull kernels iterate only nonempty rows and the
 * push kernel probes rows before touching their pointers; with SELL
 * slices and a SIMD-capable semiring the dense pull kernel runs the
 * vectorized slice sweep (matrix/simd_spmv.h). Every accelerated path
 * produces the same entries as the plain CSR scan — bit-identical for
 * the SELL sweep, value-identical for the order-free within-row path.
 */

#include <bit>
#include <cstring>
#include <numeric>
#include <span>

#include "matrix/matrix.h"
#include "matrix/ops_common.h"
#include "matrix/semiring.h"
#include "matrix/simd_spmv.h"
#include "trace/trace.h"

namespace gas::grb {

namespace detail {

/**
 * Per-block tallies of a pull scan. The row loop accumulates exact
 * counts here and flush() folds them into the counters once per
 * rt::Range, so no counter call sits on the per-edge path.
 */
struct PullTally
{
    uint64_t visited = 0;
    uint64_t reads = 0;
    uint64_t short_circuited = 0;
    simd::SimdStats sstats;

    void
    flush() const
    {
        metrics::bump(metrics::kEdgeVisits, visited);
        metrics::bump(metrics::kWorkItems, visited);
        metrics::bump(metrics::kLabelReads, reads);
        metrics::bump(metrics::kEdgesShortCircuited, short_circuited);
        if (sstats.lane_slots != 0) {
            metrics::bump(metrics::kSimdLanesActive, sstats.lanes_active);
            metrics::bump(metrics::kSimdLaneSlots, sstats.lane_slots);
        }
    }
};

/**
 * mul(A(i,j), u(j)) for entry @p e of A. A semiring whose multiply
 * ignores its first argument (MulIsSecond, e.g. PLUS_SECOND) never
 * loads A's values: its row scan streams column ids only.
 */
template <typename Semiring, typename T>
inline T
pull_mul(const Matrix<T>& A, Nnz e, T uj)
{
    if constexpr (MulIsSecond<Semiring>) {
        return uj;
    } else {
        return Semiring::mul(A.val_at(e), uj);
    }
}

/**
 * Scan one matrix row against a densified u, returning whether any
 * entry contributed and leaving the accumulated value in @p accum.
 *
 * This is the shared inner loop of mxv and mxv_sparse. When
 * the caller established that u is fully present (@p u_full) and the
 * semiring has no absorbing element, the row takes a loop without the
 * per-edge presence probe; additionally with @p use_row_simd (SIMD
 * enabled, column ids gather-safe) and an order-free add, rows of at
 * least kCsrSimdMinRow entries run the vectorized within-row
 * accumulation. Partial u and absorbing semirings take the probing
 * loop with the early exit. Every loop accumulates in row order, so
 * the result is bit-identical whichever one runs. The scalar loops
 * take each product from pull_mul, so a MulIsSecond semiring never
 * loads A's values.
 */
template <typename Semiring, typename T>
[[gnu::always_inline]] inline bool
pull_row_scan(const Matrix<T>& A, Index i, const uint8_t* upresent,
              const T* uvals, bool u_full, bool use_row_simd, T& accum,
              PullTally& tally)
{
    const Nnz begin = A.row_begin(i);
    const Nnz end = A.row_end(i);
    accum = Semiring::identity();
    if constexpr (!HasAbsorbing<Semiring>) {
        if (u_full) {
            const uint64_t len = end - begin;
            tally.visited += len;
            tally.reads += len;
            if constexpr (simd::kHasSimd<Semiring> &&
                          simd::kSimdOrderFree<Semiring>) {
                if (use_row_simd && len >= simd::kCsrSimdMinRow) {
                    accum = simd::csr_row_accumulate_avx2<Semiring>(
                        A.raw_col().data() + begin,
                        A.raw_vals().data() + begin,
                        static_cast<Index>(len), uvals, tally.sstats);
                    return true;
                }
            }
            for (Nnz e = begin; e < end; ++e) {
                accum = Semiring::add(
                    accum,
                    pull_mul<Semiring>(A, e, uvals[A.col_at(e)]));
            }
            return len != 0;
        }
    }
    bool hit = false;
    uint64_t reads = 0;
    Nnz e = begin;
    for (; e < end; ++e) {
        const Index j = A.col_at(e);
        if (upresent[j] != 0) {
            accum = Semiring::add(accum,
                                  pull_mul<Semiring>(A, e, uvals[j]));
            hit = true;
            ++reads;
            if constexpr (HasAbsorbing<Semiring>) {
                // The add monoid saturated: no later edge can change
                // accum, so stop the row scan.
                if (accum == Semiring::absorbing()) {
                    ++e;
                    tally.short_circuited += end - e;
                    break;
                }
            }
        }
    }
    tally.visited += e - begin;
    tally.reads += reads;
    return hit;
}

/**
 * Drive a push scatter over the explicit entries of u: call
 * scatter(i, u(i)) for each, and fold the block's exact tallies into
 * the counters once per rt::Range. scatter returns the number of
 * accumulator writes it made.
 *
 * With a row bitmap, each active row is probed before its pointers are
 * touched: frontiers over power-law graphs routinely land on vertices
 * with no out-edges. Reading u's entry is billed either way, so label
 * traffic matches the plain CSR scatter exactly.
 */
template <typename T, typename Scatter>
void
for_each_push_row(const Vector<T>& u, const Matrix<T>& A,
                  Scatter&& scatter)
{
    const RowBitmap* bitmap =
        A.storage_format() == StorageFormat::kBitmapCsr ? &A.row_bitmap()
                                                        : nullptr;
    struct Tally
    {
        uint64_t reads = 0;
        uint64_t edges = 0;
        uint64_t writes = 0;
        uint64_t bitmap_skips = 0;
    };
    auto visit = [&](Index i, T x, Tally& tally) {
        ++tally.reads;
        if (bitmap != nullptr && !bitmap->nonempty(i)) {
            ++tally.bitmap_skips;
            return;
        }
        tally.edges += A.row_nvals(i);
        tally.writes += scatter(i, x);
    };
    auto flush = [](const Tally& tally) {
        metrics::bump(metrics::kLabelReads, tally.reads);
        metrics::bump(metrics::kEdgeVisits, tally.edges);
        metrics::bump(metrics::kWorkItems, tally.edges);
        metrics::bump(metrics::kLabelWrites, tally.writes);
        if (tally.bitmap_skips != 0) {
            metrics::bump(metrics::kRowsSkippedBitmap, tally.bitmap_skips);
        }
    };

    if (u.format() == VectorFormat::kDense) {
        const auto& uvals = u.dense_values();
        const auto& upresent = u.dense_presence();
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                Tally tally;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (upresent[i] != 0) {
                        visit(static_cast<Index>(i), uvals[i], tally);
                    }
                }
                flush(tally);
            },
            backend_schedule());
    } else {
        const auto& uidx = u.sparse_indices();
        const auto& uvals = u.sparse_values();
        rt::do_all_blocked(
            uidx.size(),
            [&](rt::Range range) {
                Tally tally;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    visit(uidx[k], uvals[k], tally);
                }
                flush(tally);
            },
            backend_schedule());
    }
}

/**
 * vxm compacts with a dense SPA scan when the scatter's f accumulator
 * updates satisfy ncols <= kDenseSpaFlopRatio * f. The scan visits all
 * ncols slots, so the bound keeps it within kDenseSpaFlopRatio slot
 * visits per update the scatter already made; below it a
 * touched-column list is cheaper than the scan.
 */
inline constexpr uint64_t kDenseSpaFlopRatio = 8;

/// Columns per block of vxm's dense SPA compaction.
inline constexpr Index kSpaScanBlock = 4096;

/// True when the push scatter's flop count f (the summed row lengths
/// of u's explicit entries; all of A when u is dense) reaches
/// ncols / kDenseSpaFlopRatio. The sum stops at that point.
template <typename T>
bool
dense_spa_pays(const Vector<T>& u, const Matrix<T>& A)
{
    const uint64_t needed =
        (static_cast<uint64_t>(A.ncols()) + kDenseSpaFlopRatio - 1) /
        kDenseSpaFlopRatio;
    if (u.format() == VectorFormat::kDense) {
        return A.nvals() >= needed;
    }
    uint64_t flops = 0;
    for (const Index i : u.sparse_indices()) {
        flops += A.row_nvals(i);
        if (flops >= needed) {
            return true;
        }
    }
    return flops >= needed;
}

/**
 * Call fn(j) for each kClaimed flag j in [lo, hi) of @p occ, in order.
 * Masking each byte to its low bit (kClaimed; kMaskedOut is bit 1)
 * lets one multiply pack eight flags into a bit mask: a word of free or
 * masked-out flags costs one load and one branch, and claimed flags
 * are visited without a per-column branch to mispredict.
 */
template <typename Fn>
inline void
for_each_set_flag(const uint8_t* occ, Index lo, Index hi, Fn&& fn)
{
    Index j = lo;
    if constexpr (std::endian::native == std::endian::little) {
        for (; j + 8 <= hi; j += 8) {
            uint64_t word = 0;
            std::memcpy(&word, occ + j, sizeof(word));
            // Bit k of the top byte is the low bit of flag j + k.
            word &= 0x0101010101010101ull;
            uint64_t bits = (word * 0x0102040810204080ull) >> 56;
            while (bits != 0) {
                fn(j + static_cast<Index>(std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    }
    for (; j < hi; ++j) {
        if (occ[j] == kClaimed) {
            fn(j);
        }
    }
}

} // namespace detail

/**
 * w<mask> = u * A over a semiring: w(j) = add_i mul(u(i), A(i,j)).
 *
 * Output always uses replace semantics (w is overwritten) and is
 * sparse. The scatter writes a cached sparse accumulator (SPA); one
 * compaction then moves the accumulated columns into w, applying the
 * mask, running the sink and restoring the SPA slots in the same pass.
 * The compaction is picked from the flop count f (the summed row
 * lengths of u's entries, SuiteSparse saxpy3's rule):
 *
 *  - dense SPA, f * kDenseSpaFlopRatio >= ncols: the scatter keeps no
 *    touched list, and the compaction scans [0, ncols) in column
 *    blocks (count, prefix sum, write), so w comes out sorted on both
 *    backends. The scan costs O(ncols) <= kDenseSpaFlopRatio * f, so
 *    it is bounded by the scatter's own work; it reads the occupancy
 *    flags eight at a time (detail::for_each_set_flag).
 *  - sparse SPA, otherwise: the scatter records each newly claimed
 *    column once, and the compaction walks only that list. The
 *    Reference backend sorts the result; the Parallel backend leaves
 *    it in claim order (the paper's "unordered list").
 *
 * Cancellation: the row blocks run under do_all, whose chunk claims
 * are cancellation points. On a tripped CancelToken w holds the
 * contributions of the completed blocks only — a valid but partial
 * result; callers must treat w as indeterminate when
 * gas::cancel_status() is non-OK. The same contract applies to mxv,
 * mxv_sparse, mxm, and the SIMD kernels built on these loops. The
 * compaction itself runs under a CancelShield: it is bounded, and one
 * cut short would leave stale slots in the cached SPA.
 *
 * Masks. In dense-SPA mode a mask is folded into the SPA before the
 * scatter (SuiteSparse saxpy3's mask scatter): one shielded pass over
 * [0, ncols) flags each rejected column kMaskedOut and, for a semiring
 * with an absorbing element, sets its value to absorbing(). The
 * scatter's per-edge loop is the same with or without a mask. For a
 * semiring with an absorbing element it starts each edge with one
 * relaxed load of the slot, and a slot already at absorbing() ends
 * the edge before the product: no atomic_accum, no atomic_claim. A
 * slot holds absorbing() only if the pre-mark set it (kMaskedOut) or
 * a scatter stored it, and the claim is made by the edge that wrote
 * the slot, so each touched column is still claimed exactly once and
 * the skipped update could not have changed it (add(absorbing, x) ==
 * absorbing). bfs under its complemented visited mask thus pays one
 * load per edge into a column it already reached (EXPERIMENTS.md,
 * "Saturated-slot early exit in push vxm"). Without an absorbing
 * element the marked columns are skipped by atomic_claim, which does
 * not claim a non-free flag. The compaction counts and emits only
 * kClaimed slots, with no mask test, and resets each marked block to
 * free/identity after emitting it. The pass costs
 * O(ncols + nnz(mask)) <= kDenseSpaFlopRatio * f + nnz(mask). An
 * explicit per-edge test of the kMaskedOut flag instead was measured
 * slower: it doubled the largest bfs-social round at 2 threads (the
 * branch mispredicts on hub-heavy frontiers; EXPERIMENTS.md,
 * "Mask pre-mark in push vxm"). In sparse-SPA mode, whose flop count
 * cannot pay for an O(ncols) pass, the mask is tested once per touched
 * column at compaction.
 */
template <typename Semiring, typename T, typename MT = uint8_t,
          typename Sink = NoSink>
void
vxm(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
    const Vector<T>& u, const Matrix<T>& A, const Sink& sink = {},
    Vector<T>* recycle = nullptr)
{
    GAS_CHECK(u.size() == A.nrows(), "vxm dimension mismatch");
    GAS_CHECK(recycle != &w, "vxm: recycle must not alias w");
    trace::Span span(trace::Category::kGrb, "vxm", u.nvals());
    metrics::bump(metrics::kPasses);

    auto& spa = SpaWorkspace<T, Semiring>::get(A.ncols());
    T* const acc = spa.values();
    uint8_t* const occ = spa.occupied();
    const bool dense_spa = detail::dense_spa_pays(u, A);
    const bool premark = dense_spa && mask != nullptr;
    rt::InsertBag<Index> touched;
    const MaskView<MT> view(mask, desc);

    // The dense-SPA passes (pre-mark, count, emit) split [0, ncols)
    // into the same column blocks.
    const Index ncols = A.ncols();
    const std::size_t nblocks =
        (ncols + detail::kSpaScanBlock - 1) / detail::kSpaScanBlock;
    auto block_lo = [](std::size_t b) {
        return static_cast<Index>(b * detail::kSpaScanBlock);
    };
    auto block_hi = [&](std::size_t b) {
        return std::min<Index>(ncols, block_lo(b) + detail::kSpaScanBlock);
    };
    const rt::LoopOptions per_block{backend_schedule().schedule, 1};

    if (premark) {
        // Every slot is free here, so each one is written
        // unconditionally: no per-column branch. occ and acc are
        // captured by value so the byte stores cannot alias them.
        auto mark = [occ, acc](Index j, bool keep) {
            occ[j] = keep ? uint8_t{0} : kMaskedOut;
            if constexpr (HasAbsorbing<Semiring>) {
                acc[j] = keep ? Semiring::identity() : Semiring::absorbing();
            }
        };
        CancelShield shield;
        rt::do_all(
            nblocks,
            [&](std::size_t b) { view.scan(block_lo(b), block_hi(b), mark); },
            per_block);
    }

    // Scatter one row of A scaled by x; every edge is one accumulator
    // write, so the caller bills end - begin writes per row.
    auto scatter_row = [&](Index i, T x) {
        // Row-local copies: the byte-wide claim may alias any memory,
        // so a pointer read through the closure reloads per edge.
        const Index* const cols = A.raw_col().data();
        const T* const avals = A.raw_vals().data();
        T* const slots = acc;
        uint8_t* const flags = occ;
        const bool keep_list = !dense_spa;
        const Nnz begin = A.row_begin(i);
        const Nnz end = A.row_end(i);
        for (Nnz e = begin; e < end; ++e) {
            const Index j = cols[e];
            if constexpr (HasAbsorbing<Semiring>) {
                // A saturated slot is finished: it is kMaskedOut, or
                // the scatter that stored absorbing() claims it.
                if (std::atomic_ref<T>(slots[j]).load(
                        std::memory_order_relaxed) ==
                    Semiring::absorbing()) {
                    continue;
                }
            }
            atomic_accum(slots[j], Semiring::mul(x, avals[e]),
                         [](T a, T b) { return Semiring::add(a, b); });
            if (atomic_claim(flags[j]) && keep_list) {
                // push takes a reference: pass a copy, or j is spilled
                // to the stack on every edge.
                touched.push(Index{j});
            }
        }
        return end - begin;
    };
    detail::for_each_push_row(u, A, scatter_row);

    // Compact the SPA into w. A slot is claimed at most once per
    // column (atomic_claim), so sink(j, .) runs at most once per j.
    Vector<T> result = detail::take_output(A.ncols(), recycle);
    auto& oidx = result.sparse_indices();
    auto& ovals = result.sparse_values();
    // Take a claimed slot out of the SPA, restoring its invariant.
    auto take = [&](Index j) {
        const T value = acc[j];
        acc[j] = Semiring::identity();
        occ[j] = 0;
        return value;
    };
    // Drop the masked-out claimed slots that for_occupied visits and
    // count the rest.
    auto count_kept = [&](auto&& for_occupied) {
        std::size_t kept = 0;
        for_occupied([&](Index j) {
            if (view.test(j)) {
                ++kept;
            } else {
                (void)take(j);
            }
        });
        return kept;
    };
    // Move the claimed slots that for_occupied visits into w from `at`.
    auto emit = [&](auto&& for_occupied, std::size_t at) {
        for_occupied([&](Index j) {
            T value = take(j);
            sink(j, value);
            oidx[at] = j;
            ovals[at] = value;
            ++at;
        });
    };
    CancelShield shield;
    if (dense_spa) {
        // Count the claimed slots per column block (the mask is already
        // in the flags), then write each block at its prefix offset, so
        // the output is in column order whatever the schedule.
        auto block = [&](std::size_t b) {
            return [=, lo = block_lo(b), hi = block_hi(b)](auto&& fn) {
                detail::for_each_set_flag(occ, lo, hi, fn);
            };
        };
        std::vector<std::size_t> offsets(nblocks + 1, 0);
        rt::do_all(
            nblocks,
            [&](std::size_t b) {
                std::size_t claimed = 0;
                block(b)([&](Index) { ++claimed; });
                offsets[b + 1] = claimed;
            },
            per_block);
        std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
        oidx.resize(offsets[nblocks]);
        ovals.resize(offsets[nblocks]);
        rt::do_all(
            nblocks,
            [&](std::size_t b) {
                emit(block(b), offsets[b]);
                if (premark) {
                    // Only free and kMaskedOut slots are left in the
                    // block (the scatter may have summed into the
                    // latter): reset them all.
                    std::fill(occ + block_lo(b), occ + block_hi(b),
                              uint8_t{0});
                    std::fill(acc + block_lo(b), acc + block_hi(b),
                              Semiring::identity());
                }
            },
            per_block);
    } else {
        // Each piece of the touched list counts, claims its output
        // range, then writes it.
        oidx.resize(touched.size());
        ovals.resize(touched.size());
        std::atomic<std::size_t> cursor{0};
        touched.parallel_apply_spans([&](std::span<const Index> cols) {
            auto for_occupied = [&](auto&& fn) {
                for (const Index j : cols) {
                    if (occ[j] != 0) {
                        fn(j);
                    }
                }
            };
            emit(for_occupied,
                 cursor.fetch_add(count_kept(for_occupied),
                                  std::memory_order_relaxed));
        });
        oidx.resize(cursor.load());
        ovals.resize(cursor.load());
    }
    result.set_format(VectorFormat::kSparse);
    result.set_sorted(dense_spa);
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    detail::publish_output(w, result, recycle);
}

/**
 * w<mask> = A * u over a semiring: w(i) = add_j mul(A(i,j), u(j)).
 *
 * u is densified internally when sparse (a materialization the matrix
 * API cannot avoid for pull-style products). The result is dense.
 * Masked-out rows produce no entry (replace semantics). The sink runs
 * on each emitted row after its scan, so every row path (SELL sweep,
 * within-row SIMD, scalar) serves sink callers too.
 */
template <typename Semiring, typename T, typename MT = uint8_t,
          typename Sink = NoSink>
void
mxv(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
    const Matrix<T>& A, const Vector<T>& u, const Sink& sink = {},
    Vector<T>* recycle = nullptr)
{
    GAS_CHECK(u.size() == A.ncols(), "mxv dimension mismatch");
    GAS_CHECK(recycle != &w, "mxv: recycle must not alias w");
    trace::Span span(trace::Category::kGrb, "mxv", u.nvals());
    metrics::bump(metrics::kPasses);

    const Vector<T>* uview = &u;
    Vector<T> dense_copy;
    if (u.format() != VectorFormat::kDense) {
        dense_copy = u;
        dense_copy.densify();
        uview = &dense_copy;
    }
    const auto& uvals = uview->dense_values();
    const auto& upresent = uview->dense_presence();
    const bool u_all_present =
        uview->nvals() == static_cast<Nnz>(uview->size());

    Vector<T> result = detail::take_dense_output(A.nrows(), recycle);
    auto& out = result.dense_values();
    auto& present = result.dense_presence();
    const MaskView<MT> view(mask, desc);
    std::atomic<Nnz> count{0};

    const StorageFormat fmt = A.storage_format();
    const bool use_simd = u_all_present && simd::simd_enabled() &&
        simd::simd_cols_ok(A.ncols());

    // SELL + SIMD fast path: one row per vector lane, bit-identical to
    // the scalar scan (each lane accumulates its row sequentially).
    // Absorbing semirings keep the scalar loop for its early exit, and
    // long-row order-free products keep the within-row path below
    // (prefer_sell_sweep).
    bool swept = false;
    if constexpr (simd::kHasSimd<Semiring> && !HasAbsorbing<Semiring>) {
        if (fmt == StorageFormat::kSell && use_simd &&
            simd::prefer_sell_sweep<Semiring>(A.nvals(), A.nrows())) {
            const auto& sell = A.sell_slices();
            rt::do_all_blocked(
                sell.num_slices(),
                [&](rt::Range range) {
                    Nnz local = 0;
                    uint64_t skipped_rows = 0;
                    simd::SimdStats stats;
                    simd::sell_sweep_avx2<Semiring>(
                        sell, static_cast<Index>(range.begin),
                        static_cast<Index>(range.end), uvals.data(),
                        [&](Index i) {
                            if (view.test(i)) {
                                return true;
                            }
                            ++skipped_rows;
                            return false;
                        },
                        [&](Index i, T value) {
                            sink(i, value);
                            out[i] = value;
                            present[i] = 1;
                            ++local;
                        },
                        stats);
                    count.fetch_add(local, std::memory_order_relaxed);
                    metrics::bump(metrics::kLabelWrites, local);
                    metrics::bump(metrics::kEdgeVisits, stats.visited);
                    metrics::bump(metrics::kWorkItems, stats.visited);
                    // u is fully present: every visited entry read it.
                    metrics::bump(metrics::kLabelReads, stats.visited);
                    if (mask != nullptr) {
                        metrics::bump(metrics::kMaskSkippedRows,
                                      skipped_rows);
                    }
                    metrics::bump(metrics::kSimdLanesActive,
                                  stats.lanes_active);
                    metrics::bump(metrics::kSimdLaneSlots,
                                  stats.lane_slots);
                },
                backend_schedule());
            swept = true;
        }
    }

    auto scan_rows = [&](rt::Range range, auto row_at) {
        Nnz local = 0;
        uint64_t skipped_rows = 0;
        detail::PullTally tally;
        auto scan = [&](auto admit) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = row_at(ri);
                if (!admit(i)) {
                    ++skipped_rows;
                    continue;
                }
                T accum;
                const bool hit = detail::pull_row_scan<Semiring>(
                    A, i, upresent.data(), uvals.data(), u_all_present,
                    use_simd, accum, tally);
                if (hit) {
                    sink(i, accum);
                    out[i] = accum;
                    present[i] = 1;
                    ++local;
                }
            }
        };
        // Test for a mask once per block, not once per row: the
        // unmasked loop makes no call to MaskView::test. Each copy of
        // the loop inlines pull_row_scan (always_inline), so hoisting
        // the test does not trade the mask call for a row-scan call.
        if (mask == nullptr) {
            scan([](Index) { return true; });
        } else {
            scan([&](Index i) { return view.test(i); });
        }
        count.fetch_add(local, std::memory_order_relaxed);
        metrics::bump(metrics::kLabelWrites, local);
        if (mask != nullptr) {
            metrics::bump(metrics::kMaskSkippedRows, skipped_rows);
        }
        tally.flush();
    };

    if (swept) {
        // Output already built by the slice sweep.
    } else if (fmt == StorageFormat::kBitmapCsr) {
        // Drive the row loop from the compacted nonempty-row list:
        // empty rows (common under power-law generators) are skipped
        // without touching their row pointers or the mask.
        const auto rows = A.row_bitmap().nonempty_rows();
        metrics::bump(metrics::kRowsSkippedBitmap,
                      static_cast<uint64_t>(A.nrows()) - rows.size());
        rt::do_all_blocked(
            rows.size(),
            [&](rt::Range range) {
                scan_rows(range, [&](std::size_t ri) { return rows[ri]; });
            },
            backend_schedule());
    } else {
        rt::do_all_blocked(
            A.nrows(),
            [&](rt::Range range) {
                scan_rows(range, [](std::size_t ri) {
                    return static_cast<Index>(ri);
                });
            },
            backend_schedule());
    }
    result.set_dense_nvals(count.load());
    detail::publish_output(w, result, recycle);
}

/**
 * Mask-driven pull kernel: w<mask> = A * u computed only for candidate
 * rows named by a *sparse* mask, producing a sparse output.
 *
 * Plain mxv spends O(n) on the row loop even when the mask admits a
 * handful of rows. With a sparse mask the candidate set is explicit:
 * the mask's support (or, complemented, the sorted gap sequence between
 * support entries), so this kernel's row loop is O(candidates) plus —
 * complemented — one merge over the support. Combined with the
 * absorbing-element early exit this is the bottom-up BFS step expressed
 * inside the matrix API.
 *
 * Requirements: mask != nullptr and sparse. With a value mask
 * (structural_mask unset), zero-valued mask entries are treated exactly
 * as MaskView would treat them: present-but-zero is "false", so under
 * complement those rows become candidates.
 */
template <typename Semiring, typename T, typename MT = uint8_t,
          typename Sink = NoSink>
void
mxv_sparse(Vector<T>& w, const Vector<MT>& mask, const Descriptor& desc,
           const Matrix<T>& A, const Vector<T>& u, const Sink& sink = {},
           Vector<T>* recycle = nullptr)
{
    GAS_CHECK(u.size() == A.ncols(), "mxv_sparse dimension mismatch");
    GAS_CHECK(recycle != &w, "mxv_sparse: recycle must not alias w");
    GAS_CHECK(mask.format() == VectorFormat::kSparse,
              "mxv_sparse requires a sparse mask");
    trace::Span span(trace::Category::kGrb, "mxv_sparse", mask.nvals());
    metrics::bump(metrics::kPasses);

    const Vector<T>* uview = &u;
    Vector<T> dense_copy;
    if (u.format() != VectorFormat::kDense) {
        dense_copy = u;
        dense_copy.densify();
        uview = &dense_copy;
    }
    const auto& uvals = uview->dense_values();
    const auto& upresent = uview->dense_presence();

    // Materialize the candidate row list from the mask. "True" support
    // entries are the present ones (structural) or the present non-zero
    // ones (value mask); complement selects everything else.
    const Vector<MT>* mview = &mask;
    Vector<MT> sorted_mask;
    if (!mask.sorted()) {
        sorted_mask = mask;
        sorted_mask.sort_entries();
        mview = &sorted_mask;
    }
    const auto& midx = mview->sparse_indices();
    const auto& mvals = mview->sparse_values();

    TrackedVector<Index> candidates;
    uint64_t skipped_rows = 0;
    if (!desc.mask_complement) {
        candidates.reserve(midx.size());
        for (std::size_t k = 0; k < midx.size(); ++k) {
            if (desc.structural_mask || mvals[k] != MT{0}) {
                candidates.push_back(midx[k]);
            } else {
                ++skipped_rows;
            }
        }
        skipped_rows +=
            static_cast<uint64_t>(A.nrows()) - midx.size();
    } else {
        candidates.reserve(A.nrows() >= midx.size()
                               ? A.nrows() - midx.size()
                               : 0);
        std::size_t k = 0;
        for (Index i = 0; i < A.nrows(); ++i) {
            while (k < midx.size() && midx[k] < i) {
                ++k;
            }
            const bool present = k < midx.size() && midx[k] == i;
            const bool mask_true = present &&
                (desc.structural_mask || mvals[k] != MT{0});
            if (!mask_true) {
                candidates.push_back(i);
            } else {
                ++skipped_rows;
            }
        }
    }
    metrics::bump(metrics::kMaskSkippedRows, skipped_rows);
    metrics::charge_materialized(candidates.size() * sizeof(Index));

    // With a row bitmap, filter the candidate list down to rows that
    // actually hold entries before the parallel scan: an O(1) bit probe
    // per candidate replaces a row-pointer load, and empty candidates
    // (bulk-produced by complemented masks over power-law graphs) never
    // reach the work loop. Mask-skip accounting above is untouched —
    // these rows were admitted by the mask and would simply have
    // produced nothing.
    if (A.storage_format() == StorageFormat::kBitmapCsr) {
        const RowBitmap& bitmap = A.row_bitmap();
        std::size_t kept = 0;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            if (bitmap.nonempty(candidates[ci])) {
                candidates[kept++] = candidates[ci];
            }
        }
        metrics::bump(metrics::kRowsSkippedBitmap,
                      candidates.size() - kept);
        candidates.resize(kept);
    }

    const bool u_all_present =
        uview->nvals() == static_cast<Nnz>(uview->size());
    const bool use_simd = u_all_present && simd::simd_enabled() &&
        simd::simd_cols_ok(A.ncols());

    rt::InsertBag<std::pair<Index, T>> output;
    rt::do_all_blocked(
        candidates.size(),
        [&](rt::Range range) {
            uint64_t emitted = 0;
            detail::PullTally tally;
            for (std::size_t ci = range.begin; ci < range.end; ++ci) {
                const Index i = candidates[ci];
                T accum;
                const bool hit = detail::pull_row_scan<Semiring>(
                    A, i, upresent.data(), uvals.data(), u_all_present,
                    use_simd, accum, tally);
                if (hit) {
                    sink(i, accum);
                    output.push({i, accum});
                    ++emitted;
                }
            }
            metrics::bump(metrics::kLabelWrites, emitted);
            tally.flush();
        },
        backend_schedule());
    detail::publish_sparse_output(w, A.nrows(), output, recycle);
}

/// Unmasked vxm convenience overload.
template <typename Semiring, typename T>
void
vxm(Vector<T>& w, const Descriptor& desc, const Vector<T>& u,
    const Matrix<T>& A)
{
    vxm<Semiring, T, uint8_t>(w, nullptr, desc, u, A);
}

/// Unmasked mxv convenience overload.
template <typename Semiring, typename T>
void
mxv(Vector<T>& w, const Descriptor& desc, const Matrix<T>& A,
    const Vector<T>& u)
{
    mxv<Semiring, T, uint8_t>(w, nullptr, desc, A, u);
}

} // namespace gas::grb
