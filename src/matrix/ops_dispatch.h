#pragma once

/**
 * @file
 * Direction-optimizing SpMV dispatch.
 *
 * The paper's LAGraph implementations hardwire a traversal direction
 * per app (la::bfs is pure push, and a push/pull bfs switches on a
 * fixed frontier-size threshold) and pay the matrix API's full pull
 * cost — every row, every edge — whenever they do pull.
 * la::bfs_pushpull keeps that threshold policy by forcing the
 * direction per round through this dispatcher. GraphBLAST showed the
 * direction decision belongs *inside* the SpMV operation, where the
 * frontier, the mask, and the matrix are all visible at once.
 *
 * SpmvDispatcher is that layer. One instance is created per (A, A^T)
 * pair and carried across the rounds of an algorithm; each
 * dispatch_spmv call prices both directions from the current frontier
 * and mask and runs the cheaper kernel:
 *
 *   push   vxm over A: cost ~ sum of frontier entries' out-degrees
 *          (exact, computed in O(nnz(u)) from the CSR row pointers).
 *   pull   mxv / mxv_sparse over A^T with FlipMul<Semiring>: cost ~
 *          candidate rows x expected edges scanned per row. For
 *          semirings with an absorbing add element the first-hit
 *          early exit means a candidate row scans ~n/nnz(u) edges
 *          before hitting a frontier member (capped by the average
 *          in-degree); without one every candidate row is scanned in
 *          full. A per-row loop overhead term is added on top.
 *
 * Candidate rows come from the mask: a sparse mask names them
 *  exactly (mxv_sparse iterates only those), a dense value mask is
 * counted in O(n), no mask means all n rows.
 *
 * A hysteresis factor keeps the dispatcher from flip-flopping: the
 * non-current direction must win by kHysteresis, not merely tie, to
 * trigger a switch. Descriptor::direction forces a direction
 * unconditionally (the ablation bench's forced-push / forced-pull
 * modes); kPull without a registered transpose is an error, kAuto
 * without one always pushes.
 */

#include "matrix/ops_spmv.h"

namespace gas::grb {

/**
 * Per-(matrix, transpose) direction-optimizing SpMV engine.
 *
 * Semantics are vxm orientation: dispatch_spmv computes
 * w<mask> = u * A, i.e. w(j) = add_i mul(u(i), A(i,j)), regardless of
 * which kernel runs. The pull path rewrites this as A^T * u and flips
 * the multiply's argument order (FlipMul) so non-commutative semirings
 * (MinFirst/MinSecond) see their scalars in the order the caller wrote.
 */
template <typename T>
class SpmvDispatcher
{
  public:
    /// Push-only dispatcher: no transpose registered, kAuto always
    /// resolves to push.
    explicit SpmvDispatcher(const Matrix<T>& A) : A_(&A) {}

    /// Full dispatcher. @p At must be the transpose of @p A (for
    /// symmetric matrices pass the same object twice).
    SpmvDispatcher(const Matrix<T>& A, const Matrix<T>& At)
        : A_(&A), At_(&At)
    {
    }

    /// w<mask> = u * A, direction chosen per call. Returns the
    /// direction actually executed. @p sink and @p recycle are passed
    /// through to whichever kernel runs (see ops_spmv.h).
    template <typename Semiring, typename MT = uint8_t,
              typename Sink = NoSink>
    Direction
    dispatch_spmv(Vector<T>& w, const Vector<MT>* mask,
                  const Descriptor& desc, const Vector<T>& u,
                  const Sink& sink = {}, Vector<T>* recycle = nullptr)
    {
        const Direction dir = choose<Semiring>(mask, desc, u);
        if (dir == Direction::kPush) {
            vxm<Semiring>(w, mask, desc, u, *A_, sink, recycle);
        } else if (mask != nullptr &&
                   mask->format() == VectorFormat::kSparse) {
            mxv_sparse<FlipMul<Semiring>>(w, *mask, desc, *At_, u, sink,
                                          recycle);
        } else {
            mxv<FlipMul<Semiring>>(w, mask, desc, *At_, u, sink, recycle);
        }
        note_executed(dir);
        return dir;
    }

    /// Unmasked convenience overload.
    template <typename Semiring>
    Direction
    dispatch_spmv(Vector<T>& w, const Descriptor& desc,
                  const Vector<T>& u)
    {
        return dispatch_spmv<Semiring, uint8_t>(w, nullptr, desc, u);
    }

    /// Direction the most recent dispatch executed.
    Direction last_direction() const { return last_; }

  private:
    /// The non-current direction must be this factor cheaper to flip.
    static constexpr double kHysteresis = 1.5;

    /// Record an executed direction: bumps the push/pull round counters
    /// and updates the hysteresis state.
    void
    note_executed(Direction dir)
    {
        metrics::bump(dir == Direction::kPush ? metrics::kSpmvPushRounds
                                              : metrics::kSpmvPullRounds);
        last_ = dir;
    }

    template <typename Semiring, typename MT>
    Direction
    choose(const Vector<MT>* mask, const Descriptor& desc,
           const Vector<T>& u) const
    {
        if (desc.direction == Direction::kPush) {
            return Direction::kPush;
        }
        if (desc.direction == Direction::kPull) {
            GAS_CHECK(At_ != nullptr,
                      "dispatch_spmv: pull forced without a transpose");
            return Direction::kPull;
        }
        if (At_ == nullptr) {
            return Direction::kPush;
        }
        if (u.format() == VectorFormat::kDense) {
            // A dense frontier's push cost is already ~nvals(A); pull
            // over the same edges with early exit cannot lose.
            return Direction::kPull;
        }

        // Exact push cost: total out-degree of the frontier.
        const auto& uidx = u.sparse_indices();
        uint64_t frontier_edges = 0;
        for (const Index i : uidx) {
            frontier_edges += A_->row_nvals(i);
        }

        const Index n = A_->ncols();
        // Pull's floor is the n/8 per-row overhead term below. When the
        // frontier is already cheaper than that floor (with hysteresis),
        // push wins no matter what the mask admits — skip the candidate
        // count, which for a dense mask is itself an O(n) pass a
        // high-diameter traversal cannot afford every round.
        if (static_cast<double>(frontier_edges) * kHysteresis <
            static_cast<double>(n) / 8.0) {
            return Direction::kPush;
        }

        // Candidate pull rows admitted by the mask.
        uint64_t candidates = n;
        if (mask != nullptr) {
            if (mask->format() == VectorFormat::kSparse) {
                const uint64_t support = mask->nvals();
                candidates = desc.mask_complement
                    ? (n > support ? n - support : 0)
                    : support;
            } else {
                candidates = dense_mask_candidates(*mask, desc);
            }
        }

        const double avg_pull_degree =
            static_cast<double>(At_->nvals()) /
            static_cast<double>(std::max<Index>(n, 1));
        double per_row = avg_pull_degree;
        if constexpr (HasAbsorbing<Semiring>) {
            // First-hit early exit: with the frontier occupying an
            // nnz(u)/n fraction of the columns, a candidate row scans
            // ~n/nnz(u) edges before hitting a frontier member
            // (geometric), capped by the average row length.
            const double expected_scan = static_cast<double>(n) /
                static_cast<double>(std::max<std::size_t>(
                    uidx.size(), 1));
            per_row =
                std::min(avg_pull_degree, std::max(1.0, expected_scan));
        }
        // The n/8 term charges the per-row loop / candidate-merge
        // overhead of the pull kernels.
        double candidate_rows = static_cast<double>(candidates);
        double overhead_rows = static_cast<double>(n) / 8.0;
        // Price the transpose's tuned storage. A row bitmap filters
        // empty rows out of the candidate list and the row loop before
        // any row pointer is touched, shrinking both terms by the
        // empty-row fraction. (SELL's SIMD sweep needs a fully present
        // u, which a sparse frontier never is after densification, so
        // it does not discount this sparse-frontier price.)
        const FormatTuning& tuning = At_->format_tuning();
        if (tuning.format == StorageFormat::kBitmapCsr) {
            const double occupied = 1.0 - tuning.empty_row_fraction;
            candidate_rows *= occupied;
            overhead_rows *= occupied;
        }
        const double pull_cost = candidate_rows * per_row + overhead_rows;
        const double push_cost = static_cast<double>(frontier_edges);

        if (last_ == Direction::kPull) {
            return push_cost * kHysteresis < pull_cost
                ? Direction::kPush
                : Direction::kPull;
        }
        return pull_cost * kHysteresis < push_cost ? Direction::kPull
                                                   : Direction::kPush;
    }

    /// O(n) count of mask-true rows for a dense mask. Cheap relative to
    /// the pull pass it prices (pull is itself Omega(n)).
    template <typename MT>
    uint64_t
    dense_mask_candidates(const Vector<MT>& mask,
                          const Descriptor& desc) const
    {
        const auto& present = mask.dense_presence();
        const auto& vals = mask.dense_values();
        uint64_t admitted = 0;
        for (std::size_t i = 0; i < present.size(); ++i) {
            const bool mask_true = present[i] != 0 &&
                (desc.structural_mask || vals[i] != MT{0});
            admitted += (mask_true != desc.mask_complement) ? 1 : 0;
        }
        return admitted;
    }

    const Matrix<T>* A_;
    const Matrix<T>* At_{nullptr};
    Direction last_{Direction::kPush};
};

} // namespace gas::grb
