#include "lagraph/lagraph.h"

#include "metrics/counters.h"
#include "support/cancel.h"
#include "trace/trace.h"

namespace gas::la {

using grb::Index;
using grb::Vector;

namespace {

std::vector<double>
to_std(const Vector<double>& v, double fill)
{
    std::vector<double> out(v.size(), fill);
    v.for_entries([&](Index i, double value) { out[i] = value; });
    return out;
}

/// 1/out-degree with zeros for sinks (their rank mass is dropped,
/// matching the study's shared pr semantics).
Vector<double>
inverse_out_degrees(const grb::Matrix<double>& A)
{
    Vector<double> inv = grb::row_counts(A);
    grb::apply(inv, inv,
               [](double d) { return d == 0.0 ? 0.0 : 1.0 / d; });
    return inv;
}

/*
 * The body of pagerank_residual and pagerank_residual_lazy, written
 * against the grb::lazy recorders. The caller's grb::ExecModeScope
 * picks the execution: blocking is the eager ops, counter for counter;
 * non-blocking folds contrib's eWiseMult and the damping apply into
 * update's pull kernel and recycles both handles' buffers.
 */
std::vector<double>
pagerank_residual_rounds(const char* span_name,
                         const grb::Matrix<double>& A,
                         const grb::Matrix<double>& At, double damping,
                         unsigned iterations)
{
    trace::Span algo(trace::Category::kAlgo, span_name);
    const Index n = A.nrows();
    const double base = (1.0 - damping) / n;
    const Vector<double> inv_deg = inverse_out_degrees(A);

    Vector<double> rank(n);
    rank.fill(1.0 / n);
    // delta starts as rank itself; iteration 1 computes rank_1 directly
    // and the remaining iterations apply incremental updates:
    //   rank_{t+1} = rank_t + damping * At (delta_t ./ deg).
    Vector<double> delta = rank;

    // Lazy handles, declared after every vector their pending nodes
    // read (delta, inv_deg): destruction is a flush point.
    grb::LazyVector<double> contrib(n);
    grb::LazyVector<double> update(n);

    for (unsigned iter = 0;
         iter < iterations && !cancel_requested(); ++iter) {
        trace::Span round(trace::Category::kRound, "round", iter);
        metrics::bump(metrics::kRounds);

        // contrib = delta ./ out_degree.
        grb::lazy::ewise_mult(contrib, delta, inv_deg,
                              [](double d, double inv) {
                                  return d * inv;
                              });
        // update(i) = damping * sum of in-neighbor contributions;
        // PLUS_SECOND reads At's pattern only, never its values.
        grb::lazy::mxv<grb::PlusSecond<double>>(update, grb::kDefaultDesc,
                                                At, contrib);
        grb::lazy::apply(update,
                         [damping](double x) { return damping * x; });

        if (iter == 0) {
            // rank_1 = base + update: the one non-incremental step.
            grb::assign_scalar<double, uint8_t>(rank, nullptr,
                                                grb::kDefaultDesc, base);
            Vector<double> new_rank;
            grb::ewise_add(new_rank, rank, update.value(),
                           [](double a, double b) { return a + b; });
            // delta_1 = rank_1 - rank_0 = new_rank - 1/n (new_rank is
            // dense, so delta covers every vertex).
            grb::apply(delta, new_rank, [n](double x) {
                return x - 1.0 / static_cast<double>(n);
            });
            rank = std::move(new_rank);
        } else {
            // rank += update; delta = update without a copy: exchange
            // the buffers.
            grb::ewise_add(rank, rank, update.value(),
                           [](double a, double b) { return a + b; });
            update.swap_value(delta);
        }
    }
    return to_std(rank, base);
}

} // namespace

std::vector<double>
pagerank(const grb::Matrix<double>& A, const grb::Matrix<double>& At,
         double damping, unsigned iterations)
{
    trace::Span algo(trace::Category::kAlgo, "la_pr");
    const Index n = A.nrows();
    const double base = (1.0 - damping) / n;
    const Vector<double> inv_deg = inverse_out_degrees(A);

    Vector<double> rank(n);
    rank.fill(1.0 / n);

    for (unsigned iter = 0;
         iter < iterations && !cancel_requested(); ++iter) {
        trace::Span round(trace::Category::kRound, "round", iter);
        metrics::bump(metrics::kRounds);

        // t = rank ./ out_degree  (one full pass).
        Vector<double> t;
        grb::ewise_mult(t, rank, inv_deg,
                        [](double r, double inv) { return r * inv; });

        // w(i) = sum over in-neighbors j of t(j): pull along At's
        // pattern (PLUS_SECOND never reads At's values).
        Vector<double> w;
        grb::mxv<grb::PlusSecond<double>>(w, grb::kDefaultDesc, At, t);

        // w = damping * w  (another pass).
        grb::apply(w, w, [damping](double x) { return damping * x; });

        // rank = base everywhere, then rank += w (two more passes —
        // the matrix API cannot fuse the teleport term into the pull).
        grb::assign_scalar<double, uint8_t>(rank, nullptr,
                                            grb::kDefaultDesc, base);
        grb::ewise_add(rank, rank, w,
                       [](double a, double b) { return a + b; });
    }
    return to_std(rank, base);
}

std::vector<double>
pagerank_residual(const grb::Matrix<double>& A,
                  const grb::Matrix<double>& At, double damping,
                  unsigned iterations)
{
    return pagerank_residual_rounds("la_pr_residual", A, At, damping,
                                    iterations);
}

std::vector<double>
pagerank_residual_lazy(const grb::Matrix<double>& A,
                       const grb::Matrix<double>& At, double damping,
                       unsigned iterations)
{
    grb::ExecModeScope mode(grb::ExecMode::kNonBlocking);
    return pagerank_residual_rounds("la_pr_lazy", A, At, damping,
                                    iterations);
}

} // namespace gas::la
