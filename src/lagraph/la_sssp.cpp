#include "lagraph/lagraph.h"

#include "metrics/counters.h"
#include "support/cancel.h"
#include "trace/trace.h"

namespace gas::la {

using grb::Index;
using grb::Matrix;
using grb::Vector;

namespace {

constexpr uint64_t kInf = kInfDistance;

/// Entries of @p v inside the bucket [lo, hi).
Vector<uint64_t>
bucket_of(const Vector<uint64_t>& v, uint64_t lo, uint64_t hi)
{
    Vector<uint64_t> bucket;
    grb::select_entries(bucket, v, [lo, hi](Index, uint64_t d) {
        return d >= lo && d < hi;
    });
    return bucket;
}

/*
 * The delta-stepping body of sssp_delta and sssp_delta_lazy, written
 * against the grb::lazy recorders. The caller's grb::ExecModeScope
 * picks the execution: blocking is the eager ops, counter for counter;
 * non-blocking fuses each relaxation's eWiseMult + select into one
 * kernel (`improvements` is never materialized) and recycles the SpMV
 * outputs across rounds.
 */
std::vector<uint64_t>
sssp_rounds(const char* span_name, const Matrix<uint64_t>& A, Index source,
            uint64_t delta)
{
    trace::Span algo(trace::Category::kAlgo, span_name);
    const Index n = A.nrows();

    // Preprocessing inside the algorithm, as LAGraph's variant does:
    // split the adjacency matrix into light (w <= delta) and heavy
    // (w > delta) parts. Both are materialized.
    Matrix<uint64_t> light;
    Matrix<uint64_t> heavy;
    grb::select_matrix(light, A, [delta](Index, Index, uint64_t w) {
        return w <= delta;
    });
    grb::select_matrix(heavy, A, [delta](Index, Index, uint64_t w) {
        return w > delta;
    });

    // dist is dense: infinity everywhere, 0 at the source.
    Vector<uint64_t> dist(n);
    dist.fill(kInf);
    dist.set_element(source, 0);

    // Push-only dispatchers: no transposes are materialized for the
    // light/heavy splits (doubling preprocessing memory for matrices
    // used only with small frontiers would be a net loss), so every
    // relaxation resolves to the push vxm — the direction delta-
    // stepping wants anyway.
    grb::SpmvDispatcher<uint64_t> light_spmv(light);
    grb::SpmvDispatcher<uint64_t> heavy_spmv(heavy);

    // Lazy handles, declared after everything their pending nodes
    // reference (dist, dispatchers): destruction is a flush point.
    grb::LazyVector<uint64_t> candidates(n);
    grb::LazyVector<uint64_t> improvements(n);
    grb::LazyVector<uint64_t> improved(n);

    // One light/heavy relaxation, shared by both phases. Returns the
    // materialized improved-entries vector.
    auto relax = [&](grb::SpmvDispatcher<uint64_t>& spmv,
                     const Vector<uint64_t>& frontier)
        -> const Vector<uint64_t>& {
        // Candidate distances through the frontier's edges.
        grb::lazy::dispatch_spmv<grb::MinPlus<uint64_t>>(
            spmv, candidates, grb::kDefaultDesc, frontier);
        // Improvements: candidate < current distance. The matrix API
        // needs an eWise pass plus a select pass for this.
        grb::lazy::ewise_mult(improvements, candidates, dist,
                              [](uint64_t c, uint64_t d) {
                                  return c < d ? c : kInf;
                              });
        grb::lazy::select_entries(improved, improvements,
                                  [](Index, uint64_t v) {
                                      return v != kInf;
                                  });
        // Materialization point: runs the fused mult+select kernel.
        const Vector<uint64_t>& got = improved.value();
        // Fold improvements into dist (dense union-min).
        grb::ewise_add(dist, dist, got, [](uint64_t a, uint64_t b) {
            return std::min(a, b);
        });
        return got;
    };

    uint64_t bucket_index = 0;
    while (!cancel_requested()) {
        const uint64_t lo = bucket_index * delta;
        const uint64_t hi = lo + delta;

        // Phase 1: relax light edges within the bucket to fixpoint.
        Vector<uint64_t> frontier = bucket_of(dist, lo, hi);
        while (frontier.nvals() != 0 && !cancel_requested()) {
            trace::Span round(trace::Category::kRound, "light_round",
                              bucket_index);
            metrics::bump(metrics::kRounds);

            // Next inner frontier: improved vertices still in bucket.
            frontier = bucket_of(relax(light_spmv, frontier), lo, hi);
        }

        // Phase 2: one heavy relaxation from the settled bucket.
        trace::Span round(trace::Category::kRound, "heavy_round",
                          bucket_index);
        metrics::bump(metrics::kRounds);
        Vector<uint64_t> settled = bucket_of(dist, lo, hi);
        if (settled.nvals() != 0) {
            relax(heavy_spmv, settled);
        }

        // Advance to the next non-empty bucket.
        Vector<uint64_t> remaining;
        grb::select_entries(remaining, dist, [hi](Index, uint64_t d) {
            return d >= hi && d != kInf;
        });
        if (remaining.nvals() == 0) {
            break;
        }
        const uint64_t nearest =
            grb::reduce<grb::MinMonoid<uint64_t>>(remaining);
        bucket_index = nearest / delta;
    }

    std::vector<uint64_t> out(n, kInf);
    dist.for_entries([&](Index i, uint64_t d) { out[i] = d; });
    return out;
}

} // namespace

std::vector<uint64_t>
sssp_delta(const Matrix<uint64_t>& A, Index source, uint64_t delta)
{
    return sssp_rounds("la_sssp", A, source, delta);
}

std::vector<uint64_t>
sssp_delta_lazy(const Matrix<uint64_t>& A, Index source, uint64_t delta)
{
    grb::ExecModeScope mode(grb::ExecMode::kNonBlocking);
    return sssp_rounds("la_sssp_lazy", A, source, delta);
}

} // namespace gas::la
