#include "lagraph/lagraph.h"

#include "metrics/counters.h"
#include "support/cancel.h"
#include "trace/trace.h"

namespace gas::la {

using grb::Descriptor;
using grb::Index;
using grb::Vector;

Vector<uint32_t>
bfs(const grb::Matrix<uint8_t>& A, Index source)
{
    trace::Span algo(trace::Category::kAlgo, "la_bfs");
    const Index n = A.nrows();

    // dist is dense: GrB_assign with GrB_ALL sets every entry to 0
    // ("unvisited"), then the source gets level 1.
    Vector<uint32_t> dist(n);
    grb::assign_scalar<uint32_t, uint8_t>(dist, nullptr, grb::kDefaultDesc,
                                          0u);
    dist.set_element(source, 1);

    Vector<uint8_t> frontier(n);
    frontier.set_element(source, 1);

    // Push-only dispatcher (no transpose registered): every round
    // resolves to vxm, so this stays the paper's pure-push baseline
    // while exercising the same dispatch_spmv entry point the
    // direction-optimizing variants use.
    grb::SpmvDispatcher<uint8_t> spmv(A);

    uint32_t level = 1;
    while (!cancel_requested()) {
        trace::Span round(trace::Category::kRound, "round", level - 1);
        metrics::bump(metrics::kRounds);
        ++level;

        // frontier<!dist, replace> = frontier * A over LOR.LAND: the
        // out-neighbors of the frontier, filtered to unvisited vertices
        // (visited have a non-zero dist, so the complemented mask keeps
        // only zeros).
        spmv.dispatch_spmv<grb::LorLand>(frontier, &dist,
                                         grb::kComplementReplaceDesc,
                                         frontier);

        // Second API call: are there new vertices to visit?
        if (frontier.nvals() == 0) {
            break;
        }

        // Third API call: assign the new level to the new frontier.
        grb::assign_scalar(dist, &frontier, grb::kDefaultDesc, level);
    }
    return dist;
}

/*
 * The same rounds as bfs(), recorded in non-blocking mode: the lazy
 * planner recognizes the dispatch_spmv + assign_scalar chain and runs
 * the assign inside the SpMV kernel's per-entry sink, the fusion a
 * restructuring compiler would synthesize from Algorithm 2 (Section VI
 * of the paper). One kernel pass per round replaces the vxm + assign
 * pair, rounds direction-optimize through the dispatcher, and the
 * previous frontier's storage is recycled into the next round's output.
 */
Vector<uint32_t>
bfs_lazy(const grb::Matrix<uint8_t>& A, const grb::Matrix<uint8_t>& At,
         Index source, grb::Direction force)
{
    trace::Span algo(trace::Category::kAlgo, "la_bfs_lazy");
    grb::ExecModeScope mode(grb::ExecMode::kNonBlocking);
    const Index n = A.nrows();

    Vector<uint32_t> dist(n);
    grb::assign_scalar<uint32_t, uint8_t>(dist, nullptr, grb::kDefaultDesc,
                                          0u);
    dist.set_element(source, 1);

    grb::SpmvDispatcher<uint8_t> spmv(A, At);
    grb::Descriptor desc = grb::kComplementReplaceDesc;
    desc.direction = force;

    // Declared after everything its pending nodes reference (dist,
    // spmv): handle destruction is a flush point and must run first.
    grb::LazyVector<uint8_t> frontier(n);
    frontier.set_element(source, 1);

    uint32_t level = 1;
    while (!cancel_requested()) {
        trace::Span round(trace::Category::kRound, "round", level - 1);
        metrics::bump(metrics::kRounds);
        ++level;

        // Written as the plain three-op round of Algorithm 2; the
        // non-blocking planner recognizes the spmv + assign chain and
        // runs both as one fused kernel when nvals() forces the round.
        grb::lazy::dispatch_spmv<grb::LorLand>(spmv, frontier, &dist,
                                               desc, frontier);
        grb::lazy::assign_scalar(dist, frontier, grb::kDefaultDesc,
                                 level);
        if (frontier.nvals() == 0) {
            break;
        }
    }
    return dist;
}

std::vector<uint32_t>
bfs_levels_from(const Vector<uint32_t>& dist)
{
    std::vector<uint32_t> levels(dist.size(), kUnreachedLevel);
    dist.for_entries([&](Index i, uint32_t value) {
        if (value != 0) {
            levels[i] = value - 1;
        }
    });
    return levels;
}

} // namespace gas::la
