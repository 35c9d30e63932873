#include "lagraph/lagraph.h"

#include <optional>

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

namespace {

/*
 * The round body of bfs_auto, bfs_lazy and bfs_pushpull: bfs()'s round
 * (dist is the complemented value mask and the assign target) through
 * the grb::lazy recorders and a dispatcher over (A, At). The caller's
 * grb::ExecModeScope picks the execution: blocking runs each recorder
 * on the spot; non-blocking runs the assign in the SpMV kernel's sink,
 * one pass per round. A pull round writes a dense frontier; once it
 * thins below n/16 it is sparsified, because the dispatcher pulls any
 * dense frontier and would never return to push. @p pull_threshold,
 * when set, forces each round's direction from the frontier size.
 */
Vector<uint32_t>
bfs_rounds(const char* span_name, const grb::Matrix<uint8_t>& A,
           const grb::Matrix<uint8_t>& At, Index source,
           grb::Direction force, std::optional<double> pull_threshold)
{
    trace::Span algo(trace::Category::kAlgo, span_name);
    const Index n = A.nrows();

    Vector<uint32_t> dist(n);
    grb::assign_scalar<uint32_t, uint8_t>(dist, nullptr, grb::kDefaultDesc,
                                          0u);
    dist.set_element(source, 1);

    grb::SpmvDispatcher<uint8_t> spmv(A, At);
    Descriptor desc = grb::kComplementReplaceDesc;
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

        if (pull_threshold.has_value()) {
            desc.direction =
                static_cast<double>(frontier.nvals()) > *pull_threshold * n
                ? grb::Direction::kPull
                : grb::Direction::kPush;
        }
        grb::lazy::dispatch_spmv<grb::LorLand>(spmv, frontier, &dist,
                                               desc, frontier);
        grb::lazy::assign_scalar(dist, frontier, grb::kDefaultDesc,
                                 level);
        const grb::Nnz found = frontier.nvals();
        if (found == 0) {
            break;
        }
        // A forced pull keeps its dense frontier: mxv reads it as is
        // and would only densify a sparse one again.
        if (force != grb::Direction::kPull &&
            frontier.value().format() == grb::VectorFormat::kDense &&
            found * 16 < static_cast<uint64_t>(n)) {
            frontier.sparsify();
        }
    }
    return dist;
}

} // namespace

Vector<uint32_t>
bfs_pushpull(const grb::Matrix<uint8_t>& A, const grb::Matrix<uint8_t>& At,
             Index source, double pull_threshold)
{
    return bfs_rounds("la_bfs_pushpull", A, At, source,
                      grb::Direction::kAuto, pull_threshold);
}

Vector<uint32_t>
bfs_auto(const grb::Matrix<uint8_t>& A, const grb::Matrix<uint8_t>& At,
         Index source, grb::Direction force)
{
    return bfs_rounds("la_bfs_auto", A, At, source, force, std::nullopt);
}

Vector<uint32_t>
bfs_lazy(const grb::Matrix<uint8_t>& A, const grb::Matrix<uint8_t>& At,
         Index source, grb::Direction force)
{
    grb::ExecModeScope mode(grb::ExecMode::kNonBlocking);
    return bfs_rounds("la_bfs_lazy", A, At, source, force, std::nullopt);
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
