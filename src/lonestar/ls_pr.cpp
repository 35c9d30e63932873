#include "lonestar/lonestar.h"

#include "check/shadow.h"
#include "graph/node_data.h"
#include "metrics/counters.h"
#include "runtime/parallel.h"
#include "support/cancel.h"
#include "support/check.h"
#include "trace/trace.h"

namespace gas::ls {

using graph::EdgeIdx;
using graph::Graph;
using graph::Node;

/*
 * Pull-based residual pagerank (the Lonestar pr-pull formulation).
 *
 * Each vertex pulls the previous round's residuals (deltas) from its
 * in-neighbors along the transpose graph; because a vertex writes only
 * its own labels, no atomics are needed. The in-neighbor read touches
 * two fields of the neighbor (its delta and its damping/out-degree
 * coefficient): in the AoS layout they share one 16-byte struct, in
 * the SoA layout they live in separate arrays — the locality contrast
 * behind Fig. 3(a)'s ls vs ls-soa gap.
 *
 * Only the pulled pair (coeff, delta) lives in the gathered struct;
 * the pulled mass (next_delta) and the ranks (also the result) have
 * arrays of their own. Kept in the struct they would double the bytes
 * gathered per in-edge, half of them unread, and on uk07-sized inputs
 * push the gathered array out of L2 beside the streamed column ids.
 *
 * The recurrence matches synchronous power iteration exactly:
 *   rank_1     = base + damping * pull(rank_0 / deg)
 *   rank_{t+1} = rank_t + damping * pull(delta_t / deg)
 *
 * All label traffic is plain (non-atomic): the pull pass reads fields
 * the fold pass of the *previous* region wrote, and regions are
 * separated by the pool barrier, so the checker's epoch fence keeps
 * this clean. Within a region every write targets the owner's index.
 * The checker shadows whole elements, so the pull's writes must not
 * share an array with its neighbor reads: a next_delta field inside
 * the gathered struct would make every owner write of node v conflict
 * with another thread's read of v's (coeff, delta).
 */

std::vector<double>
pagerank(const Graph& graph, const Graph& transpose, double damping,
         unsigned iterations)
{
    GAS_CHECK(graph.num_nodes() == transpose.num_nodes(),
              "graph/transpose mismatch");
    trace::Span algo(trace::Category::kAlgo, "ls_pr");
    const Node n = graph.num_nodes();
    const double base = (1.0 - damping) / n;

    struct PrNode
    {
        double coeff; ///< damping / out-degree (0 for sinks)
        double delta; ///< previous round's rank change
    };
    graph::NodeData<PrNode> data(n, "pr:nodes");
    graph::NodeData<double> next_delta(n, "pr:next_delta");
    graph::NodeData<double> rank(n, "pr:rank");
    metrics::charge_materialized(n * (sizeof(PrNode) + 2 * sizeof(double)));

    {
        check::RegionLabel label("pr:init");
        rt::do_all_blocked(n, [&](rt::Range range) {
            for (std::size_t v = range.begin; v < range.end; ++v) {
                const EdgeIdx degree =
                    graph.out_degree(static_cast<Node>(v));
                PrNode& node = data.mut(v);
                node.coeff = degree == 0
                    ? 0.0
                    : damping / static_cast<double>(degree);
                node.delta = 1.0 / n;
                rank.set(v, 1.0 / n);
            }
            metrics::bump(metrics::kLabelWrites, range.size());
        });
    }

    for (unsigned iter = 0;
         iter < iterations && !cancel_requested(); ++iter) {
        trace::Span round(trace::Category::kRound, "round", iter);
        metrics::bump(metrics::kRounds);

        // Fused pull pass: one loop over in-edges, reading the
        // neighbor's (coeff, delta) pair. Every vertex's next_delta is
        // overwritten here, so the fold never needs to reset it.
        check::RegionLabel pull_label("pr:pull");
        rt::do_all_blocked(n, [&](rt::Range range) {
            uint64_t edges = 0;
            for (std::size_t vi = range.begin; vi < range.end; ++vi) {
                const Node v = static_cast<Node>(vi);
                double pulled = 0.0;
                const EdgeIdx begin = transpose.edge_begin(v);
                const EdgeIdx end = transpose.edge_end(v);
                for (EdgeIdx e = begin; e < end; ++e) {
                    const PrNode& u = data.at(transpose.edge_dst(e));
                    pulled += u.coeff * u.delta;
                }
                next_delta.set(v, pulled);
                edges += end - begin;
            }
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kEdgeVisits, edges);
            metrics::bump(metrics::kLabelReads, edges);
            metrics::bump(metrics::kLabelWrites, range.size());
        });

        // Fold pass: fold the pulled mass into ranks and roll the
        // residual window.
        const bool first = iter == 0;
        check::RegionLabel fold_label("pr:fold");
        rt::do_all_blocked(n, [&](rt::Range range) {
            for (std::size_t v = range.begin; v < range.end; ++v) {
                const double pulled = next_delta.at(v);
                PrNode& node = data.mut(v);
                if (first) {
                    const double folded = base + pulled;
                    rank.set(v, folded);
                    node.delta = folded - 1.0 / n;
                } else {
                    rank.mut(v) += pulled;
                    node.delta = pulled;
                }
            }
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kLabelWrites, range.size());
        });
    }
    return rank.take();
}

std::vector<double>
pagerank_soa(const Graph& graph, const Graph& transpose, double damping,
             unsigned iterations)
{
    GAS_CHECK(graph.num_nodes() == transpose.num_nodes(),
              "graph/transpose mismatch");
    trace::Span algo(trace::Category::kAlgo, "ls_pr_soa");
    const Node n = graph.num_nodes();
    const double base = (1.0 - damping) / n;

    // Structure-of-arrays: identical algorithm, fields split across
    // independent arrays.
    graph::NodeData<double> coeff(n, "pr:coeff");
    graph::NodeData<double> delta(n, "pr:delta");
    graph::NodeData<double> next_delta(n, "pr:next_delta");
    graph::NodeData<double> rank(n, "pr:rank");
    metrics::charge_materialized(n * sizeof(double) * 4);

    {
        check::RegionLabel label("pr:init");
        rt::do_all_blocked(n, [&](rt::Range range) {
            for (std::size_t v = range.begin; v < range.end; ++v) {
                const EdgeIdx degree =
                    graph.out_degree(static_cast<Node>(v));
                coeff.set(v, degree == 0
                              ? 0.0
                              : damping / static_cast<double>(degree));
                delta.set(v, 1.0 / n);
                next_delta.set(v, 0.0);
                rank.set(v, 1.0 / n);
            }
            metrics::bump(metrics::kLabelWrites, 4 * range.size());
        });
    }

    for (unsigned iter = 0;
         iter < iterations && !cancel_requested(); ++iter) {
        trace::Span round(trace::Category::kRound, "round", iter);
        metrics::bump(metrics::kRounds);

        // Every vertex's next_delta is overwritten here, so the fold
        // never needs to reset it (as in the AoS variant).
        check::RegionLabel pull_label("pr:pull");
        rt::do_all_blocked(n, [&](rt::Range range) {
            uint64_t edges = 0;
            for (std::size_t vi = range.begin; vi < range.end; ++vi) {
                const Node v = static_cast<Node>(vi);
                double pulled = 0.0;
                const EdgeIdx begin = transpose.edge_begin(v);
                const EdgeIdx end = transpose.edge_end(v);
                for (EdgeIdx e = begin; e < end; ++e) {
                    const Node u = transpose.edge_dst(e);
                    pulled += coeff.at(u) * delta.at(u);
                }
                next_delta.set(v, pulled);
                edges += end - begin;
            }
            // Two neighbor fields (coeff, delta) read per in-edge.
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kEdgeVisits, edges);
            metrics::bump(metrics::kLabelReads, 2 * edges);
            metrics::bump(metrics::kLabelWrites, range.size());
        });

        const bool first = iter == 0;
        check::RegionLabel fold_label("pr:fold");
        rt::do_all_blocked(n, [&](rt::Range range) {
            for (std::size_t v = range.begin; v < range.end; ++v) {
                if (first) {
                    rank.set(v, base + next_delta.at(v));
                    delta.set(v, rank.at(v) - 1.0 / n);
                } else {
                    rank.mut(v) += next_delta.at(v);
                    delta.set(v, next_delta.at(v));
                }
            }
            // Two label writes (rank, delta) per vertex.
            metrics::bump(metrics::kWorkItems, range.size());
            metrics::bump(metrics::kLabelWrites, 2 * range.size());
        });
    }
    return rank.take();
}

} // namespace gas::ls
