#include "lonestar/lonestar.h"

#include <atomic>
#include <span>

#include "metrics/counters.h"
#include "runtime/insert_bag.h"
#include "runtime/parallel.h"
#include "runtime/reducers.h"
#include "support/cancel.h"
#include "trace/trace.h"

namespace gas::ls {

using graph::EdgeIdx;
using graph::Graph;
using graph::Node;

/*
 * Direction-optimizing bfs (Beamer et al.), the optimization the
 * paper's related work attributes to GraphBLAST: when the frontier
 * becomes a large fraction of the graph, switch from top-down
 * (push: frontier scans its out-edges) to bottom-up (pull: every
 * unvisited vertex scans its in-edges and stops at the first visited
 * parent). Early exit in the pull step is another fused-loop trick a
 * bulk matrix API cannot express directly.
 */

std::vector<uint32_t>
bfs_dirop(const Graph& graph, const Graph& transpose, Node source,
          unsigned alpha, unsigned beta)
{
    trace::Span algo(trace::Category::kAlgo, "ls_bfs_dirop");
    const Node n = graph.num_nodes();
    std::vector<uint32_t> dist(n);
    rt::do_all(n, [&](std::size_t v) {
        dist[v] = kUnreachedLevel;
        metrics::bump(metrics::kLabelWrites);
    });
    metrics::charge_materialized(n * sizeof(uint32_t));
    dist[source] = 0;

    rt::InsertBag<Node> bag_a;
    rt::InsertBag<Node> bag_b;
    rt::InsertBag<Node>* curr = &bag_a;
    rt::InsertBag<Node>* next = &bag_b;
    next->push(source);

    uint64_t frontier_edges = graph.out_degree(source);
    uint64_t unexplored_edges = graph.num_edges();
    bool bottom_up = false;
    uint32_t level = 0;
    std::size_t frontier_size = 1;

    while (frontier_size != 0 && !cancel_requested()) {
        trace::Span round(trace::Category::kRound, "round", level);
        std::swap(curr, next);
        next->clear();
        ++level;
        metrics::bump(metrics::kRounds);

        // Heuristic switches (GAP-style): go bottom-up when the
        // frontier's edges dominate the unexplored edges; return
        // top-down when the frontier shrinks again.
        if (!bottom_up && frontier_edges * alpha > unexplored_edges) {
            bottom_up = true;
        } else if (bottom_up &&
                   frontier_size * beta < static_cast<std::size_t>(n)) {
            bottom_up = false;
        }

        // Both steps copy the CSR arrays, the labels and the levels
        // into locals per block (as ls::bfs does), so the edge loops
        // read no pointer through the closure, and tally their
        // counters per block.
        rt::Accumulator<uint64_t> next_edges;
        if (bottom_up) {
            // Pull: every unvisited vertex probes its in-neighbors and
            // stops at the first one on the current level.
            rt::do_all_blocked(n, [&](rt::Range range) {
                const EdgeIdx* const in_row = transpose.row_ptr().data();
                const Node* const in_col = transpose.col().data();
                const EdgeIdx* const out_row = graph.row_ptr().data();
                uint32_t* const labels = dist.data();
                const uint32_t round_level = level;
                const uint32_t parent_level = level - 1;
                rt::InsertBag<Node>& out = *next;
                uint64_t probed = 0;
                uint64_t unvisited = 0;
                uint64_t found = 0;
                uint64_t found_edges = 0;
                for (std::size_t vi = range.begin; vi < range.end; ++vi) {
                    const Node v = static_cast<Node>(vi);
                    if (labels[v] != kUnreachedLevel) {
                        continue;
                    }
                    ++unvisited;
                    const EdgeIdx begin = in_row[v];
                    const EdgeIdx end = in_row[v + 1];
                    EdgeIdx e = begin;
                    for (; e < end; ++e) {
                        // Neighbor labels are written concurrently by
                        // their own threads (line below); relaxed
                        // atomics keep the probe race-free. Only
                        // level-(parent_level) parents can satisfy the
                        // probe, so the weak ordering cannot admit a
                        // wrong level.
                        const Node parent = in_col[e];
                        if (std::atomic_ref<uint32_t>(labels[parent])
                                .load(std::memory_order_relaxed) ==
                            parent_level) {
                            std::atomic_ref<uint32_t>(labels[v]).store(
                                round_level, std::memory_order_relaxed);
                            out.push(v);
                            ++found;
                            found_edges += out_row[v + 1] - out_row[v];
                            ++e; // the hit was probed too
                            break; // early exit: the fused-loop advantage
                        }
                    }
                    probed += e - begin;
                }
                next_edges += found_edges;
                metrics::bump(metrics::kWorkItems, unvisited);
                metrics::bump(metrics::kEdgeVisits, probed);
                metrics::bump(metrics::kLabelReads, probed);
                metrics::bump(metrics::kLabelWrites, found);
            });
        } else {
            curr->parallel_apply_spans([&](std::span<const Node> frontier) {
                const EdgeIdx* const row = graph.row_ptr().data();
                const Node* const col = graph.col().data();
                uint32_t* const labels = dist.data();
                const uint32_t round_level = level;
                rt::InsertBag<Node>& out = *next;
                uint64_t edges = 0;
                uint64_t claimed = 0;
                uint64_t claimed_edges = 0;
                for (const Node u : frontier) {
                    const EdgeIdx begin = row[u];
                    const EdgeIdx end = row[u + 1];
                    for (EdgeIdx e = begin; e < end; ++e) {
                        const Node v = col[e];
                        std::atomic_ref<uint32_t> dst(labels[v]);
                        uint32_t expected = kUnreachedLevel;
                        if (dst.load(std::memory_order_relaxed) ==
                                kUnreachedLevel &&
                            dst.compare_exchange_strong(
                                expected, round_level,
                                std::memory_order_relaxed)) {
                            ++claimed;
                            out.push(v);
                            claimed_edges += row[v + 1] - row[v];
                        }
                    }
                    edges += end - begin;
                }
                next_edges += claimed_edges;
                metrics::bump(metrics::kWorkItems, frontier.size());
                metrics::bump(metrics::kEdgeVisits, edges);
                metrics::bump(metrics::kLabelReads, edges);
                metrics::bump(metrics::kLabelWrites, claimed);
            });
        }

        unexplored_edges -= std::min<uint64_t>(frontier_edges,
                                               unexplored_edges);
        frontier_edges = next_edges.reduce();
        frontier_size = next->size();
    }
    return dist;
}

} // namespace gas::ls
