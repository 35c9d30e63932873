#include "lonestar/lonestar.h"

#include <atomic>
#include <span>

#include "check/shadow.h"
#include "graph/node_data.h"
#include "metrics/counters.h"
#include "runtime/insert_bag.h"
#include "runtime/parallel.h"
#include "support/cancel.h"
#include "trace/trace.h"

namespace gas::ls {

using graph::EdgeIdx;
using graph::Graph;
using graph::Node;

std::vector<uint32_t>
bfs(const Graph& graph, Node source)
{
    trace::Span algo(trace::Category::kAlgo, "ls_bfs");
    const Node n = graph.num_nodes();
    graph::NodeData<uint32_t> dist(n, "bfs:dist");

    // Initialize all vertices in parallel (paper Algorithm 1, lines
    // 3-6). Owner-computes: plain writes, disjoint per index.
    {
        check::RegionLabel label("bfs:init");
        rt::do_all_blocked(n, [&](rt::Range range) {
            for (std::size_t v = range.begin; v < range.end; ++v) {
                dist.set(v, kUnreachedLevel);
            }
            metrics::bump(metrics::kLabelWrites, range.size());
        });
    }
    metrics::charge_materialized(n * sizeof(uint32_t));

    dist.set(source, 0);
    rt::InsertBag<Node> bag_a;
    rt::InsertBag<Node> bag_b;
    rt::InsertBag<Node>* curr = &bag_a;
    rt::InsertBag<Node>* next = &bag_b;
    next->push(source);

    uint32_t level = 0;
    check::RegionLabel label("bfs:expand");
    while (!next->empty() && !cancel_requested()) {
        trace::Span round(trace::Category::kRound, "round", level);
        std::swap(curr, next);
        next->clear();
        ++level;
        metrics::bump(metrics::kRounds);

        // One fused loop per round: expand the frontier, update
        // distances, and build the next worklist in a single pass —
        // the composite operator a matrix API needs three calls for.
        // Neighbor labels are shared between concurrent operators, so
        // every access goes through the atomic accessors. Each piece
        // of the frontier first copies the CSR arrays, the level and
        // the label handle into locals: read through the closure's
        // by-reference captures they would be reloaded after every
        // bag push and label CAS. Counters are tallied per piece.
        curr->parallel_apply_spans([&](std::span<const Node> frontier) {
            const EdgeIdx* const row = graph.row_ptr().data();
            const Node* const col = graph.col().data();
            const uint32_t round_level = level;
            const auto labels = dist.view();
            rt::InsertBag<Node>& out = *next;
            uint64_t edges = 0;
            uint64_t claimed = 0;
            for (const Node u : frontier) {
                const EdgeIdx begin = row[u];
                const EdgeIdx end = row[u + 1];
                for (EdgeIdx e = begin; e < end; ++e) {
                    const Node v = col[e];
                    uint32_t expected = kUnreachedLevel;
                    if (labels.load(v) == kUnreachedLevel &&
                        labels.compare_exchange(v, expected,
                                                round_level)) {
                        ++claimed;
                        out.push(v);
                    }
                }
                edges += end - begin;
            }
            metrics::bump(metrics::kWorkItems, frontier.size());
            metrics::bump(metrics::kEdgeVisits, edges);
            metrics::bump(metrics::kLabelReads, edges);
            metrics::bump(metrics::kLabelWrites, claimed);
        });
    }
    return dist.take();
}

} // namespace gas::ls
