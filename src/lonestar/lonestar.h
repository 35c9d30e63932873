#pragma once

/**
 * @file
 * Lonestar-style graph algorithms written against the graph API
 * (worklists, do_all, asynchronous for_each, fine-grained operators).
 *
 * Each function mirrors the Lonestar variant the paper benchmarks:
 *
 *   bfs             round-based data-driven, fused loop (Algorithm 1)
 *   cc_afforest     Afforest: sampled union-find + targeted finish
 *   cc_sv           asynchronous Shiloach-Vishkin with unbounded
 *                   pointer jumping (Fig. 3c "ls-sv")
 *   pagerank        pull residual, the pulled (coeff, delta) pair in
 *                   one array of structs ("ls")
 *   pagerank_soa    same, every field its own array ("ls-soa")
 *   sssp            asynchronous delta-stepping on the OBIM worklist,
 *                   optional edge tiling ("ls" / "ls-notile")
 *   tc              fused triangle listing on a degree-sorted forward
 *                   graph (no materialization, global counter)
 *   ktruss          round-based with immediate (Gauss-Seidel) edge
 *                   removal
 *
 * Results use the same conventions as verify/reference.h so tests and
 * benches can compare all three systems directly.
 */

#include <cstdint>
#include <vector>

#include "graph/builder.h"
#include "graph/csr_graph.h"

namespace gas::ls {

inline constexpr uint32_t kUnreachedLevel = ~uint32_t{0};
inline constexpr uint64_t kInfDistance = ~uint64_t{0};

/// Hop counts from @p source (kUnreachedLevel when unreachable).
std::vector<uint32_t> bfs(const graph::Graph& graph, graph::Node source);

/**
 * Direction-optimizing bfs (Beamer-style push/pull switching).
 * @param transpose the reverse graph, used by the bottom-up (pull)
 *        phase; pass the graph itself when it is symmetric.
 * @param alpha switch to bottom-up when frontier edges x alpha exceed
 *        the unexplored edges.
 * @param beta  switch back to top-down when the frontier shrinks below
 *        |V| / beta.
 */
std::vector<uint32_t> bfs_dirop(const graph::Graph& graph,
                                const graph::Graph& transpose,
                                graph::Node source, unsigned alpha = 15,
                                unsigned beta = 18);

/// Connected components via Afforest (random neighbor sampling, then
/// finishing only outside the largest intermediate component).
/// @return canonical labels. @pre graph is symmetric.
std::vector<graph::Node> cc_afforest(const graph::Graph& graph,
                                     uint32_t sampling_rounds = 2);

/// Connected components via asynchronous Shiloach-Vishkin: label
/// hooking with immediately visible updates plus unbounded pointer
/// jumping. @pre graph is symmetric.
std::vector<graph::Node> cc_sv(const graph::Graph& graph);

/// Pull-based residual pagerank; matches verify::pagerank exactly
/// after the same number of iterations. Each in-edge gathers its
/// neighbor's (coeff, delta) pair from one 16-byte struct; the pulled
/// mass and the ranks live in separate arrays, so the pull never reads
/// a field it does not use. Bit-identical to pagerank_soa.
/// @param transpose the reverse graph (in-edges), built in
///        preprocessing.
std::vector<double> pagerank(const graph::Graph& graph,
                             const graph::Graph& transpose, double damping,
                             unsigned iterations);

/// Pull-based residual pagerank with structure-of-arrays node data
/// (Fig. 3a "ls-soa"): coeff and delta are gathered from two arrays.
std::vector<double> pagerank_soa(const graph::Graph& graph,
                                 const graph::Graph& transpose,
                                 double damping, unsigned iterations);

/// Options for asynchronous delta-stepping.
struct SsspOptions
{
    uint64_t delta{8192};
    /// Split edges of high-degree vertices into tiles of this many
    /// edges; 0 disables tiling (the paper's "ls-notile").
    uint32_t edge_tile_size{256};
};

/// Asynchronous delta-stepping sssp (OBIM scheduling).
/// @pre graph.has_weights(). @return distances per the oracle
/// convention.
std::vector<uint64_t> sssp(const graph::Graph& graph, graph::Node source,
                           const SsspOptions& options = {});

/**
 * Preprocessed input for triangle counting / k-truss: vertices
 * relabeled by ascending degree and only "forward" (low-rank to
 * high-rank) edges kept, adjacencies sorted.
 */
struct ForwardGraph
{
    graph::Graph forward;
};

/// Build the forward graph from a symmetric simple graph
/// (preprocessing; excluded from timed regions like in the paper).
ForwardGraph build_forward_graph(const graph::Graph& graph);

/// Fused triangle counting: intersects forward adjacency lists into a
/// global reducer. No intermediate matrices are materialized.
uint64_t tc(const ForwardGraph& input);

/// Round-based k-truss with immediate edge removal (removals are
/// visible to other threads within the same round).
/// @pre graph symmetric, simple, adjacencies sorted.
/// @param rounds_out optional out-parameter: rounds executed.
/// @return number of undirected edges in the k-truss.
uint64_t ktruss(const graph::Graph& graph, uint32_t k,
                uint32_t* rounds_out = nullptr);

/**
 * k-core decomposition via asynchronous peeling cascades (extension
 * workload). @pre graph is symmetric and simple.
 * @return core number of every vertex.
 */
std::vector<uint32_t> core_numbers(const graph::Graph& graph);

/**
 * Betweenness centrality (Brandes) with level-synchronous forward
 * sweeps and fused backward dependency accumulation (extension
 * workload).
 *
 * @param sources source vertices whose dependencies are accumulated.
 * @return unnormalized centrality contributions per vertex.
 */
std::vector<double> betweenness(const graph::Graph& graph,
                                const std::vector<graph::Node>& sources);

} // namespace gas::ls
