#pragma once

/**
 * @file
 * LAGraph-style graph algorithms written against the matrix API.
 *
 * Each function is a faithful port of the LAGraph variant the paper
 * selects in Section IV:
 *
 *   bfs            the "basic" level-by-level push bfs (Algorithm 2)
 *   cc             FastSV (bulk hooking + fixed-stride pointer jumping)
 *   cc_sv          restricted Shiloach-Vishkin (simpler bulk baseline)
 *   pagerank       topology-driven pr (the Table II "gb" variant)
 *   pagerank_residual  residual/delta formulation (Fig. 3a "gb-res")
 *   sssp_delta     bulk-synchronous delta-stepping (variant 12c)
 *   tc_sandia      SandiaDot: L = tril(A), reduce(C<L> = L * L')
 *   tc_listing     triangle listing on a degree-sorted graph ("gb-ll")
 *   ktruss         round-based support filtering (Jacobi iteration)
 *
 * All functions run on whichever grb backend is active, so the same
 * code serves as "SS" (Reference backend) and "GB" (Parallel backend)
 * in the study.
 */

#include <cstdint>

#include "matrix/grb.h"

namespace gas::la {

/// Distance of unreachable vertices in the bfs/sssp result conventions
/// shared with the oracles (see verify/reference.h).
inline constexpr uint32_t kUnreachedLevel = ~uint32_t{0};
inline constexpr uint64_t kInfDistance = ~uint64_t{0};

/**
 * Level-synchronous bfs (paper Algorithm 2).
 *
 * @return dense vector where the source has value 1, its neighbors 2,
 *         and unreached vertices 0 (the LAGraph convention).
 */
grb::Vector<uint32_t> bfs(const grb::Matrix<uint8_t>& A, grb::Index source);

/// Convert the LAGraph bfs convention (source = 1, unreached = 0) to
/// hop counts (source = 0, unreached = kUnreachedLevel).
std::vector<uint32_t> bfs_levels_from(const grb::Vector<uint32_t>& dist);

/*
 * Direction-optimizing bfs (GraphBLAST style). The three entry points
 * below share one round body (la_bfs.cpp): bfs()'s round of
 * dispatch_spmv + assign_scalar, with dist as both the complemented
 * value mask and the assign target, routed through grb::SpmvDispatcher
 * over (A, At). Push rounds run vxm over @p A; pull rounds run the
 * full-height mxv over the transpose @p At, skipping visited rows and
 * stopping each row scan at the first frontier parent. A thinned
 * dense pull output is sparsified so later rounds can push again. The
 * entry points differ only in who picks the direction and in the
 * execution mode; all return the same dist as bfs().
 */

/// Direction per round from a fixed threshold: pull when the frontier
/// holds more than @p pull_threshold x |V| vertices, else push.
grb::Vector<uint32_t> bfs_pushpull(const grb::Matrix<uint8_t>& A,
                                   const grb::Matrix<uint8_t>& At,
                                   grb::Index source,
                                   double pull_threshold = 0.05);

/// Direction per round from grb::SpmvDispatcher's cost model (frontier
/// out-degree vs. masked pull candidates, with hysteresis). Runs in the
/// caller's execution mode; the default, blocking, is the eager ops
/// counter for counter (no fusion, no recycled buffers). @p force
/// overrides the cost model (the ablation bench's forced-push /
/// forced-pull modes).
grb::Vector<uint32_t> bfs_auto(const grb::Matrix<uint8_t>& A,
                               const grb::Matrix<uint8_t>& At,
                               grb::Index source,
                               grb::Direction force = grb::Direction::kAuto);

/// bfs_auto in non-blocking mode: the lazy fusion planner runs each
/// round's assign inside the SpMV kernel's per-entry sink, one pass per
/// round, the loop fusion of the paper's Section VI recovered from
/// unfused source. Same directions and output as bfs_auto.
grb::Vector<uint32_t> bfs_lazy(const grb::Matrix<uint8_t>& A,
                               const grb::Matrix<uint8_t>& At,
                               grb::Index source,
                               grb::Direction force = grb::Direction::kAuto);

/**
 * Connected components via FastSV. @p A must be a symmetric pattern
 * matrix. @return canonical labels (smallest member id per component).
 */
std::vector<uint32_t> cc_fastsv(const grb::Matrix<uint32_t>& A);

/// Connected components via bulk Shiloach-Vishkin pointer jumping with
/// a fixed number of jump steps per round (the restricted form a
/// matrix API can express).
std::vector<uint32_t> cc_sv(const grb::Matrix<uint32_t>& A);

/**
 * Topology-driven pagerank, @p iterations rounds of power iteration.
 * @param A  adjacency matrix (values ignored, pattern only: the pull
 *           multiplies with PLUS_SECOND, as LAGraph's PageRank does).
 * @param At its transpose (built in preprocessing; pattern only).
 */
std::vector<double> pagerank(const grb::Matrix<double>& A,
                             const grb::Matrix<double>& At, double damping,
                             unsigned iterations);

/// Residual (delta) formulation of pagerank; identical output to
/// pagerank() but with delta vectors carrying per-round changes. A and
/// At: values ignored, pattern only, as for pagerank().
std::vector<double> pagerank_residual(const grb::Matrix<double>& A,
                                      const grb::Matrix<double>& At,
                                      double damping, unsigned iterations);

/// pagerank_residual's loop in non-blocking mode: the per-round
/// eWiseMult and damping apply fold into the pull kernel, whose
/// buffers are recycled round over round. Identical output; A and At
/// are likewise read as patterns only.
std::vector<double> pagerank_residual_lazy(const grb::Matrix<double>& A,
                                           const grb::Matrix<double>& At,
                                           double damping,
                                           unsigned iterations);

/**
 * Bulk-synchronous delta-stepping sssp.
 *
 * @param A     weighted adjacency matrix (weights > 0).
 * @param delta bucket width.
 * @return distances (kInfDistance when unreachable).
 */
std::vector<uint64_t> sssp_delta(const grb::Matrix<uint64_t>& A,
                                 grb::Index source, uint64_t delta);

/// sssp_delta's loop in non-blocking mode: each relaxation's eWiseMult
/// + select pair fuses into one kernel and the SpMV outputs recycle
/// their buffers across rounds. Identical output.
std::vector<uint64_t> sssp_delta_lazy(const grb::Matrix<uint64_t>& A,
                                      grb::Index source, uint64_t delta);

/// Triangle count via SandiaDot on an (optionally pre-sorted) symmetric
/// pattern matrix: count = reduce(C<L> = L * L'), L = tril(A).
uint64_t tc_sandia(const grb::Matrix<uint64_t>& A);

/// Triangle count via triangle listing on a degree-sorted graph: the
/// forward (low-degree to high-degree) orientation keeps intersection
/// lists short. @p A_sorted must be relabeled by ascending degree.
uint64_t tc_listing(const grb::Matrix<uint64_t>& A_sorted);

/**
 * Maximal k-truss via round-based support filtering.
 *
 * @param A symmetric, loop-free pattern matrix.
 * @param k truss parameter (>= 3 for a meaningful filter).
 * @param rounds_out optional out-parameter: rounds executed.
 * @return number of undirected edges in the k-truss.
 */
uint64_t ktruss(const grb::Matrix<uint64_t>& A, uint32_t k,
                uint32_t* rounds_out = nullptr);

/**
 * k-core decomposition via bulk peeling (extension workload).
 * @param A symmetric, loop-free pattern matrix.
 * @return core number of every vertex.
 */
std::vector<uint32_t> core_numbers(const grb::Matrix<uint32_t>& A);

/**
 * Betweenness centrality via the LAGraph-style batched Brandes
 * algorithm (extension workload; the paper's introduction motivates
 * graph analytics with exactly this problem).
 *
 * @param A       adjacency pattern matrix (values ignored).
 * @param At      its transpose (preprocessing).
 * @param sources source vertices whose dependencies are accumulated.
 * @return unnormalized centrality contributions per vertex.
 */
std::vector<double> betweenness(const grb::Matrix<double>& A,
                                const grb::Matrix<double>& At,
                                const std::vector<grb::Index>& sources);

} // namespace gas::la
