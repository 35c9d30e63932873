/**
 * @file
 * End-to-end tests for the LAGraph-style algorithms against the serial
 * oracles, across graph fixtures and both grb backends.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lagraph/lagraph.h"
#include "metrics/counters.h"
#include "runtime/thread_pool.h"
#include "verify/reference.h"

namespace gas {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::Node;

struct Fixture
{
    std::string name;
    EdgeList list; // symmetric, weighted
};

/// Symmetric weighted graphs exercising different structures.
std::vector<Fixture>
fixtures()
{
    std::vector<Fixture> out;
    auto add = [&out](std::string name, EdgeList list) {
        graph::remove_self_loops(list);
        graph::symmetrize(list);
        graph::randomize_weights(list, 7777, 1, 64);
        out.push_back({std::move(name), std::move(list)});
    };
    add("karate", graph::karate_club());
    add("path64", graph::path(64));
    add("grid8x8", graph::grid2d(8, 8, 3, 0.0));
    add("rmat8", graph::rmat(8, 8, 42));
    add("star33", graph::star(33));
    add("two_cliques", [] {
        // Two disjoint K6 cliques plus isolated vertices.
        EdgeList list = graph::complete(6);
        list.num_nodes = 16;
        for (Node u = 6; u < 12; ++u) {
            for (Node v = 6; v < 12; ++v) {
                if (u != v) {
                    list.edges.push_back({u, v, 1});
                }
            }
        }
        return list;
    }());
    add("er300", graph::erdos_renyi(300, 1800, 9));
    return out;
}

struct Case
{
    Fixture fixture;
    grb::Backend backend;
};

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (const auto& fixture : fixtures()) {
        out.push_back({fixture, grb::Backend::kReference});
        out.push_back({fixture, grb::Backend::kParallel});
    }
    return out;
}

class LagraphTest : public ::testing::TestWithParam<Case>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        grb::set_backend(GetParam().backend);
        graph_ = Graph::from_edge_list(GetParam().fixture.list, true);
        graph_.sort_adjacencies();
    }

    void TearDown() override { grb::set_backend(grb::Backend::kParallel); }

    Graph graph_;
};

TEST_P(LagraphTest, BfsMatchesOracle)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const Node source = graph::highest_degree_node(graph_);
    const auto dist = la::bfs(A, source);
    const auto levels = la::bfs_levels_from(dist);
    EXPECT_EQ(levels, verify::bfs_levels(graph_, source));
}

TEST_P(LagraphTest, BfsFromEveryTenthSource)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    for (Node source = 0; source < graph_.num_nodes(); source += 10) {
        const auto levels = la::bfs_levels_from(la::bfs(A, source));
        ASSERT_EQ(levels, verify::bfs_levels(graph_, source))
            << "source " << source;
    }
}

TEST_P(LagraphTest, PushPullBfsMatchesOracle)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const auto At = A.transpose();
    const Node source = graph::highest_degree_node(graph_);
    const auto expected = verify::bfs_levels(graph_, source);
    for (const double threshold : {0.0, 0.05, 1.1}) {
        const auto dist = la::bfs_pushpull(A, At, source, threshold);
        ASSERT_EQ(la::bfs_levels_from(dist), expected)
            << "pull threshold " << threshold;
    }
}

TEST_P(LagraphTest, AutoBfsMatchesOracleInEveryDirectionMode)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const auto At = A.transpose();
    const Node source = graph::highest_degree_node(graph_);
    const auto expected = verify::bfs_levels(graph_, source);
    for (const auto force :
         {grb::Direction::kAuto, grb::Direction::kPush,
          grb::Direction::kPull}) {
        const auto dist = la::bfs_auto(A, At, source, force);
        ASSERT_EQ(la::bfs_levels_from(dist), expected)
            << "forced direction " << static_cast<int>(force);
    }
}

TEST_P(LagraphTest, AutoBfsFromEveryTenthSource)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const auto At = A.transpose();
    for (Node source = 0; source < graph_.num_nodes(); source += 10) {
        const auto levels =
            la::bfs_levels_from(la::bfs_auto(A, At, source));
        ASSERT_EQ(levels, verify::bfs_levels(graph_, source))
            << "source " << source;
    }
}

TEST_P(LagraphTest, ForcedPullBfsRecordsPullSavings)
{
    // Forcing every round to pull must run the masked pull kernel and
    // record what the complemented structural mask saved.
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const auto At = A.transpose();
    const Node source = graph::highest_degree_node(graph_);
    metrics::Interval interval;
    const auto dist = la::bfs_auto(A, At, source, grb::Direction::kPull);
    const auto delta = interval.delta();
    EXPECT_EQ(delta[metrics::kSpmvPushRounds], 0u);
    EXPECT_GT(delta[metrics::kSpmvPullRounds], 0u);
    EXPECT_GT(delta[metrics::kMaskSkippedRows], 0u);
    EXPECT_EQ(la::bfs_levels_from(dist),
              verify::bfs_levels(graph_, source));
}

TEST_P(LagraphTest, LazyBfsMatchesOracle)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const auto At = A.transpose();
    for (Node source = 0; source < graph_.num_nodes(); source += 13) {
        const auto dist = la::bfs_lazy(A, At, source);
        ASSERT_EQ(la::bfs_levels_from(dist),
                  verify::bfs_levels(graph_, source))
            << "source " << source;
    }
}

TEST_P(LagraphTest, LazyBfsNeedsFewerPassesThanBasicBfs)
{
    const auto A = grb::Matrix<uint8_t>::from_graph(graph_, false);
    const auto At = A.transpose();
    const Node source = graph::highest_degree_node(graph_);
    metrics::Interval basic_interval;
    la::bfs(A, source);
    const auto basic = basic_interval.delta();
    metrics::Interval fused_interval;
    la::bfs_lazy(A, At, source, grb::Direction::kPush);
    const auto fused = fused_interval.delta();
    EXPECT_LT(fused[metrics::kPasses], basic[metrics::kPasses]);
}

TEST(LagraphBfs, LazyAndEagerAutoBfsTakeTheSameDirections)
{
    // bfs_auto and bfs_lazy share one round body and differ only in
    // execution mode, so they must agree on the answer *and* on every
    // per-round push/pull decision. The power-law graph makes the
    // dispatcher pull through the frontier's peak and return to push
    // for the tail, which needs the thinned dense pull output
    // sparsified in both modes.
    rt::set_num_threads(4);
    EdgeList list = graph::rmat(13, 16, 2024);
    graph::remove_self_loops(list);
    graph::symmetrize(list);
    const Graph graph = Graph::from_edge_list(list, true);
    const auto A = grb::Matrix<uint8_t>::from_graph(graph, false);
    const auto At = A.transpose();
    const Node source = graph::highest_degree_node(graph);
    for (const auto backend :
         {grb::Backend::kReference, grb::Backend::kParallel}) {
        const grb::BackendScope scope(backend);
        for (const auto force :
             {grb::Direction::kAuto, grb::Direction::kPush,
              grb::Direction::kPull}) {
            metrics::Interval eager_interval;
            const auto eager = la::bfs_auto(A, At, source, force);
            const auto eager_delta = eager_interval.delta();
            metrics::Interval lazy_interval;
            const auto lazy = la::bfs_lazy(A, At, source, force);
            const auto lazy_delta = lazy_interval.delta();
            const int mode = static_cast<int>(force);
            EXPECT_EQ(eager.extract_tuples(), lazy.extract_tuples())
                << "direction mode " << mode;
            EXPECT_EQ(eager_delta[metrics::kSpmvPushRounds],
                      lazy_delta[metrics::kSpmvPushRounds])
                << "direction mode " << mode;
            EXPECT_EQ(eager_delta[metrics::kSpmvPullRounds],
                      lazy_delta[metrics::kSpmvPullRounds])
                << "direction mode " << mode;
            EXPECT_EQ(lazy_delta[metrics::kLazyFallbacks], 0u)
                << "direction mode " << mode;
            if (force == grb::Direction::kAuto) {
                // The case the test exists for: both directions ran.
                EXPECT_GT(eager_delta[metrics::kSpmvPushRounds], 1u);
                EXPECT_GT(eager_delta[metrics::kSpmvPullRounds], 0u);
            }
        }
    }
}

TEST_P(LagraphTest, FastSvMatchesUnionFind)
{
    const auto A = grb::Matrix<uint32_t>::from_graph(graph_, false);
    EXPECT_EQ(la::cc_fastsv(A), verify::connected_components(graph_));
}

TEST_P(LagraphTest, ShiloachVishkinMatchesUnionFind)
{
    const auto A = grb::Matrix<uint32_t>::from_graph(graph_, false);
    EXPECT_EQ(la::cc_sv(A), verify::connected_components(graph_));
}

/// The pagerank matrix of @p graph: unit values, or the fixture's edge
/// weights, which pagerank must ignore (it reads the pattern only).
grb::Matrix<double>
pagerank_matrix(const Graph& graph, bool use_weights)
{
    auto A = grb::Matrix<double>::from_graph(graph, use_weights);
    if (use_weights && A.nvals() != 0) {
        const auto& vals = A.raw_vals();
        EXPECT_TRUE(std::any_of(vals.begin(), vals.end(),
                                [](double v) { return v != 1.0; }))
            << "fixture carries no weights";
    }
    return A;
}

TEST_P(LagraphTest, PagerankMatchesPowerIteration)
{
    const auto expected = verify::pagerank(graph_, 0.85, 10);
    for (const bool use_weights : {false, true}) {
        SCOPED_TRACE(use_weights ? "weighted" : "unit");
        const auto A = pagerank_matrix(graph_, use_weights);
        const auto At = A.transpose();
        const auto ranks = la::pagerank(A, At, 0.85, 10);
        ASSERT_EQ(ranks.size(), expected.size());
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            ASSERT_NEAR(ranks[i], expected[i], 1e-9) << "vertex " << i;
        }
    }
}

TEST_P(LagraphTest, ResidualPagerankMatchesTopologyPagerank)
{
    const auto expected = verify::pagerank(graph_, 0.85, 10);
    for (const bool use_weights : {false, true}) {
        SCOPED_TRACE(use_weights ? "weighted" : "unit");
        const auto A = pagerank_matrix(graph_, use_weights);
        const auto At = A.transpose();
        const auto topo = la::pagerank(A, At, 0.85, 10);
        const auto res = la::pagerank_residual(A, At, 0.85, 10);
        const auto lazy = la::pagerank_residual_lazy(A, At, 0.85, 10);
        ASSERT_EQ(topo.size(), res.size());
        ASSERT_EQ(topo.size(), lazy.size());
        for (std::size_t i = 0; i < topo.size(); ++i) {
            ASSERT_NEAR(topo[i], res[i], 1e-9) << "vertex " << i;
            ASSERT_NEAR(topo[i], lazy[i], 1e-9) << "vertex " << i;
            // Against the oracle too: residual and topology could
            // agree on the same wrong (value-weighted) answer.
            ASSERT_NEAR(res[i], expected[i], 1e-9) << "vertex " << i;
        }
    }
}

TEST_P(LagraphTest, SsspMatchesDijkstra)
{
    const auto A = grb::Matrix<uint64_t>::from_graph(graph_, true);
    const Node source = graph::highest_degree_node(graph_);
    for (const uint64_t delta : {uint64_t{4}, uint64_t{32}, uint64_t{8192}}) {
        const auto dist = la::sssp_delta(A, source, delta);
        const auto expected = verify::dijkstra(graph_, source);
        ASSERT_EQ(dist.size(), expected.size());
        for (std::size_t i = 0; i < dist.size(); ++i) {
            ASSERT_EQ(dist[i], expected[i])
                << "vertex " << i << " delta " << delta;
        }
    }
}

TEST_P(LagraphTest, TriangleCountSandia)
{
    const auto A = grb::Matrix<uint64_t>::from_graph(graph_, false);
    EXPECT_EQ(la::tc_sandia(A), verify::count_triangles(graph_));
}

TEST_P(LagraphTest, TriangleCountListingOnSortedGraph)
{
    const auto relabeled = graph::relabel_by_degree(graph_);
    const auto As =
        grb::Matrix<uint64_t>::from_graph(relabeled.graph, false);
    EXPECT_EQ(la::tc_listing(As), verify::count_triangles(graph_));
}

TEST_P(LagraphTest, KtrussMatchesOracle)
{
    const auto A = grb::Matrix<uint64_t>::from_graph(graph_, false);
    for (const uint32_t k : {3u, 4u, 7u}) {
        uint32_t rounds = 0;
        EXPECT_EQ(la::ktruss(A, k, &rounds),
                  verify::ktruss_edge_count(graph_, k))
            << "k=" << k;
        EXPECT_GE(rounds, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndBackends, LagraphTest, ::testing::ValuesIn(cases()),
    [](const auto& info) {
        return info.param.fixture.name +
            (info.param.backend == grb::Backend::kReference ? "_SS"
                                                            : "_GB");
    });

} // namespace
} // namespace gas
