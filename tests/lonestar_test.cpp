/**
 * @file
 * End-to-end tests for the Lonestar-style algorithms against the serial
 * oracles, across graph fixtures and thread counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lonestar/lonestar.h"
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
    EdgeList list;
};

std::vector<Fixture>
fixtures()
{
    std::vector<Fixture> out;
    auto add = [&out](std::string name, EdgeList list) {
        graph::remove_self_loops(list);
        graph::symmetrize(list);
        graph::randomize_weights(list, 4242, 1, 64);
        out.push_back({std::move(name), std::move(list)});
    };
    add("karate", graph::karate_club());
    add("path64", graph::path(64));
    add("grid12x9", graph::grid2d(12, 9, 5, 0.0));
    add("rmat9", graph::rmat(9, 8, 17));
    add("star41", graph::star(41));
    add("er400", graph::erdos_renyi(400, 2400, 23));
    return out;
}

struct Case
{
    Fixture fixture;
    unsigned threads;
};

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (const auto& fixture : fixtures()) {
        out.push_back({fixture, 1});
        out.push_back({fixture, 4});
    }
    return out;
}

class LonestarTest : public ::testing::TestWithParam<Case>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(GetParam().threads);
        graph_ = Graph::from_edge_list(GetParam().fixture.list, true);
        graph_.sort_adjacencies();
    }

    void TearDown() override { rt::set_num_threads(4); }

    Graph graph_;
};

TEST_P(LonestarTest, BfsMatchesOracle)
{
    const Node source = graph::highest_degree_node(graph_);
    EXPECT_EQ(ls::bfs(graph_, source),
              verify::bfs_levels(graph_, source));
}

TEST_P(LonestarTest, BfsFromEveryTenthSource)
{
    for (Node source = 0; source < graph_.num_nodes(); source += 10) {
        ASSERT_EQ(ls::bfs(graph_, source),
                  verify::bfs_levels(graph_, source))
            << "source " << source;
    }
}

TEST_P(LonestarTest, DirectionOptimizingBfsMatchesOracle)
{
    const auto transpose = graph::transpose(graph_);
    for (graph::Node source = 0; source < graph_.num_nodes();
         source += 17) {
        ASSERT_EQ(ls::bfs_dirop(graph_, transpose, source),
                  verify::bfs_levels(graph_, source))
            << "source " << source;
    }
}

TEST_P(LonestarTest, DirectionOptimizingBfsExtremeHeuristics)
{
    const auto transpose = graph::transpose(graph_);
    const graph::Node source = graph::highest_degree_node(graph_);
    const auto expected = verify::bfs_levels(graph_, source);
    // alpha so large it always pulls after round one; beta so large it
    // never switches back.
    EXPECT_EQ(ls::bfs_dirop(graph_, transpose, source, 1u << 30, 1u << 30),
              expected);
    // alpha = 0: never pull (pure top-down).
    EXPECT_EQ(ls::bfs_dirop(graph_, transpose, source, 0, 1), expected);
}

TEST_P(LonestarTest, AfforestMatchesUnionFind)
{
    EXPECT_EQ(ls::cc_afforest(graph_),
              verify::connected_components(graph_));
}

TEST_P(LonestarTest, AfforestWithVariedSamplingRounds)
{
    for (const uint32_t rounds : {0u, 1u, 3u, 8u}) {
        ASSERT_EQ(ls::cc_afforest(graph_, rounds),
                  verify::connected_components(graph_))
            << "sampling rounds " << rounds;
    }
}

TEST_P(LonestarTest, ShiloachVishkinMatchesUnionFind)
{
    EXPECT_EQ(ls::cc_sv(graph_), verify::connected_components(graph_));
}

TEST_P(LonestarTest, PagerankMatchesPowerIteration)
{
    const auto transpose = graph::transpose(graph_);
    const auto ranks = ls::pagerank(graph_, transpose, 0.85, 10);
    const auto expected = verify::pagerank(graph_, 0.85, 10);
    ASSERT_EQ(ranks.size(), expected.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        ASSERT_NEAR(ranks[i], expected[i], 1e-9) << "vertex " << i;
    }
}

TEST_P(LonestarTest, PagerankSoaMatchesAos)
{
    const auto transpose = graph::transpose(graph_);
    const auto aos = ls::pagerank(graph_, transpose, 0.85, 10);
    const auto soa = ls::pagerank_soa(graph_, transpose, 0.85, 10);
    // Same products and sums in the same per-vertex order: the layouts
    // must agree bit for bit, not just within rounding.
    ASSERT_EQ(aos.size(), soa.size());
    for (std::size_t i = 0; i < aos.size(); ++i) {
        ASSERT_EQ(aos[i], soa[i]) << "vertex " << i;
    }
}

TEST_P(LonestarTest, SsspMatchesDijkstra)
{
    const Node source = graph::highest_degree_node(graph_);
    const auto expected = verify::dijkstra(graph_, source);
    for (const uint64_t delta : {uint64_t{1}, uint64_t{16}, uint64_t{8192}}) {
        ls::SsspOptions options;
        options.delta = delta;
        ASSERT_EQ(ls::sssp(graph_, source, options), expected)
            << "delta " << delta;
    }
}

TEST_P(LonestarTest, SsspWithoutTilingMatchesDijkstra)
{
    const Node source = graph::highest_degree_node(graph_);
    ls::SsspOptions options;
    options.edge_tile_size = 0;
    EXPECT_EQ(ls::sssp(graph_, source, options),
              verify::dijkstra(graph_, source));
}

TEST_P(LonestarTest, SsspTinyTilesMatchDijkstra)
{
    const Node source = graph::highest_degree_node(graph_);
    ls::SsspOptions options;
    options.edge_tile_size = 2; // stress continuation items
    EXPECT_EQ(ls::sssp(graph_, source, options),
              verify::dijkstra(graph_, source));
}

TEST_P(LonestarTest, TriangleCountMatchesOracle)
{
    const auto forward = ls::build_forward_graph(graph_);
    EXPECT_EQ(ls::tc(forward), verify::count_triangles(graph_));
}

TEST_P(LonestarTest, KtrussMatchesOracle)
{
    for (const uint32_t k : {3u, 4u, 7u}) {
        uint32_t rounds = 0;
        EXPECT_EQ(ls::ktruss(graph_, k, &rounds),
                  verify::ktruss_edge_count(graph_, k))
            << "k=" << k;
        EXPECT_GE(rounds, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(GraphsAndThreads, LonestarTest,
                         ::testing::ValuesIn(cases()),
                         [](const auto& info) {
                             return info.param.fixture.name + "_t" +
                                 std::to_string(info.param.threads);
                         });

/// The four counters both bfs loops tally per frontier piece.
std::array<uint64_t, 4>
bfs_counters(const metrics::Interval& interval)
{
    const metrics::Snapshot delta = interval.delta();
    return {delta[metrics::kWorkItems], delta[metrics::kEdgeVisits],
            delta[metrics::kLabelReads], delta[metrics::kLabelWrites]};
}

// The bfs loops tally their counters once per frontier piece (or block
// of the pull step), and the pieces follow the thread count: the
// levels and the counter totals must not.
TEST(LonestarBfsPieces, LevelsAndCountersEqualAcrossThreadCounts)
{
    // bfs_dirop (alpha, beta): the defaults; pull and push rounds
    // alternating (a huge alpha pulls whenever the frontier has an
    // edge, beta 1 returns to push whenever it is not the whole
    // graph); push only.
    constexpr std::array<std::pair<unsigned, unsigned>, 3> kHeuristics = {
        {{15, 18}, {1u << 30, 1}, {0, 1}}};
    for (const auto& fixture : fixtures()) {
        Graph graph = Graph::from_edge_list(fixture.list, true);
        graph.sort_adjacencies();
        const Graph transpose = graph::transpose(graph);
        const Node source = graph::highest_degree_node(graph);
        const auto expected = verify::bfs_levels(graph, source);

        std::vector<std::array<uint64_t, 4>> at_one_thread;
        for (const unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(fixture.name + " t" + std::to_string(threads));
            rt::set_num_threads(threads);
            std::vector<std::array<uint64_t, 4>> totals;

            const metrics::Interval push;
            EXPECT_EQ(ls::bfs(graph, source), expected);
            totals.push_back(bfs_counters(push));
            for (const auto& [alpha, beta] : kHeuristics) {
                const metrics::Interval dirop;
                EXPECT_EQ(ls::bfs_dirop(graph, transpose, source, alpha,
                                        beta),
                          expected)
                    << "alpha " << alpha << " beta " << beta;
                totals.push_back(bfs_counters(dirop));
            }

            if (threads == 1) {
                at_one_thread = totals;
                EXPECT_GT(totals.front()[1], 0u);
            } else {
                EXPECT_EQ(totals, at_one_thread);
            }
        }
    }
    rt::set_num_threads(4);
}

} // namespace
} // namespace gas
