/**
 * @file
 * Tests for the GAS_CHECK race detector and schedule fuzzer.
 *
 * The protocol tests and the positive/negative detection tests only
 * mean something in a checked build, so they are compiled under
 * GAS_CHECK_ENABLED; the unchecked build instead verifies that the
 * whole check API is present, inert, and free (accessors still behave
 * as plain/atomic array operations).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "check/fuzz.h"
#include "check/shadow.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/node_data.h"
#include "graph/properties.h"
#include "lonestar/lonestar.h"
#include "runtime/for_each.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "verify/reference.h"

namespace gas {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::Node;

class CheckTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        check::clear();
        check::fuzz::set_seed(0);
    }

    void TearDown() override
    {
        check::clear();
        check::fuzz::set_seed(0);
        rt::set_num_threads(4);
    }
};

#if defined(GAS_CHECK_ENABLED)

TEST_F(CheckTest, BuildIsChecked)
{
    EXPECT_TRUE(check::enabled());
}

TEST_F(CheckTest, ConcurrentPlainWritesSameElementFlagged)
{
    // Every thread plain-writes element 0 in the same region: a
    // guaranteed-concurrent write/write conflict, flagged regardless of
    // the actual interleaving.
    graph::NodeData<uint32_t> data(8, "test:ww");
    rt::on_each([&](unsigned tid, unsigned) { data.set(0, tid); });
    EXPECT_GE(check::race_count(), 1u);
    const std::vector<check::RaceRecord> records = check::races();
    ASSERT_FALSE(records.empty());
    const check::RaceRecord& record = records.front();
    EXPECT_STREQ(record.array_name, "test:ww");
    EXPECT_EQ(record.index, 0u);
    EXPECT_NE(record.prior_tid, record.current_tid);
    EXPECT_FALSE(check::report().empty());
}

TEST_F(CheckTest, DisjointPlainWritesClean)
{
    // Owner-computes: each thread writes only its own index.
    graph::NodeData<uint32_t> data(64, "test:disjoint");
    rt::on_each([&](unsigned tid, unsigned) {
        data.set(tid, tid);
        EXPECT_EQ(data.get(tid), tid);
    });
    EXPECT_EQ(check::race_count(), 0u);
    EXPECT_TRUE(check::report().empty());
}

TEST_F(CheckTest, AtomicAccessesNeverConflict)
{
    graph::NodeData<uint32_t> data(4, "test:atomic");
    rt::on_each([&](unsigned tid, unsigned) {
        data.store(0, tid);
        (void)data.load(0);
        uint32_t expected = data.load(0);
        data.compare_exchange_weak(0, expected, tid);
    });
    EXPECT_EQ(check::race_count(), 0u);
}

TEST_F(CheckTest, PlainWriteVsAtomicReadFlagged)
{
    // Thread 0 plain-writes while the others atomically read: atomicity
    // on one side only does not synchronize.
    graph::NodeData<uint32_t> data(4, "test:wr");
    rt::on_each([&](unsigned tid, unsigned) {
        if (tid == 0) {
            data.set(0, 1);
        } else {
            (void)data.load(0);
        }
    });
    EXPECT_GE(check::race_count(), 1u);
}

TEST_F(CheckTest, ViewAccessesRecordLikeTheWrapper)
{
    // A hot loop's local copy of the view must keep the recording: its
    // atomic load and CAS still conflict with another thread's plain
    // write of the same element in the same region, and never with
    // each other.
    graph::NodeData<uint32_t> data(4, "test:view");
    const auto view = data.view();
    rt::on_each([&](unsigned tid, unsigned) {
        if (tid == 0) {
            data.set(0, 1);
        } else {
            (void)view.load(0);
        }
    });
    ASSERT_GE(check::race_count(), 1u);
    EXPECT_STREQ(check::races().front().array_name, "test:view");
    EXPECT_EQ(check::races().front().index, 0u);

    check::clear();
    rt::on_each([&](unsigned tid, unsigned) {
        if (tid == 0) {
            data.set(1, 1);
        } else {
            uint32_t expected = 0;
            (void)view.compare_exchange(1, expected, tid);
        }
    });
    ASSERT_GE(check::race_count(), 1u);
    EXPECT_EQ(check::races().front().index, 1u);

    check::clear();
    rt::on_each([&](unsigned tid, unsigned) {
        uint32_t expected = view.load(2);
        (void)view.compare_exchange(2, expected, tid);
    });
    EXPECT_EQ(check::race_count(), 0u) << check::report();
}

TEST_F(CheckTest, PlainReadersOnlyClean)
{
    graph::NodeData<uint32_t> data(4, 7u, "test:readers");
    rt::on_each([&](unsigned, unsigned) {
        EXPECT_EQ(data.get(0), 7u);
        EXPECT_EQ(data.at(0), 7u);
    });
    EXPECT_EQ(check::race_count(), 0u);
}

TEST_F(CheckTest, EpochFenceSeparatesRegions)
{
    // The same element is plain-written by different threads, but in
    // *different* parallel regions: the pool barrier between regions
    // orders them, and the epoch fence encodes exactly that.
    graph::NodeData<uint32_t> data(4, "test:epochs");
    const uint32_t before = check::current_epoch();
    rt::on_each([&](unsigned tid, unsigned) {
        if (tid == 0) {
            data.set(0, 1);
        }
    });
    rt::on_each([&](unsigned tid, unsigned) {
        if (tid == 1) {
            data.set(0, 2);
        }
    });
    EXPECT_EQ(check::race_count(), 0u);
    // Entry and exit of each region both advance the epoch.
    EXPECT_GE(check::current_epoch(), before + 4);
}

TEST_F(CheckTest, ClearResetsRacesAndReport)
{
    graph::NodeData<uint32_t> data(2, "test:clear");
    rt::on_each([&](unsigned, unsigned) { data.set(0, 1); });
    ASSERT_GE(check::race_count(), 1u);
    check::clear();
    EXPECT_EQ(check::race_count(), 0u);
    EXPECT_TRUE(check::races().empty());
    EXPECT_TRUE(check::report().empty());
}

TEST_F(CheckTest, RegionLabelAppearsInRecords)
{
    graph::NodeData<uint32_t> data(2, "test:label");
    {
        check::RegionLabel label("unit:racy-loop");
        rt::on_each([&](unsigned, unsigned) { data.set(0, 1); });
    }
    const std::vector<check::RaceRecord> records = check::races();
    ASSERT_FALSE(records.empty());
    EXPECT_STREQ(records.front().label, "unit:racy-loop");
}

// The positive detection target: a deliberately racy push-style
// operator that plain-writes shared neighbor labels from for_each
// (the bug class the checker exists for). Must be flagged within a
// small number of fuzzer seeds.
TEST_F(CheckTest, RacyPushOperatorFlaggedWithinSeeds)
{
    // A star graph funnels every operator into the hub's neighborhood,
    // so plain writes to shared labels collide across threads.
    EdgeList list = graph::star(64);
    graph::symmetrize(list);
    const Graph graph = Graph::from_edge_list(list, false);
    const Node n = graph.num_nodes();

    bool flagged = false;
    for (uint64_t seed = 1; seed <= 8 && !flagged; ++seed) {
        check::clear();
        check::fuzz::set_seed(seed);
        graph::NodeData<uint32_t> level(n, 0u, "racy:level");
        std::vector<Node> initial(n);
        std::iota(initial.begin(), initial.end(), Node{0});
        rt::for_each<Node>(
            initial, [&](Node u, rt::UserContext<Node>& ctx) {
                (void)ctx;
                const auto begin = graph.edge_begin(u);
                const auto end = graph.edge_end(u);
                for (auto e = begin; e < end; ++e) {
                    const Node v = graph.edge_dst(e);
                    // BUG (deliberate): unsynchronized read-modify-write
                    // of a neighbor label from an asynchronous operator.
                    level.set(v, level.get(v) + 1);
                }
            });
        flagged = check::race_count() > 0;
    }
    EXPECT_TRUE(flagged)
        << "racy operator escaped detection for all seeds";
    check::fuzz::set_seed(0);
}

// Negative suite: checked builds of the six study workloads must come
// up clean — their shared accesses all go through atomic accessors.
class CheckWorkloadTest : public CheckTest
{
  protected:
    void SetUp() override
    {
        CheckTest::SetUp();
        EdgeList list = graph::rmat(8, 8, 17);
        graph::remove_self_loops(list);
        graph::symmetrize(list);
        graph::randomize_weights(list, 4242, 1, 64);
        graph_ = Graph::from_edge_list(list, true);
        graph_.sort_adjacencies();
    }

    Graph graph_;
};

TEST_F(CheckWorkloadTest, BfsClean)
{
    const Node source = graph::highest_degree_node(graph_);
    const auto levels = ls::bfs(graph_, source);
    EXPECT_EQ(levels, verify::bfs_levels(graph_, source));
    EXPECT_EQ(check::race_count(), 0u) << check::report();
}

TEST_F(CheckWorkloadTest, SsspClean)
{
    const Node source = graph::highest_degree_node(graph_);
    const auto dist = ls::sssp(graph_, source, {});
    EXPECT_EQ(dist, verify::dijkstra(graph_, source));
    EXPECT_EQ(check::race_count(), 0u) << check::report();
}

TEST_F(CheckWorkloadTest, CcClean)
{
    const auto oracle = verify::connected_components(graph_);
    EXPECT_EQ(ls::cc_afforest(graph_), oracle);
    EXPECT_EQ(check::race_count(), 0u) << check::report();
    EXPECT_EQ(ls::cc_sv(graph_), oracle);
    EXPECT_EQ(check::race_count(), 0u) << check::report();
}

TEST_F(CheckWorkloadTest, PagerankClean)
{
    const auto transpose = graph::transpose(graph_);
    const auto aos = ls::pagerank(graph_, transpose, 0.85, 10);
    EXPECT_EQ(check::race_count(), 0u) << check::report();
    const auto soa = ls::pagerank_soa(graph_, transpose, 0.85, 10);
    EXPECT_EQ(check::race_count(), 0u) << check::report();
    ASSERT_EQ(aos.size(), soa.size());
    for (std::size_t i = 0; i < aos.size(); ++i) {
        EXPECT_EQ(aos[i], soa[i]) << "vertex " << i;
    }
}

TEST_F(CheckWorkloadTest, TcClean)
{
    const auto fwd = ls::build_forward_graph(graph_);
    const uint64_t triangles = ls::tc(fwd);
    EXPECT_EQ(triangles, verify::count_triangles(graph_));
    EXPECT_EQ(check::race_count(), 0u) << check::report();
}

TEST_F(CheckWorkloadTest, KtrussClean)
{
    const uint64_t edges = ls::ktruss(graph_, 3, nullptr);
    EXPECT_EQ(edges, verify::ktruss_edge_count(graph_, 3));
    EXPECT_EQ(check::race_count(), 0u) << check::report();
}

// And clean under active fuzzing: perturbation must not manufacture
// false positives or break scheduler correctness.
TEST_F(CheckWorkloadTest, SixWorkloadsCleanUnderFuzzing)
{
    const Node source = graph::highest_degree_node(graph_);
    const auto transpose = graph::transpose(graph_);
    const auto fwd = ls::build_forward_graph(graph_);
    for (const uint64_t seed : {1u, 2u, 3u}) {
        check::fuzz::set_seed(seed);
        check::clear();
        EXPECT_EQ(ls::bfs(graph_, source),
                  verify::bfs_levels(graph_, source));
        EXPECT_EQ(ls::sssp(graph_, source, {}),
                  verify::dijkstra(graph_, source));
        EXPECT_EQ(ls::cc_afforest(graph_),
                  verify::connected_components(graph_));
        EXPECT_EQ(ls::tc(fwd), verify::count_triangles(graph_));
        EXPECT_EQ(ls::ktruss(graph_, 3, nullptr),
                  verify::ktruss_edge_count(graph_, 3));
        (void)ls::pagerank(graph_, transpose, 0.85, 5);
        EXPECT_EQ(check::race_count(), 0u)
            << "seed " << seed << "\n" << check::report();
    }
    check::fuzz::set_seed(0);
}

TEST_F(CheckTest, FuzzerStreamsAreDeterministic)
{
    // Each thread's decision stream is a pure function of (seed, tid):
    // two runs with the same seed see identical decisions.
    constexpr int kDraws = 256;
    auto sample = [&](uint64_t seed) {
        check::fuzz::set_seed(seed);
        std::vector<std::vector<uint32_t>> per_thread(4);
        rt::on_each([&](unsigned tid, unsigned) {
            auto& out = per_thread[tid];
            out.reserve(kDraws * 2);
            for (int i = 0; i < kDraws; ++i) {
                out.push_back(check::fuzz::victim_offset(8, 1));
                out.push_back(
                    check::fuzz::force_steal_fail() ? 1u : 0u);
            }
        });
        return per_thread;
    };
    const auto first = sample(42);
    const auto second = sample(42);
    EXPECT_EQ(first, second);
    const auto other = sample(43);
    EXPECT_NE(first, other);
    check::fuzz::set_seed(0);
}

TEST_F(CheckTest, FuzzerSeedZeroIsIdentity)
{
    check::fuzz::set_seed(0);
    EXPECT_FALSE(check::fuzz::active());
    rt::on_each([&](unsigned, unsigned) {
        for (unsigned step = 1; step < 8; ++step) {
            EXPECT_EQ(check::fuzz::victim_offset(8, step), step);
            EXPECT_FALSE(check::fuzz::force_steal_fail());
        }
    });
}

TEST_F(CheckTest, VictimOffsetStaysInRange)
{
    check::fuzz::set_seed(7);
    rt::on_each([&](unsigned, unsigned) {
        for (int i = 0; i < 1000; ++i) {
            const unsigned offset = check::fuzz::victim_offset(8, 3);
            EXPECT_GE(offset, 1u);
            EXPECT_LT(offset, 8u);
        }
    });
    check::fuzz::set_seed(0);
}

TEST_F(CheckTest, SchedulerCorrectUnderHeavyFuzzing)
{
    // The perturbations (yields, shuffled victims, forced steal
    // failures) must never lose or duplicate work items.
    for (const uint64_t seed : {1u, 5u, 9u}) {
        check::fuzz::set_seed(seed);
        std::vector<std::atomic<uint32_t>> hits(4096);
        std::vector<uint32_t> initial(64);
        std::iota(initial.begin(), initial.end(), 0u);
        rt::for_each<uint32_t>(
            initial, [&](uint32_t item, rt::UserContext<uint32_t>& ctx) {
                hits[item].fetch_add(1, std::memory_order_relaxed);
                const uint32_t child = item * 8;
                for (uint32_t c = 0; c < 8; ++c) {
                    if (child + c >= 64 && child + c < hits.size()) {
                        ctx.push(child + c);
                    }
                }
            });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            if (hits[i].load() != 0) {
                ASSERT_EQ(hits[i].load(), 1u)
                    << "seed " << seed << " item " << i;
            }
        }
    }
    check::fuzz::set_seed(0);
}

#else // !GAS_CHECK_ENABLED

TEST_F(CheckTest, UncheckedBuildIsInert)
{
    EXPECT_FALSE(check::enabled());
    EXPECT_EQ(check::race_count(), 0u);
    EXPECT_TRUE(check::races().empty());
    EXPECT_TRUE(check::report().empty());
    EXPECT_FALSE(check::fuzz::active());
    EXPECT_EQ(check::fuzz::victim_offset(8, 3), 3u);
    EXPECT_FALSE(check::fuzz::force_steal_fail());
}

TEST_F(CheckTest, AccessorsPassThroughUnchecked)
{
    graph::NodeData<uint32_t> data(16, "unchecked");
    rt::on_each([&](unsigned tid, unsigned) {
        data.set(tid, tid + 1);
    });
    for (unsigned tid = 0; tid < 4; ++tid) {
        EXPECT_EQ(data.get(tid), tid + 1);
    }
    uint32_t expected = 1;
    EXPECT_TRUE(data.compare_exchange(0, expected, 9));
    EXPECT_EQ(data.load(0), 9u);
    data.store(0, 11);
    EXPECT_EQ(data.at(0), 11u);
    EXPECT_EQ(check::race_count(), 0u);
}

#endif // GAS_CHECK_ENABLED

// Shared-surface tests (both builds): the accessors are the production
// data path for the workloads, so basic semantics must hold everywhere.
TEST_F(CheckTest, NodeDataBasicSemantics)
{
    graph::NodeData<uint64_t> data(8, 5u, "semantics");
    EXPECT_EQ(data.size(), 8u);
    EXPECT_EQ(data.get(3), 5u);
    data.set(3, 7);
    EXPECT_EQ(data.at(3), 7u);
    data.mut(3) += 1;
    EXPECT_EQ(data.get(3), 8u);
    uint64_t expected = 8;
    EXPECT_TRUE(data.compare_exchange(3, expected, 9));
    EXPECT_FALSE(data.compare_exchange(3, expected, 10));
    EXPECT_EQ(expected, 9u);
    EXPECT_EQ(data.vec()[3], 9u);
    const auto view = data.view();
    EXPECT_EQ(view.load(3), 9u);
    EXPECT_TRUE(view.compare_exchange(3, expected, 12));
    EXPECT_FALSE(view.compare_exchange(3, expected, 13));
    EXPECT_EQ(expected, 12u);
    EXPECT_EQ(data.get(3), 12u);
    const std::vector<uint64_t> out = data.take();
    EXPECT_EQ(out[3], 12u);
}

} // namespace
} // namespace gas
