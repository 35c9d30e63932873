/**
 * @file
 * Tests for the robustness layer: cooperative cancellation and
 * deadlines, graceful degradation (formats -> CSR, OBIM -> FIFO), the
 * run_guarded Status contract, and the seeded fault-injection harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lagraph/lagraph.h"
#include "lonestar/lonestar.h"
#include "metrics/counters.h"
#include "runtime/for_each.h"
#include "runtime/obim.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "support/cancel.h"
#include "support/faults.h"
#include "verify/reference.h"

namespace gas {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::Node;

/// A symmetric weighted test graph big enough that algorithms run many
/// rounds but small enough to stay fast.
Graph
test_graph()
{
    EdgeList list = graph::erdos_renyi(300, 1800, 9);
    graph::remove_self_loops(list);
    graph::symmetrize(list);
    graph::randomize_weights(list, 7777, 1, 64);
    Graph g = Graph::from_edge_list(list, true);
    g.sort_adjacencies();
    return g;
}

TEST(CancelToken, FirstTripWins)
{
    CancelToken token;
    EXPECT_FALSE(token.requested());
    EXPECT_EQ(token.code(), StatusCode::kOk);
    token.cancel();
    EXPECT_TRUE(token.requested());
    EXPECT_EQ(token.code(), StatusCode::kCancelled);
    // A later deadline trip cannot overwrite the recorded reason.
    token.set_deadline_ns(1);
    EXPECT_TRUE(token.requested());
    EXPECT_EQ(token.code(), StatusCode::kCancelled);
}

TEST(CancelToken, ExpiredDeadlineTripsOnPoll)
{
    CancelToken token(now_ns() - 1);
    EXPECT_TRUE(token.requested());
    EXPECT_EQ(token.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(token.status().ok());
}

TEST(CancelToken, FutureDeadlineDoesNotTrip)
{
    CancelToken token;
    token.set_deadline_ms(60'000);
    EXPECT_FALSE(token.requested());
    EXPECT_EQ(token.code(), StatusCode::kOk);
}

TEST(CancelScope, InstallsAndRestores)
{
    EXPECT_FALSE(cancel_active());
    {
        CancelToken token;
        CancelScope scope(token);
        EXPECT_TRUE(cancel_active());
        EXPECT_FALSE(cancel_requested());
        token.cancel();
        EXPECT_TRUE(cancel_requested());
        EXPECT_EQ(cancel_status().code(), StatusCode::kCancelled);
    }
    EXPECT_FALSE(cancel_active());
    EXPECT_TRUE(cancel_status().ok());
}

TEST(Cancellation, DoAllStopsClaimingChunks)
{
    rt::set_num_threads(4);
    const std::size_t n = 1u << 20;
    CancelToken token;
    CancelScope scope(token);
    std::atomic<std::size_t> processed{0};
    rt::do_all(n, [&](std::size_t) {
        if (processed.fetch_add(1, std::memory_order_relaxed) == 100) {
            token.cancel();
        }
    });
    // In-flight chunks finish; no new chunks are claimed after the
    // trip, so the vast majority of the range is never touched.
    EXPECT_LT(processed.load(), n);
    EXPECT_EQ(cancel_status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, DoAllSingleThreadUnwindsWithinChunk)
{
    rt::set_num_threads(1);
    const std::size_t n = 1u << 20;
    CancelToken token;
    CancelScope scope(token);
    std::atomic<std::size_t> processed{0};
    rt::do_all(n, [&](std::size_t) {
        if (processed.fetch_add(1, std::memory_order_relaxed) == 50) {
            token.cancel();
        }
    });
    EXPECT_LT(processed.load(), n);
    rt::set_num_threads(4);
}

TEST(Cancellation, ForEachStopsClaimingItems)
{
    rt::set_num_threads(4);
    const std::size_t n = 1u << 18;
    std::vector<uint32_t> initial(n);
    CancelToken token;
    CancelScope scope(token);
    std::atomic<std::size_t> processed{0};
    rt::for_each<uint32_t>(initial, [&](uint32_t,
                                        rt::UserContext<uint32_t>&) {
        if (processed.fetch_add(1, std::memory_order_relaxed) == 100) {
            token.cancel();
        }
    });
    EXPECT_LT(processed.load(), n);
    EXPECT_EQ(cancel_status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, ForEachOrderedStopsClaimingBatches)
{
    rt::set_num_threads(4);
    const std::size_t n = 1u << 16;
    std::vector<uint32_t> initial(n);
    for (std::size_t i = 0; i < n; ++i) {
        initial[i] = static_cast<uint32_t>(i);
    }
    CancelToken token;
    CancelScope scope(token);
    std::atomic<std::size_t> processed{0};
    rt::for_each_ordered<uint32_t>(
        initial, [](uint32_t item) { return item % 64; },
        [&](uint32_t, rt::OrderedContext<uint32_t>&) {
            if (processed.fetch_add(1, std::memory_order_relaxed) ==
                100) {
                token.cancel();
            }
        });
    EXPECT_LT(processed.load(), n);
}

TEST(Cancellation, DeadlineCutsPageRankShort)
{
    rt::set_num_threads(4);
    const Graph g = test_graph();
    const auto A = grb::Matrix<double>::from_graph(g, false);
    const auto At = A.transpose();

    // 10000 iterations would run for many seconds; a 5 ms deadline
    // must cut the round loop short at a round boundary.
    const unsigned iterations = 10000;
    const metrics::Interval interval;
    CancelToken token;
    token.set_deadline_ms(5);
    CancelScope scope(token);
    const Status status = run_guarded(
        [&] { la::pagerank(A, At, 0.85, iterations); });
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(interval.delta()[metrics::kRounds], iterations);
    EXPECT_GE(interval.delta()[metrics::kDeadlineExceeded], 1u);
}

TEST(Cancellation, BfsCompletesUntouchedWithoutToken)
{
    rt::set_num_threads(4);
    const Graph g = test_graph();
    const auto A = grb::Matrix<uint8_t>::from_graph(g, false);
    const auto levels = la::bfs_levels_from(la::bfs(A, 0));
    EXPECT_TRUE(cancel_status().ok());
    EXPECT_EQ(levels.size(), g.num_nodes());
    EXPECT_EQ(levels[0], 0u);
}

TEST(Cancellation, ShieldMasksActiveToken)
{
    CancelToken token;
    CancelScope scope(token);
    token.cancel();
    EXPECT_TRUE(cancel_requested());
    {
        CancelShield shield;
        EXPECT_FALSE(cancel_active());
        EXPECT_FALSE(cancel_requested());
    }
    EXPECT_TRUE(cancel_requested());
}

TEST(Cancellation, CancelledRunsDoNotPoisonLaterOnes)
{
    // Regression: the cached SPA workspace restores its
    // identity-values/clear-flags invariant with a parallel reset. When
    // that reset was itself cancellable, a run cut short by a deadline
    // could leave stale slots behind and silently corrupt *subsequent*
    // clean runs that reuse the workspace — wrong answers with an OK
    // status, long after the cancelled query finished. The reset is
    // now shielded; cancelled runs must leave no residue.
    rt::set_num_threads(4);
    const Graph g = test_graph();
    const auto oracle = verify::dijkstra(g, 0);
    const auto A = grb::Matrix<uint64_t>::from_graph(g, true);

    for (int round = 0; round < 5; ++round) {
        // A run whose token is tripped from the start: every poll
        // fires, so each operation truncates maximally and the
        // workspace reset runs inside a cancelled region.
        {
            CancelToken token;
            CancelScope scope(token);
            token.cancel();
            std::vector<uint64_t> partial;
            const Status status = run_guarded(
                [&] { partial = la::sssp_delta(A, 0, 64); });
            EXPECT_EQ(status.code(), StatusCode::kCancelled) << round;
        }
        // A clean run right after must be bit-correct.
        std::vector<uint64_t> dist;
        const Status status =
            run_guarded([&] { dist = la::sssp_delta(A, 0, 64); });
        ASSERT_TRUE(status.ok()) << round;
        EXPECT_EQ(dist, oracle) << round;
    }

    // bfs on a graph big enough that its widest rounds compact vxm's
    // accumulator with the dense scan rather than a touched list.
    const Graph big = Graph::from_edge_list(graph::rmat(13, 8, 31), false);
    const Node source = graph::highest_degree_node(big);
    const auto levels = verify::bfs_levels(big, source);
    const auto B = grb::Matrix<uint8_t>::from_graph(big, false);
    for (int round = 0; round < 3; ++round) {
        {
            CancelToken token;
            CancelScope scope(token);
            token.cancel();
            const Status status =
                run_guarded([&] { (void)la::bfs(B, source); });
            EXPECT_EQ(status.code(), StatusCode::kCancelled) << round;
        }
        std::vector<uint32_t> got;
        const Status status = run_guarded(
            [&] { got = la::bfs_levels_from(la::bfs(B, source)); });
        ASSERT_TRUE(status.ok()) << round;
        EXPECT_EQ(got, levels) << round;
    }
}

/// PlusTimes whose multiply trips a token after a fixed number of
/// products, so a vxm scatter is cut off partway through its rows.
struct TrippingPlusTimes
{
    using Value = uint64_t;
    static inline std::atomic<uint64_t> products{0};
    static inline std::atomic<uint64_t> trip_after{0};
    static inline CancelToken* token = nullptr;

    static constexpr uint64_t identity() { return 0; }
    static constexpr uint64_t add(uint64_t a, uint64_t b) { return a + b; }
    static uint64_t
    mul(uint64_t a, uint64_t b)
    {
        if (products.fetch_add(1, std::memory_order_relaxed) + 1 ==
                trip_after.load(std::memory_order_relaxed) &&
            token != nullptr) {
            token->cancel();
        }
        return a * b;
    }
    static constexpr bool add_is_min = false;
};

TEST(Cancellation, VxmCutMidScatterLeavesCleanAccumulator)
{
    // A run cancelled mid-scatter has dirtied part of the cached
    // accumulator; the shielded compaction must still restore every
    // slot, so the next run of the same semiring sees a clean one. A
    // full frontier puts the compaction on the dense scan.
    rt::set_num_threads(4);
    const Graph g = Graph::from_edge_list(graph::rmat(12, 8, 41), false);
    const auto A = grb::Matrix<uint64_t>::from_graph(g, false);
    grb::Vector<uint64_t> u(A.nrows());
    u.fill(2);

    grb::Vector<uint64_t> expected;
    grb::vxm<grb::PlusTimes<uint64_t>>(expected, grb::kDefaultDesc, u, A);

    for (int round = 0; round < 3; ++round) {
        {
            CancelToken token;
            CancelScope scope(token);
            TrippingPlusTimes::products = 0;
            TrippingPlusTimes::trip_after = A.nvals() / 3;
            TrippingPlusTimes::token = &token;
            grb::Vector<uint64_t> partial;
            grb::vxm<TrippingPlusTimes>(partial, grb::kDefaultDesc, u, A);
            TrippingPlusTimes::token = nullptr;
            EXPECT_EQ(token.code(), StatusCode::kCancelled) << round;
        }
        grb::Vector<uint64_t> w;
        grb::vxm<TrippingPlusTimes>(w, grb::kDefaultDesc, u, A);
        std::vector<std::pair<grb::Index, uint64_t>> got;
        std::vector<std::pair<grb::Index, uint64_t>> want;
        w.for_entries(
            [&](grb::Index j, uint64_t x) { got.emplace_back(j, x); });
        expected.for_entries(
            [&](grb::Index j, uint64_t x) { want.emplace_back(j, x); });
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << round;
    }
}

/// LorLand over uint64 with OR's absorbing element, whose multiply
/// trips a token after a fixed number of products.
struct TrippingLorLand
{
    using Value = uint64_t;
    static inline std::atomic<uint64_t> products{0};
    static inline std::atomic<uint64_t> trip_after{0};
    static inline CancelToken* token = nullptr;

    static constexpr uint64_t identity() { return 0; }
    static constexpr uint64_t absorbing() { return 1; }
    static constexpr uint64_t add(uint64_t a, uint64_t b)
    {
        return (a != 0 || b != 0) ? 1 : 0;
    }
    static uint64_t
    mul(uint64_t a, uint64_t b)
    {
        if (products.fetch_add(1, std::memory_order_relaxed) + 1 ==
                trip_after.load(std::memory_order_relaxed) &&
            token != nullptr) {
            token->cancel();
        }
        return (a != 0 && b != 0) ? 1 : 0;
    }
    static constexpr bool add_is_min = false;
};

TEST(Cancellation, MaskedVxmCutMidScatterLeavesCleanAccumulator)
{
    // A masked dense-SPA vxm marks the columns its mask rejects in the
    // cached accumulator (flag and absorbing value) before the scatter.
    // When the scatter is cut short, the shielded compaction must still
    // clear those marks, so the next unmasked run of the same semiring
    // sees every column.
    rt::set_num_threads(4);
    const Graph g = Graph::from_edge_list(graph::rmat(12, 8, 43), false);
    const auto A = grb::Matrix<uint64_t>::from_graph(g, false);
    grb::Vector<uint64_t> u(A.nrows());
    u.fill(1);
    // The bfs round shape: a complemented dense value mask.
    grb::Vector<uint64_t> visited(A.ncols());
    for (grb::Index j = 0; j < A.ncols(); j += 2) {
        visited.set_element(j, 1);
    }
    visited.densify();

    grb::Vector<uint64_t> expected;
    grb::vxm<TrippingLorLand>(expected, grb::kDefaultDesc, u, A);
    std::vector<std::pair<grb::Index, uint64_t>> want;
    expected.for_entries(
        [&](grb::Index j, uint64_t x) { want.emplace_back(j, x); });
    std::sort(want.begin(), want.end());

    // The scatter computes no product for an edge into a saturated
    // slot, so a masked run computes far fewer than nvals(A) products.
    // Count an uncut run's, and trip a third of the way through them.
    TrippingLorLand::products = 0;
    grb::Vector<uint64_t> uncut;
    grb::vxm<TrippingLorLand>(uncut, &visited, grb::kComplementReplaceDesc,
                              u, A);
    const uint64_t masked_products = TrippingLorLand::products.load();
    ASSERT_GE(masked_products, 3u);

    for (int round = 0; round < 3; ++round) {
        {
            CancelToken token;
            CancelScope scope(token);
            TrippingLorLand::products = 0;
            TrippingLorLand::trip_after = masked_products / 3;
            TrippingLorLand::token = &token;
            grb::Vector<uint64_t> partial;
            grb::vxm<TrippingLorLand>(partial, &visited,
                                      grb::kComplementReplaceDesc, u, A);
            TrippingLorLand::token = nullptr;
            EXPECT_EQ(token.code(), StatusCode::kCancelled) << round;
        }
        grb::Vector<uint64_t> w;
        grb::vxm<TrippingLorLand>(w, grb::kDefaultDesc, u, A);
        std::vector<std::pair<grb::Index, uint64_t>> got;
        w.for_entries(
            [&](grb::Index j, uint64_t x) { got.emplace_back(j, x); });
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << round;
    }
}

TEST(RunGuarded, MapsExceptionsToStatus)
{
    EXPECT_TRUE(run_guarded([] {}).ok());
    EXPECT_EQ(run_guarded([] { throw std::bad_alloc(); }).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(
        run_guarded([] { throw std::runtime_error("boom"); }).code(),
        StatusCode::kInternal);
}

TEST(RunGuarded, ReportsCancelStatusWhenTokenTripped)
{
    CancelToken token;
    CancelScope scope(token);
    token.cancel();
    EXPECT_EQ(run_guarded([] {}).code(), StatusCode::kCancelled);
}

TEST(Faults, ParseAcceptsFullSpec)
{
    const auto parsed = faults::parse("alloc:0.01,delay:50,seed:7");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().alloc_p, 0.01);
    EXPECT_EQ(parsed.value().delay_us, 50u);
    EXPECT_EQ(parsed.value().seed, 7u);
}

TEST(Faults, ParseRejectsBadSpecs)
{
    EXPECT_FALSE(faults::parse("alloc:2.0").ok());
    EXPECT_FALSE(faults::parse("alloc:-0.5").ok());
    EXPECT_FALSE(faults::parse("bogus:1").ok());
    EXPECT_FALSE(faults::parse("alloc").ok());
}

TEST(Faults, DisabledByDefaultAndAfterUninstall)
{
    EXPECT_FALSE(faults::enabled());
    faults::install({0.5, 0, 42});
    EXPECT_TRUE(faults::enabled());
    faults::uninstall();
    EXPECT_FALSE(faults::enabled());
    EXPECT_FALSE(faults::should_fail_alloc("test.site"));
}

TEST(Faults, DecisionSequenceReplaysUnderSameSeed)
{
    auto draw_decisions = [](uint64_t seed) {
        faults::install({0.5, 0, seed});
        std::vector<bool> decisions;
        for (int i = 0; i < 64; ++i) {
            decisions.push_back(faults::should_fail_alloc("replay.site"));
        }
        faults::uninstall();
        return decisions;
    };
    const auto first = draw_decisions(42);
    const auto replay = draw_decisions(42);
    const auto other = draw_decisions(43);
    EXPECT_EQ(first, replay);
    EXPECT_NE(first, other);
    // p = 0.5 over 64 draws: both outcomes must occur.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(Faults, SitesDrawIndependently)
{
    faults::install({0.5, 0, 42});
    std::vector<bool> site_a;
    std::vector<bool> site_b;
    for (int i = 0; i < 64; ++i) {
        site_a.push_back(faults::should_fail_alloc("site.a"));
    }
    faults::install({0.5, 0, 42}); // reset the stream
    for (int i = 0; i < 64; ++i) {
        site_b.push_back(faults::should_fail_alloc("site.b"));
    }
    faults::uninstall();
    EXPECT_NE(site_a, site_b);
}

TEST(Degradation, FormatFallbackProducesIdenticalResults)
{
    const Graph g = test_graph();

    // Reference: plain CSR.
    auto reference = grb::Matrix<double>::from_graph(g, false);
    reference.set_storage_format(grb::StorageFormat::kCsr);

    // Victim: forced SELL, but every allocation at the format-build
    // site fails, so storage_format() must degrade back to CSR.
    auto victim = grb::Matrix<double>::from_graph(g, false);
    victim.set_storage_format(grb::StorageFormat::kSell);
    const metrics::Interval interval;
    faults::install({1.0, 0, 42});
    EXPECT_EQ(victim.storage_format(), grb::StorageFormat::kCsr);
    faults::uninstall();
    EXPECT_GE(interval.delta()[metrics::kDegradedFallbacks], 1u);

    grb::Vector<double> u(g.num_nodes());
    u.fill(1.0);
    grb::Vector<double> expected;
    grb::Vector<double> got;
    grb::mxv<grb::PlusTimes<double>>(expected, grb::kDefaultDesc,
                                     reference, u);
    grb::mxv<grb::PlusTimes<double>>(got, grb::kDefaultDesc, victim, u);
    ASSERT_EQ(expected.size(), got.size());
    for (grb::Index i = 0; i < expected.size(); ++i) {
        // Bit-identical: the degraded matrix runs the same CSR kernel.
        EXPECT_EQ(expected.get_element(i), got.get_element(i)) << i;
    }
}

TEST(Degradation, BitmapFallbackAlsoDegradesToCsr)
{
    const Graph g = test_graph();
    auto victim = grb::Matrix<double>::from_graph(g, false);
    victim.set_storage_format(grb::StorageFormat::kBitmapCsr);
    faults::install({1.0, 0, 7});
    EXPECT_EQ(victim.storage_format(), grb::StorageFormat::kCsr);
    faults::uninstall();
}

TEST(Degradation, ObimFallsBackToFifoBinAndDrains)
{
    rt::set_num_threads(2);
    const std::size_t n = 4096;
    std::vector<uint32_t> initial(n);
    for (std::size_t i = 0; i < n; ++i) {
        initial[i] = static_cast<uint32_t>(i);
    }
    const metrics::Interval interval;
    // Every priority-bin allocation fails, so all items must land in
    // the pre-allocated bin 0 (FIFO order) and still all be processed.
    faults::install({1.0, 0, 11});
    std::atomic<std::size_t> processed{0};
    rt::for_each_ordered<uint32_t>(
        initial, [](uint32_t item) { return item % 128; },
        [&](uint32_t, rt::OrderedContext<uint32_t>&) {
            processed.fetch_add(1, std::memory_order_relaxed);
        });
    faults::uninstall();
    EXPECT_EQ(processed.load(), n);
    EXPECT_GE(interval.delta()[metrics::kDegradedFallbacks], 1u);
}

TEST(Degradation, SsspSurvivesObimBinFailures)
{
    rt::set_num_threads(4);
    const Graph g = test_graph();
    const auto oracle = verify::dijkstra(g, 0);
    faults::install({1.0, 0, 5});
    const auto dist = ls::sssp(g, 0);
    faults::uninstall();
    EXPECT_EQ(dist, oracle);
}

TEST(Faults, DelayInjectionPreservesResults)
{
    rt::set_num_threads(4);
    const Graph g = test_graph();
    const auto oracle = verify::bfs_levels(g, 0);
    faults::install({0.0, 10, 3});
    const auto levels = ls::bfs(g, 0);
    faults::uninstall();
    EXPECT_EQ(levels, oracle);
}

} // namespace
} // namespace gas
