/**
 * @file
 * Stress and interaction tests for the runtime: heavy for_each churn,
 * OBIM under priority inversion, nested constructs, repeated pool
 * resizing, and reducer reuse across regions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "check/fuzz.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lonestar/lonestar.h"
#include "runtime/chase_lev.h"
#include "runtime/for_each.h"
#include "runtime/insert_bag.h"
#include "runtime/obim.h"
#include "runtime/parallel.h"
#include "runtime/reducers.h"
#include "runtime/thread_pool.h"
#include "support/cancel.h"
#include "support/random.h"
#include "verify/reference.h"

namespace gas::rt {
namespace {

TEST(RuntimeStress, RepeatedPoolResizing)
{
    for (const unsigned threads : {1u, 3u, 8u, 2u, 5u, 1u, 4u}) {
        set_num_threads(threads);
        Accumulator<uint64_t> sum;
        do_all(1000, [&](std::size_t i) { sum += i; });
        ASSERT_EQ(sum.reduce(), 1000u * 999 / 2) << threads;
    }
    set_num_threads(4);
}

TEST(RuntimeStress, ManySmallParallelRegions)
{
    set_num_threads(4);
    uint64_t total = 0;
    for (int round = 0; round < 2000; ++round) {
        Accumulator<uint64_t> sum;
        do_all(8, [&](std::size_t i) { sum += i; });
        total += sum.reduce();
    }
    EXPECT_EQ(total, 2000u * 28);
}

TEST(RuntimeStress, ForEachDeepRecursiveFanout)
{
    // Binary fan-out of depth 14: 2^15 - 1 operator applications.
    set_num_threads(4);
    Accumulator<uint64_t> count;
    const std::vector<unsigned> initial{14};
    for_each<unsigned>(initial, [&](unsigned depth,
                                    UserContext<unsigned>& ctx) {
        count += 1;
        if (depth > 0) {
            ctx.push(depth - 1);
            ctx.push(depth - 1);
        }
    });
    EXPECT_EQ(count.reduce(), (uint64_t{1} << 15) - 1);
}

TEST(RuntimeStress, ForEachRandomizedChurn)
{
    // Items randomly spawn 0-2 children, bounded by a budget; the
    // processed count must equal the pushed count exactly.
    set_num_threads(8);
    std::atomic<uint64_t> budget{20000};
    Accumulator<uint64_t> processed;
    Accumulator<uint64_t> pushed;
    std::vector<uint64_t> initial(64);
    std::iota(initial.begin(), initial.end(), 1u);
    pushed += initial.size();
    for_each<uint64_t>(initial, [&](uint64_t seed,
                                    UserContext<uint64_t>& ctx) {
        processed += 1;
        Rng rng(seed);
        const unsigned children = rng.next_bounded(3);
        for (unsigned c = 0; c < children; ++c) {
            if (budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
                pushed += 1;
                ctx.push(rng.next());
            }
        }
    });
    EXPECT_EQ(processed.reduce(), pushed.reduce());
}

TEST(RuntimeStress, ForEachPushStormAcrossThreadCounts)
{
    // High-contention push storm to pin the Chase-Lev termination
    // protocol: every operator pushes kFanout children down to a depth
    // bound, so the worklist both grows explosively (deque buffers must
    // grow) and drains to empty repeatedly (thieves race the owners for
    // last items). The total operator count has a closed form:
    // kRoots * (kFanout^(kDepth+1) - 1) / (kFanout - 1).
    constexpr uint64_t kFanout = 4;
    constexpr unsigned kDepth = 7;
    constexpr uint64_t kRoots = 8;
    uint64_t per_root = 0;
    uint64_t level = 1;
    for (unsigned d = 0; d <= kDepth; ++d) {
        per_root += level;
        level *= kFanout;
    }
    const uint64_t expected = kRoots * per_root;

    const unsigned max_threads =
        std::max(4u, std::thread::hardware_concurrency());
    for (const unsigned threads : {1u, 2u, max_threads}) {
        set_num_threads(threads);
        Accumulator<uint64_t> count;
        const std::vector<unsigned> initial(kRoots, kDepth);
        for_each<unsigned>(initial, [&](unsigned depth,
                                        UserContext<unsigned>& ctx) {
            count += 1;
            if (depth > 0) {
                for (uint64_t c = 0; c < kFanout; ++c) {
                    ctx.push(depth - 1);
                }
            }
        });
        ASSERT_EQ(count.reduce(), expected) << threads << " threads";
    }
    set_num_threads(4);
}

TEST(RuntimeStress, ObimBinMemoryStaysBounded)
{
    // Regression: a PriorityBin fed as fast as it drains never hits
    // its fully-drained reset, so before the compaction fix the
    // processed prefix (and the backing vector) grew without bound.
    detail::PriorityBin<int> bin;
    for (int i = 0; i < 4; ++i) {
        bin.push(i); // keep the bin permanently non-empty
    }
    std::vector<int> out;
    constexpr int kRounds = 100000;
    std::size_t high_water = 0;
    bool became_empty = false;
    for (int i = 0; i < kRounds; ++i) {
        bin.push(i);
        bin.push(i);
        out.clear();
        ASSERT_EQ(bin.pop_batch(out, 2, became_empty), 2u);
        high_water = std::max(high_water, bin.storage_size());
    }
    // 4 live items + a bounded drained prefix; without compaction the
    // storage would reach ~2 * kRounds slots.
    EXPECT_LE(high_water,
              2 * (4 + detail::PriorityBin<int>::kCompactMin));
}

TEST(RuntimeStress, ObimBinCompactionPreservesFifoOrder)
{
    detail::PriorityBin<unsigned> bin;
    std::vector<unsigned> out;
    unsigned pushed = 0;
    unsigned popped = 0;
    bool became_empty = false;
    for (int round = 0; round < 5000; ++round) {
        for (int i = 0; i < 3; ++i) {
            bin.push(pushed++);
        }
        out.clear();
        bin.pop_batch(out, 3, became_empty);
        for (const unsigned item : out) {
            ASSERT_EQ(item, popped++); // strict FIFO across compactions
        }
    }
    while (popped < pushed) {
        out.clear();
        ASSERT_NE(bin.pop_batch(out, 16, became_empty), 0u);
        for (const unsigned item : out) {
            ASSERT_EQ(item, popped++);
        }
    }
}

TEST(RuntimeStress, ObimPriorityInversionChurn)
{
    // High-priority items spawn low-priority items and vice versa;
    // everything must still be processed exactly once.
    set_num_threads(4);
    constexpr unsigned kItems = 4000;
    std::vector<std::atomic<uint32_t>> hits(kItems);
    std::vector<unsigned> initial;
    for (unsigned i = 0; i < kItems / 2; ++i) {
        initial.push_back(i);
    }
    for_each_ordered<unsigned>(
        initial, [](unsigned item) { return item % 97; },
        [&](unsigned item, OrderedContext<unsigned>& ctx) {
            hits[item].fetch_add(1);
            const unsigned child = item + kItems / 2;
            if (child < kItems) {
                // Children get the *opposite* end of the priority range.
                ctx.push(child, 96 - (item % 97));
            }
        });
    for (unsigned i = 0; i < kItems; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "item " << i;
    }
}

TEST(RuntimeStress, ObimClampsHugePriorities)
{
    set_num_threads(2);
    Accumulator<uint64_t> count;
    const std::vector<unsigned> initial{1, 2, 3};
    for_each_ordered<unsigned>(
        initial,
        [](unsigned item) { return item * 1000000000u; }, // clamped
        [&](unsigned, OrderedContext<unsigned>&) { count += 1; });
    EXPECT_EQ(count.reduce(), 3u);
}

TEST(RuntimeStress, ObimSsspFinishesBeforeDeadline)
{
    // Regression for an OBIM liveness bug: a popper could raise the
    // scan cursor past an item pushed concurrently into a bin it had
    // already scanned, and every later scan started at the cursor, so
    // the item was never popped and sssp spun with pending work. Each
    // run gets a deadline (pop_batch polls it once per scan), so a
    // stall fails here in seconds rather than at the ctest timeout.
    //
    // The checked build (GAS_CHECK=ON) installs kSeed unless
    // GAS_CHECK_SEED set one: its yields at the kObimCursor fuzz site
    // widen the pop-to-cursor-CAS window. With the bug, this seed
    // stalled the first runs of this test.
    constexpr uint64_t kSeed = 11;
    constexpr uint64_t kDeadlineMs = 5000;
    constexpr int kReps = 25;
    struct SeedGuard
    {
        bool owned = !check::fuzz::active();
        SeedGuard()
        {
            if (owned) {
                check::fuzz::set_seed(kSeed);
            }
        }
        ~SeedGuard()
        {
            if (owned) {
                check::fuzz::set_seed(0);
            }
        }
    } seed_guard;

    std::vector<graph::Graph> graphs;
    for (graph::EdgeList list :
         {graph::rmat(9, 8, 17), graph::erdos_renyi(400, 2400, 23),
          graph::grid2d(12, 9, 5, 0.0), graph::star(41)}) {
        graph::remove_self_loops(list);
        graph::symmetrize(list);
        graph::randomize_weights(list, 4242, 1, 64);
        graphs.push_back(graph::Graph::from_edge_list(list, true));
    }
    for (const unsigned threads : {4u, 8u}) {
        set_num_threads(threads);
        for (std::size_t g = 0; g < graphs.size(); ++g) {
            const graph::Node source =
                graph::highest_degree_node(graphs[g]);
            const auto expected = verify::dijkstra(graphs[g], source);
            for (int rep = 0; rep < kReps; ++rep) {
                for (const uint64_t delta : {1u, 16u, 8192u}) {
                    ls::SsspOptions options;
                    options.delta = delta;
                    CancelToken token;
                    token.set_deadline_ms(kDeadlineMs);
                    std::vector<uint64_t> dist;
                    {
                        CancelScope scope(token);
                        dist = ls::sssp(graphs[g], source, options);
                    }
                    ASSERT_EQ(token.code(), StatusCode::kOk)
                        << "OBIM stalled with pending work: graph " << g
                        << ", " << threads << " threads, delta " << delta
                        << ", rep " << rep;
                    ASSERT_EQ(dist, expected) << "graph " << g;
                }
            }
        }
    }
    set_num_threads(4);
}

TEST(RuntimeStress, InsertBagHeavyMixedUse)
{
    set_num_threads(8);
    InsertBag<uint64_t> bag;
    for (int round = 0; round < 5; ++round) {
        bag.clear();
        do_all(100000, [&](std::size_t i) {
            if (i % 3 == 0) {
                bag.push(i);
            }
        });
        Accumulator<uint64_t> count;
        bag.parallel_apply([&](uint64_t item) {
            ASSERT_EQ(item % 3, 0u);
            count += 1;
        });
        ASSERT_EQ(count.reduce(), bag.size());
        ASSERT_EQ(count.reduce(), 33334u);
    }
}

TEST(RuntimeStress, NestedDoAllInsideForEach)
{
    set_num_threads(4);
    Accumulator<uint64_t> total;
    std::vector<int> initial(32);
    std::iota(initial.begin(), initial.end(), 0);
    for_each<int>(initial, [&](int, UserContext<int>&) {
        // Nested bulk loop runs inline on the worker.
        do_all(100, [&](std::size_t) { total += 1; });
    });
    EXPECT_EQ(total.reduce(), 3200u);
}

TEST(RuntimeStress, ChaseLevLastItemPopStealDuel)
{
    // Pins the seq_cst store-load pair in pop() and the acq_rel CAS
    // downgrade: the owner repeatedly pushes one item and pops it while
    // three thieves hammer steal(). Exactly one side may win each item.
    // Run under the tsan preset this exercises the orderings the
    // chase_lev.h audit argues are minimal.
    constexpr int kItems = 20000;
    ChaseLevDeque<int> deque(2); // tiny: forces early grow() too
    std::atomic<uint64_t> owner_got{0};
    std::atomic<uint64_t> stolen{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> thieves;
    thieves.reserve(3);
    for (int t = 0; t < 3; ++t) {
        thieves.emplace_back([&] {
            int item = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (deque.steal(item)) {
                    stolen.fetch_add(1, std::memory_order_relaxed);
                }
            }
            while (deque.steal(item)) {
                stolen.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    for (int i = 0; i < kItems; ++i) {
        deque.push(i);
        int item = 0;
        if (deque.pop(item)) {
            owner_got.fetch_add(1, std::memory_order_relaxed);
        }
    }
    done.store(true, std::memory_order_release);
    for (auto& thief : thieves) {
        thief.join();
    }
    EXPECT_EQ(owner_got.load() + stolen.load(),
              static_cast<uint64_t>(kItems));
}

TEST(RuntimeStress, ChaseLevGrowDuringConcurrentSteals)
{
    // Pins the release half of the thief CAS against push()'s acquire
    // top_ load: a deque seeded with minimal capacity grows repeatedly
    // while thieves read cells about to be overwritten on wraparound.
    // Every pushed value must be consumed exactly once, unmangled.
    constexpr int kRounds = 500;
    constexpr int kPerRound = 64;
    ChaseLevDeque<int> deque(2);
    std::vector<std::atomic<uint32_t>> hits(kRounds * kPerRound);
    std::atomic<bool> done{false};

    std::vector<std::thread> thieves;
    thieves.reserve(4);
    for (int t = 0; t < 4; ++t) {
        thieves.emplace_back([&] {
            int item = 0;
            int batch[ChaseLevDeque<int>::kMaxBatch];
            while (!done.load(std::memory_order_acquire)) {
                const std::size_t got = deque.steal_batch(batch, 8);
                for (std::size_t k = 0; k < got; ++k) {
                    hits[batch[k]].fetch_add(1);
                }
                if (got == 0 && deque.steal(item)) {
                    hits[item].fetch_add(1);
                }
            }
            while (deque.steal(item)) {
                hits[item].fetch_add(1);
            }
        });
    }

    int next = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kPerRound; ++i) {
            deque.push(next++);
        }
        // Pop roughly half from the bottom so both ends stay active.
        int item = 0;
        for (int i = 0; i < kPerRound / 2; ++i) {
            if (deque.pop(item)) {
                hits[item].fetch_add(1);
            }
        }
    }
    int item = 0;
    while (deque.pop(item)) {
        hits[item].fetch_add(1);
    }
    done.store(true, std::memory_order_release);
    for (auto& thief : thieves) {
        thief.join();
    }
    for (int i = 0; i < kRounds * kPerRound; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "item " << i;
    }
}

TEST(RuntimeStress, CancelMidForEachAcrossThreadCounts)
{
    // Trip a CancelToken from inside the operator while the worklist is
    // still fanning out. The region must terminate promptly (workers
    // stop claiming batches at the next poll) without wedging the
    // Chase-Lev termination protocol, and must leave the pool healthy
    // for the next region. Exercised at 1 thread (inline unwind), 2
    // (one thief), and the full machine (steal storm).
    constexpr uint64_t kFanout = 4;
    constexpr unsigned kDepth = 9;
    const unsigned max_threads =
        std::max(4u, std::thread::hardware_concurrency());
    for (const unsigned threads : {1u, 2u, max_threads}) {
        set_num_threads(threads);
        std::atomic<uint64_t> processed{0};
        {
            CancelToken token;
            CancelScope scope(token);
            const std::vector<unsigned> initial(8, kDepth);
            for_each<unsigned>(initial, [&](unsigned depth,
                                            UserContext<unsigned>& ctx) {
                if (processed.fetch_add(1, std::memory_order_relaxed) ==
                    256) {
                    token.cancel();
                }
                if (depth > 0) {
                    for (uint64_t c = 0; c < kFanout; ++c) {
                        ctx.push(depth - 1);
                    }
                }
            });
            // Full fan-out would be 8 * (4^10 - 1) / 3 ≈ 2.8M operator
            // applications; a cancelled region must stop far short.
            EXPECT_TRUE(token.requested()) << threads << " threads";
            EXPECT_LT(processed.load(), 1000000u) << threads << " threads";
            EXPECT_EQ(cancel_status().code(), StatusCode::kCancelled)
                << threads << " threads";
        }

        // The pool must be reusable after an abandoned region (the
        // tripped token is uninstalled with its scope).
        Accumulator<uint64_t> sum;
        do_all(1000, [&](std::size_t i) { sum += i; });
        ASSERT_EQ(sum.reduce(), 1000u * 999 / 2) << threads;
    }
    set_num_threads(4);
}

TEST(RuntimeStress, ReducersAcrossManyRegions)
{
    set_num_threads(4);
    ReduceMax<int64_t> max_val;
    for (int region = 0; region < 100; ++region) {
        do_all(64, [&](std::size_t i) {
            max_val.update(static_cast<int64_t>(region * 64 + i));
        });
    }
    EXPECT_EQ(max_val.reduce(), 100 * 64 - 1);
}

} // namespace
} // namespace gas::rt
