/**
 * @file
 * Tests for gas::stats: bucket-grid exactness at powers of two, merge
 * associativity/commutativity, the one-bucket percentile error bound
 * against exact order statistics, concurrent record-then-merge, the
 * disabled-mode zero-allocation guarantee, sampler frame monotonicity,
 * the trace span bridge reconciliation invariant (histogram count/sum
 * == counter totals and span sums over a full la::pagerank run), one
 * push/pull series sample per dispatched SpMV round, the scheduler
 * steal-wait series, and the JSON/Prometheus expositions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lagraph/lagraph.h"
#include "matrix/matrix.h"
#include "metrics/counters.h"
#include "runtime/for_each.h"
#include "runtime/thread_pool.h"
#include "stats/stats.h"
#include "support/timer.h"
#include "trace/trace.h"

// ---- Global allocation counter for the zero-allocation test ----
// Same pattern as trace_test.cpp: count every operator new in the
// binary; the disabled-stats test asserts the count does not move
// across a burst of Histogram::record calls.

namespace {
std::atomic<uint64_t> g_allocations{0};
} // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace gas {
namespace {

using graph::Graph;

/// RAII guard: every test leaves stats disabled and the state empty.
struct StatsScope
{
    StatsScope()
    {
        stats::set_enabled(true);
        stats::reset();
        metrics::reset();
    }
    ~StatsScope()
    {
        stats::sampler_stop();
        stats::set_enabled(false);
        stats::reset();
    }
};

Graph
small_graph()
{
    auto list = graph::rmat(9, 8, 123);
    graph::remove_self_loops(list);
    graph::symmetrize(list);
    graph::randomize_weights(list, 7, 1, 64);
    return Graph::from_edge_list(list, true);
}

TEST(Histogram, PowersOfTwoAreExactBucketLowerBounds)
{
    // Every power of two is sub-bucket 0 of its row, so it is exactly
    // a bucket lower bound — the property that makes bucket edges line
    // up across histograms and runs.
    for (unsigned p = 0; p < 63; ++p) {
        const uint64_t v = uint64_t{1} << p;
        const unsigned idx = stats::bucket_index(v);
        EXPECT_EQ(stats::bucket_lower(idx), v) << "2^" << p;
    }
    // Unit region is exact per value.
    for (uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(stats::bucket_index(v), v);
        EXPECT_EQ(stats::bucket_lower(stats::bucket_index(v)), v);
        EXPECT_EQ(stats::bucket_width(stats::bucket_index(v)), 1u);
    }
}

TEST(Histogram, BucketGridIsContiguousAndMonotone)
{
    // Buckets tile the value space: each bucket's upper edge + 1 is
    // the next bucket's lower bound, and indices are monotone in the
    // value. Walk the first 20 rows exhaustively via their edges.
    for (unsigned idx = 0; idx + 1 < 20 * stats::kSubBuckets; ++idx) {
        const uint64_t lower = stats::bucket_lower(idx);
        const uint64_t width = stats::bucket_width(idx);
        EXPECT_EQ(stats::bucket_index(lower), idx);
        EXPECT_EQ(stats::bucket_index(lower + width - 1), idx);
        EXPECT_EQ(stats::bucket_lower(idx + 1), lower + width);
    }
    // Quantization error is bounded by one bucket width <= value/16.
    std::mt19937_64 rng(7);
    for (int i = 0; i < 100000; ++i) {
        const uint64_t v = rng() >> (rng() % 60);
        const unsigned idx = stats::bucket_index(v);
        const uint64_t lower = stats::bucket_lower(idx);
        const uint64_t width = stats::bucket_width(idx);
        ASSERT_LE(lower, v);
        // v - lower, not lower + width: the topmost row's upper edge
        // is 2^64 and would wrap.
        ASSERT_LT(v - lower, width);
        if (v >= 16) {
            EXPECT_LE(width * 16, v + 15);
        }
    }
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    std::mt19937_64 rng(42);
    stats::HistogramShard a, b, c;
    for (int i = 0; i < 5000; ++i) {
        a.record(rng() >> (rng() % 50));
        b.record(rng() % 17); // stress the unit region
        if (i % 3 == 0) {
            c.record(rng());
        }
    }
    stats::HistogramSnapshot sa, sb, sc;
    sa.add_shard(a);
    sb.add_shard(b);
    sc.add_shard(c);

    auto merged = [](const stats::HistogramSnapshot& x,
                     const stats::HistogramSnapshot& y) {
        stats::HistogramSnapshot out = x;
        out.merge(y);
        return out;
    };
    auto equal = [](const stats::HistogramSnapshot& x,
                    const stats::HistogramSnapshot& y) {
        return x.buckets == y.buckets && x.count == y.count &&
               x.sum == y.sum && x.min == y.min && x.max == y.max;
    };

    // Commutativity.
    EXPECT_TRUE(equal(merged(sa, sb), merged(sb, sa)));
    // Associativity.
    EXPECT_TRUE(equal(merged(merged(sa, sb), sc),
                      merged(sa, merged(sb, sc))));
    // Identity: merging an empty snapshot changes nothing.
    EXPECT_TRUE(equal(merged(sa, stats::HistogramSnapshot{}), sa));
    // Losslessness: totals add exactly.
    const auto all = merged(merged(sa, sb), sc);
    EXPECT_EQ(all.count, sa.count + sb.count + sc.count);
    EXPECT_EQ(all.sum, sa.sum + sb.sum + sc.sum);
}

TEST(Histogram, PercentileWithinOneBucketOfExactOrderStatistic)
{
    std::mt19937_64 rng(123);
    std::vector<uint64_t> values;
    stats::HistogramShard shard;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform-ish spread across ns..minutes magnitudes.
        const uint64_t v = rng() % (uint64_t{1} << (4 + rng() % 36));
        values.push_back(v);
        shard.record(v);
    }
    std::sort(values.begin(), values.end());
    stats::HistogramSnapshot snap;
    snap.add_shard(shard);
    ASSERT_EQ(snap.count, values.size());
    ASSERT_EQ(snap.min, values.front());
    ASSERT_EQ(snap.max, values.back());

    for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
        uint64_t rank = static_cast<uint64_t>(
            q * static_cast<double>(values.size()));
        if (rank < 1) {
            rank = 1;
        }
        const uint64_t exact = values[rank - 1];
        const uint64_t approx = snap.percentile(q);
        // The reported value is the upper edge of the exact value's
        // bucket (clamped to max), so it is never below the exact
        // order statistic and overshoots by less than one bucket
        // width.
        const uint64_t width =
            stats::bucket_width(stats::bucket_index(exact));
        EXPECT_GE(approx, exact) << "q=" << q;
        EXPECT_LE(approx, exact + width) << "q=" << q;
    }
}

TEST(Stats, ConcurrentRecordThenMergeIsExact)
{
    StatsScope scope;
    auto& hist = stats::histogram(stats::names::kAlgoNs);
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 50000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            for (uint64_t i = 1; i <= kPerThread; ++i) {
                hist.record(t * kPerThread + i);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    const auto snap = hist.snapshot();
    const uint64_t n = kThreads * kPerThread;
    EXPECT_EQ(snap.count, n);
    EXPECT_EQ(snap.sum, n * (n + 1) / 2); // 1..n, each exactly once
    EXPECT_EQ(snap.min, 1u);
    EXPECT_EQ(snap.max, n);
}

TEST(Stats, DisabledRecordsNothingAndAllocatesNothing)
{
    // Registration may allocate; do it before the gate.
    auto& hist = stats::histogram(stats::names::kAlgoNs);
    auto& gauge = stats::gauge(stats::names::kHwCycles);
    stats::set_enabled(false);
    stats::reset();
    const uint64_t before = g_allocations.load();
    for (uint64_t i = 0; i < 100000; ++i) {
        hist.record(i);
        gauge.add(1);
    }
    EXPECT_EQ(g_allocations.load(), before);
    EXPECT_TRUE(hist.snapshot().empty());
    // Gauges are plain atomics (always on — the sampler reads levels,
    // not events); zero them back.
    stats::reset();
    EXPECT_EQ(gauge.value(), 0u);
}

TEST(Stats, EnableArmsTraceBridgeWithoutRing)
{
    // Stats alone flips the tracer's master flag so spans fire, but
    // the ring stays off: distributions accumulate, no spans retained.
    ASSERT_FALSE(trace::enabled());
    StatsScope scope;
    EXPECT_TRUE(trace::enabled());
    {
        trace::Span span(trace::Category::kAlgo, "bridge_only");
    }
    EXPECT_TRUE(trace::snapshot().spans.empty());
    const auto snap =
        stats::histogram(stats::names::kAlgoNs).snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_GT(snap.sum, 0u);
}

TEST(Stats, BridgeReconcilesWithCountersAndSpanSums)
{
    // The acceptance-criteria invariant: with both the trace ring and
    // stats on, a full la::pagerank run yields histogram series whose
    // count matches the metrics:: counter total (one round span per
    // counted round) and whose sum matches the trace ring's span
    // durations exactly — the bridge records each span's own
    // end - begin, so the two views cannot drift.
    rt::set_num_threads(4);
    const Graph graph = small_graph();
    grb::BackendScope backend(grb::Backend::kParallel);
    const auto A = grb::Matrix<double>::from_graph(graph, false);
    const auto At = A.transpose();

    StatsScope scope;
    trace::set_enabled(true);
    trace::reset();
    const metrics::Interval interval;
    la::pagerank(A, At, 0.85, 10);
    const auto totals = interval.delta();
    const auto data = trace::snapshot();
    trace::set_enabled(false);
    ASSERT_EQ(data.dropped, 0u);

    const auto rounds =
        stats::histogram(stats::names::kAlgoRoundNs).snapshot();
    EXPECT_GT(totals[metrics::kRounds], 0u);
    EXPECT_EQ(rounds.count, totals[metrics::kRounds]);

    uint64_t round_span_ns = 0;
    uint64_t round_spans = 0;
    for (const auto& s : data.spans) {
        if (s.category == trace::Category::kRound) {
            round_span_ns += s.end_ns - s.begin_ns;
            ++round_spans;
        }
    }
    EXPECT_EQ(rounds.count, round_spans);
    EXPECT_EQ(rounds.sum, round_span_ns);

    // The kernel-level series fired too: pagerank's pull products land
    // in spmv_pull_ns, and every grb op lands somewhere.
    EXPECT_GT(stats::histogram(stats::names::kSpmvPullNs)
                  .snapshot()
                  .count,
              0u);
    EXPECT_GT(
        stats::histogram(stats::names::kGrbOpNs).snapshot().count, 0u);
    EXPECT_GT(stats::histogram(stats::names::kRuntimeRegionNs)
                  .snapshot()
                  .count,
              0u);
}

TEST(Stats, SpmvSeriesCountEveryDispatchedRound)
{
    // Each SpMV kernel span must land in the push or pull series: a
    // kernel whose span name classify_grb does not know would fall
    // silently into grb_op_ns. A forced-direction bfs_lazy runs every
    // round through one direction, sink and recycle buffer included.
    rt::set_num_threads(4);
    const Graph graph = small_graph();
    grb::BackendScope backend(grb::Backend::kParallel);
    const auto A = grb::Matrix<uint8_t>::from_graph(graph, false);
    const auto At = A.transpose();
    const graph::Node source = graph::highest_degree_node(graph);

    for (const grb::Direction dir :
         {grb::Direction::kPush, grb::Direction::kPull}) {
        StatsScope scope;
        const metrics::Interval interval;
        la::bfs_lazy(A, At, source, dir);
        const auto totals = interval.delta();
        const uint64_t push =
            stats::histogram(stats::names::kSpmvPushNs).snapshot().count;
        const uint64_t pull =
            stats::histogram(stats::names::kSpmvPullNs).snapshot().count;
        if (dir == grb::Direction::kPush) {
            EXPECT_GT(totals[metrics::kSpmvPushRounds], 0u);
            EXPECT_EQ(push, totals[metrics::kSpmvPushRounds]);
        } else {
            EXPECT_GT(totals[metrics::kSpmvPullRounds], 0u);
            EXPECT_EQ(pull, totals[metrics::kSpmvPullRounds]);
        }
    }
}

TEST(Stats, StealWaitSeriesPopulatedByWorkStealingExecutor)
{
    rt::set_num_threads(4);
    StatsScope scope;
    // One slow item on a 4-thread pool: the other workers find their
    // deques empty, spin through the steal sweep, and record a
    // steal-wait stall when the region drains.
    std::vector<int> items{1};
    rt::for_each<int>(items, [](int, auto&) {
        const uint64_t until = now_ns() + 2000000; // 2 ms
        while (now_ns() < until) {
        }
    });
    const auto waits =
        stats::histogram(stats::names::kSchedStealWaitNs).snapshot();
    EXPECT_GT(waits.count, 0u);
    EXPECT_GT(waits.sum, 0u);
}

TEST(Stats, SamplerFramesAreMonotone)
{
    StatsScope scope;
    stats::sampler_start(500.0);
    for (int burst = 0; burst < 20; ++burst) {
        metrics::bump(metrics::kWorkItems, 100);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Let a few ticks land after the final burst so the last frame has
    // seen every bump.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats::sampler_stop();
    const auto frames = stats::frames();
    ASSERT_GE(frames.size(), 2u);
    EXPECT_EQ(stats::frames_dropped(), 0u);
    for (std::size_t i = 1; i < frames.size(); ++i) {
        // Timestamps strictly increase and counter totals are
        // monotone: each frame is a superset of the last.
        EXPECT_LT(frames[i - 1].t_ns, frames[i].t_ns);
        for (unsigned c = 0; c < metrics::kNumCounters; ++c) {
            EXPECT_GE(frames[i].counters.values[c],
                      frames[i - 1].counters.values[c]);
        }
    }
    EXPECT_GE(frames.back().counters[metrics::kWorkItems], 2000u);
}

TEST(Stats, JsonAndPrometheusExpositionsAreWellFormed)
{
    StatsScope scope;
    stats::histogram(stats::names::kAlgoNs).record(1000);
    stats::histogram(stats::names::kAlgoNs).record(1 << 20);
    stats::gauge(stats::names::kHwInstructions).set(12345);
    stats::sampler_start(200.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stats::sampler_stop();

    const auto dir = std::filesystem::temp_directory_path();
    const auto json_path = (dir / "gas_stats_test.json").string();
    const auto prom_path = (dir / "gas_stats_test.prom").string();
    ASSERT_TRUE(stats::write_json(json_path));
    ASSERT_TRUE(stats::write_prometheus(prom_path));

    std::stringstream json;
    json << std::ifstream(json_path).rdbuf();
    const std::string j = json.str();
    EXPECT_NE(j.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(j.find("\"algo_ns\""), std::string::npos);
    EXPECT_NE(j.find("\"p99_ns\""), std::string::npos);
    EXPECT_NE(j.find("\"buckets\""), std::string::npos);
    EXPECT_NE(j.find("\"frames\""), std::string::npos);
    EXPECT_NE(j.find("hw_instructions"), std::string::npos);

    std::stringstream prom;
    prom << std::ifstream(prom_path).rdbuf();
    const std::string p = prom.str();
    // _ns series are exposed in Prometheus base units (seconds).
    EXPECT_NE(p.find("gas_algo_seconds_bucket{le="), std::string::npos);
    EXPECT_NE(p.find("le=\"+Inf\"} 2"), std::string::npos);
    EXPECT_NE(p.find("gas_algo_seconds_count 2"), std::string::npos);
    EXPECT_NE(p.find("gas_hw_instructions 12345"), std::string::npos);
    EXPECT_EQ(p.find("nan"), std::string::npos);

    std::filesystem::remove(json_path);
    std::filesystem::remove(prom_path);
}

} // namespace
} // namespace gas
