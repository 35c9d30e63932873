/**
 * @file
 * Lazy-vs-eager equivalence suite for the non-blocking expression
 * layer (matrix/lazy.h) and the kernels it fuses into (the per-entry
 * sinks and recycle buffers of the SpMV kernels in matrix/ops_spmv.h
 * and the element-wise kernels in matrix/ops_vector.h, and
 * ewise_mult_select).
 *
 * Every recognized fusable chain is run twice — eagerly with the plain
 * grb ops, and recorded through the lazy planner in non-blocking mode —
 * and the results must be identical entry for entry (bitwise for
 * doubles: the fused kernels accumulate in the same order as the eager
 * ones). The sweep covers both backends, the descriptor combinations,
 * forced push/pull directions, the planner's eager-fallback shapes,
 * blocking-mode recording, every materialization point, the
 * replace-descriptor assign semantics the fused path exposed, the
 * buffer-recycling byte savings, the rewired algorithms
 * (bfs_lazy / pagerank_residual_lazy / sssp_delta_lazy), and the trace
 * attribution invariant over a lazy run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "lagraph/lagraph.h"
#include "matrix/grb.h"
#include "metrics/counters.h"
#include "runtime/thread_pool.h"
#include "support/random.h"
#include "trace/trace.h"

namespace gas::grb {
namespace {

template <typename T>
using Model = std::map<Index, T>;

template <typename T>
Model<T>
to_model(const Vector<T>& v)
{
    Model<T> model;
    v.for_entries([&](Index i, T x) { model[i] = x; });
    return model;
}

template <typename T>
Matrix<T>
random_matrix(Index n, double density, uint64_t seed)
{
    std::vector<std::tuple<Index, Index, T>> tuples;
    Rng rng(seed);
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < n; ++j) {
            if (rng.next_double() < density) {
                tuples.emplace_back(i, j,
                                    static_cast<T>(1 + rng.next_bounded(9)));
            }
        }
    }
    return Matrix<T>::from_tuples(n, n, std::move(tuples));
}

template <typename T>
Vector<T>
random_vector(Index size, double density, uint64_t seed, bool dense)
{
    Vector<T> v(size);
    Rng rng(seed);
    for (Index i = 0; i < size; ++i) {
        if (rng.next_double() < density) {
            v.set_element(i, static_cast<T>(1 + rng.next_bounded(20)));
        }
    }
    if (dense) {
        v.densify();
    }
    return v;
}

/// The descriptor sweep of the acceptance criteria: default plus every
/// complement / replace / structural combination exercised by the
/// algorithms.
const Descriptor kDescSweep[] = {
    kDefaultDesc,
    Descriptor{true, false, false},
    Descriptor{false, true, false},
    Descriptor{true, true, false},
    Descriptor{false, false, true},
    Descriptor{true, false, true},
    Descriptor{true, true, true},
};

class GrbLazyTest : public ::testing::TestWithParam<Backend>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        set_backend(GetParam());
    }

    void TearDown() override { set_backend(Backend::kParallel); }
};

// ---- chain: dispatch_spmv + assign_scalar (the BFS round) ----

TEST_P(GrbLazyTest, SpmvAssignChainMatchesEagerAcrossDescriptors)
{
    const Index n = 32;
    const auto A = random_matrix<uint8_t>(n, 0.15, 11);
    const auto At = A.transpose();
    const auto u = random_vector<uint8_t>(n, 0.3, 12, false);

    const Direction dirs[] = {Direction::kAuto, Direction::kPush,
                              Direction::kPull};
    for (const Descriptor& base : kDescSweep) {
        for (const Direction dir : dirs) {
            Descriptor desc = base;
            desc.direction = dir;

            // Eager: the three-op round.
            Vector<uint32_t> dist_e(n);
            dist_e.fill(3);
            Vector<uint8_t> w_e;
            {
                SpmvDispatcher<uint8_t> d(A, At);
                d.dispatch_spmv<LorLand>(w_e, &dist_e, desc, u);
            }
            grb::assign_scalar<uint32_t, uint8_t>(dist_e, &w_e,
                                                  kDefaultDesc, 7);

            // Lazy: identical source, recorded and fused.
            Vector<uint32_t> dist_l(n);
            dist_l.fill(3);
            Model<uint8_t> w_l_model;
            const metrics::Interval interval;
            {
                ExecModeScope mode(ExecMode::kNonBlocking);
                SpmvDispatcher<uint8_t> d(A, At);
                LazyVector<uint8_t> w_l(n);
                lazy::dispatch_spmv<LorLand>(d, w_l, &dist_l, desc, u);
                lazy::assign_scalar(dist_l, w_l, kDefaultDesc,
                                    uint32_t{7});
                w_l_model = to_model(w_l.value());
            }
            const auto counters = interval.delta();
            EXPECT_GT(counters[metrics::kFusedChains], 0u)
                << "assign into the spmv's own mask must fuse";

            EXPECT_EQ(to_model(w_e), w_l_model)
                << "spmv output, complement=" << desc.mask_complement
                << " replace=" << desc.replace
                << " structural=" << desc.structural_mask
                << " dir=" << static_cast<int>(dir);
            EXPECT_EQ(to_model(dist_e), to_model(dist_l));
        }
    }
}

TEST_P(GrbLazyTest, SpmvAssignFallsBackOnComplementOrReplaceAssign)
{
    const Index n = 24;
    const auto A = random_matrix<uint8_t>(n, 0.2, 21);
    const auto u = random_vector<uint8_t>(n, 0.3, 22, false);

    const Descriptor assign_descs[] = {Descriptor{true, false, false},
                                       Descriptor{false, true, false},
                                       kComplementReplaceDesc};
    for (const Descriptor& assign_desc : assign_descs) {
        Vector<uint32_t> dist_e(n);
        dist_e.fill(1);
        Vector<uint8_t> w_e;
        {
            SpmvDispatcher<uint8_t> d(A);
            d.dispatch_spmv<LorLand>(w_e, &dist_e, kDefaultDesc, u);
        }
        grb::assign_scalar<uint32_t, uint8_t>(dist_e, &w_e, assign_desc,
                                              9);

        Vector<uint32_t> dist_l(n);
        dist_l.fill(1);
        const metrics::Interval interval;
        {
            ExecModeScope mode(ExecMode::kNonBlocking);
            SpmvDispatcher<uint8_t> d(A);
            LazyVector<uint8_t> w_l(n);
            lazy::dispatch_spmv<LorLand>(d, w_l, &dist_l, kDefaultDesc,
                                         u);
            lazy::assign_scalar(dist_l, w_l, assign_desc, uint32_t{9});
        }
        EXPECT_GT(interval.delta()[metrics::kLazyFallbacks], 0u)
            << "complement/replace assigns must not fuse";
        EXPECT_EQ(to_model(dist_e), to_model(dist_l));
    }
}

// ---- chain: mxv + apply, and eWiseMult feeding mxv (the PR round) ----

TEST_P(GrbLazyTest, PagerankRoundChainIsBitwiseIdentical)
{
    const Index n = 40;
    const auto At = random_matrix<double>(n, 0.12, 31);
    auto delta = random_vector<double>(n, 1.0, 32, true);
    auto inv = random_vector<double>(n, 1.0, 33, true);
    const double damping = 0.85;
    const auto mul = [](double d, double i) { return d * i; };
    const auto damp = [damping](double x) { return damping * x; };

    // Eager: contrib = delta .* inv; update = At * contrib; damping.
    Vector<double> contrib_e;
    grb::ewise_mult(contrib_e, delta, inv, mul);
    Vector<double> update_e;
    grb::mxv<PlusTimes<double>>(update_e, kDefaultDesc, At, contrib_e);
    grb::apply(update_e, update_e, damp);

    Model<double> update_l_model;
    const metrics::Interval interval;
    {
        ExecModeScope mode(ExecMode::kNonBlocking);
        LazyVector<double> contrib(n);
        LazyVector<double> update(n);
        lazy::ewise_mult(contrib, delta, inv, mul);
        lazy::mxv<PlusTimes<double>>(update, kDefaultDesc, At, contrib);
        lazy::apply(update, damp);
        update_l_model = to_model(update.value());

        // The producer was fused away; overwriting it revives it.
        contrib.fill(0.0);
        EXPECT_EQ(contrib.nvals(), static_cast<Nnz>(n));
    }
    // eWiseMult folded into the pull operand view + damping absorbed.
    EXPECT_GE(interval.delta()[metrics::kFusedChains], 2u);

    const auto eager = to_model(update_e);
    ASSERT_EQ(eager.size(), update_l_model.size());
    for (const auto& [i, x] : eager) {
        ASSERT_TRUE(update_l_model.count(i));
        EXPECT_EQ(std::bit_cast<uint64_t>(x),
                  std::bit_cast<uint64_t>(update_l_model[i]))
            << "entry " << i << " differs in bits";
    }
}

TEST_P(GrbLazyTest, MaskedMxvApplyMatchesEagerAcrossDescriptors)
{
    const Index n = 28;
    const auto A = random_matrix<uint64_t>(n, 0.18, 41);
    const auto u = random_vector<uint64_t>(n, 1.0, 42, true);
    const auto mask = random_vector<uint64_t>(n, 0.4, 43, false);
    const auto bump_fn = [](uint64_t x) { return x + 5; };

    for (const Descriptor& desc : kDescSweep) {
        Vector<uint64_t> w_e;
        grb::mxv<PlusTimes<uint64_t>>(w_e, &mask, desc, A, u);
        grb::apply(w_e, w_e, bump_fn);

        Model<uint64_t> w_l_model;
        {
            ExecModeScope mode(ExecMode::kNonBlocking);
            LazyVector<uint64_t> ul(u);
            LazyVector<uint64_t> w_l(n);
            lazy::mxv<PlusTimes<uint64_t>>(w_l, &mask, desc, A, ul);
            lazy::apply(w_l, bump_fn);
            w_l_model = to_model(w_l.value());
        }
        EXPECT_EQ(to_model(w_e), w_l_model)
            << "complement=" << desc.mask_complement
            << " replace=" << desc.replace
            << " structural=" << desc.structural_mask;
    }
}

// ---- chain: eWise op + assign_scalar masked by the result ----

TEST_P(GrbLazyTest, EwiseAssignChainMatchesEager)
{
    const Index n = 30;
    auto u = random_vector<uint64_t>(n, 1.0, 51, true);
    auto v = random_vector<uint64_t>(n, 1.0, 52, true);
    // Plant zeros so value vs structural assign masks differ.
    u.set_element(3, 0);
    v.set_element(3, 5);
    v.set_element(7, 0);
    u.set_element(7, 2);
    const auto mul = [](uint64_t a, uint64_t b) { return a * b; };
    const auto add = [](uint64_t a, uint64_t b) { return a + b; };

    const Descriptor assign_descs[] = {kDefaultDesc, kStructuralDesc};
    for (const Descriptor& assign_desc : assign_descs) {
        for (const bool intersection : {true, false}) {
            Vector<uint64_t> w_e;
            Vector<uint32_t> target_e(n);
            target_e.fill(1);
            if (intersection) {
                grb::ewise_mult(w_e, u, v, mul);
            } else {
                grb::ewise_add(w_e, u, v, add);
            }
            grb::assign_scalar<uint32_t, uint64_t>(target_e, &w_e,
                                                   assign_desc, 8);

            Vector<uint32_t> target_l(n);
            target_l.fill(1);
            Model<uint64_t> w_l_model;
            const metrics::Interval interval;
            {
                ExecModeScope mode(ExecMode::kNonBlocking);
                LazyVector<uint64_t> w_l(n);
                if (intersection) {
                    lazy::ewise_mult(w_l, u, v, mul);
                } else {
                    lazy::ewise_add(w_l, u, v, add);
                }
                lazy::assign_scalar(target_l, w_l, assign_desc,
                                    uint32_t{8});
                w_l_model = to_model(w_l.value());
            }
            EXPECT_GT(interval.delta()[metrics::kFusedChains], 0u)
                << "dense-dense ewise + assign must fuse";
            EXPECT_EQ(to_model(w_e), w_l_model);
            EXPECT_EQ(to_model(target_e), to_model(target_l))
                << "intersection=" << intersection << " structural="
                << assign_desc.structural_mask;
        }
    }
}

// The same chain over dense operands that are only half present, with
// different patterns: the union sees u-only, v-only, both and neither
// entries, and the planted zeros split value from structural assigns.
TEST_P(GrbLazyTest, EwiseAssignChainWithPartialOperands)
{
    const Index n = 64;
    auto u = random_vector<uint64_t>(n, 0.5, 151, false);
    auto v = random_vector<uint64_t>(n, 0.5, 152, false);
    u.set_element(5, 0);  // zero in u
    v.set_element(9, 0);  // zero in v
    u.set_element(12, 0); // zeros on both sides
    v.set_element(12, 0);
    u.densify();
    v.densify();
    std::array<int, 4> kinds{}; // neither, u-only, v-only, both
    for (Index i = 0; i < n; ++i) {
        const bool in_u = u.get_element(i).has_value();
        const bool in_v = v.get_element(i).has_value();
        ++kinds[(in_u ? 1 : 0) + (in_v ? 2 : 0)];
    }
    for (const int count : kinds) {
        ASSERT_GT(count, 0) << "every presence pattern must occur";
    }
    const auto mul = [](uint64_t a, uint64_t b) { return a * b; };
    const auto add = [](uint64_t a, uint64_t b) { return a + b; };

    for (const Descriptor& assign_desc : {kDefaultDesc, kStructuralDesc}) {
        for (const bool intersection : {true, false}) {
            Vector<uint64_t> w_e;
            Vector<uint32_t> target_e(n);
            target_e.set_element(1, 4);
            if (intersection) {
                grb::ewise_mult(w_e, u, v, mul);
            } else {
                grb::ewise_add(w_e, u, v, add);
            }
            grb::assign_scalar<uint32_t, uint64_t>(target_e, &w_e,
                                                   assign_desc, 8);

            Vector<uint32_t> target_l(n);
            target_l.set_element(1, 4);
            Model<uint64_t> w_l_model;
            const metrics::Interval interval;
            {
                ExecModeScope mode(ExecMode::kNonBlocking);
                LazyVector<uint64_t> w_l(n);
                if (intersection) {
                    lazy::ewise_mult(w_l, u, v, mul);
                } else {
                    lazy::ewise_add(w_l, u, v, add);
                }
                lazy::assign_scalar(target_l, w_l, assign_desc,
                                    uint32_t{8});
                w_l_model = to_model(w_l.value());
            }
            SCOPED_TRACE(::testing::Message()
                         << "intersection=" << intersection
                         << " structural=" << assign_desc.structural_mask);
            EXPECT_GT(interval.delta()[metrics::kFusedChains], 0u);
            EXPECT_EQ(to_model(w_e), w_l_model);
            EXPECT_EQ(to_model(target_e), to_model(target_l));
            EXPECT_EQ(target_e.nvals(), target_l.nvals());
        }
    }
}

// ---- chain: eWiseMult + select_entries (the SSSP relaxation) ----

TEST_P(GrbLazyTest, EwiseSelectChainMatchesEager)
{
    constexpr uint64_t kInf = ~uint64_t{0};
    const Index n = 30;
    const auto cmp = [](uint64_t c, uint64_t d) {
        return c < d ? c : kInf;
    };
    const auto pred = [](Index, uint64_t x) { return x != kInf; };

    // Sparse candidates x dense dist (the algorithm's shape) and
    // dense x dense both route through ewise_mult_select.
    for (const bool dense_candidates : {false, true}) {
        const auto candidates = random_vector<uint64_t>(
            n, dense_candidates ? 1.0 : 0.4, 61, dense_candidates);
        auto dist = random_vector<uint64_t>(n, 1.0, 62, true);

        Vector<uint64_t> improvements_e;
        grb::ewise_mult(improvements_e, candidates, dist, cmp);
        Vector<uint64_t> improved_e;
        grb::select_entries(improved_e, improvements_e, pred);

        Model<uint64_t> improved_l_model;
        const metrics::Interval interval;
        {
            ExecModeScope mode(ExecMode::kNonBlocking);
            LazyVector<uint64_t> improvements(n);
            LazyVector<uint64_t> improved(n);
            lazy::ewise_mult(improvements, candidates, dist, cmp);
            lazy::select_entries(improved, improvements, pred);
            improved_l_model = to_model(improved.value());
        }
        EXPECT_GT(interval.delta()[metrics::kFusedChains], 0u)
            << "ewise_mult + select must fuse (dense="
            << dense_candidates << ")";
        EXPECT_EQ(to_model(improved_e), improved_l_model);
    }
}

// ---- fallback shapes stay correct ----

TEST_P(GrbLazyTest, UnfusableShapesFallBackAndStayCorrect)
{
    const Index n = 20;
    auto u = random_vector<uint64_t>(n, 1.0, 71, true);
    const auto v = random_vector<uint64_t>(n, 1.0, 72, true);
    const auto add = [](uint64_t a, uint64_t b) { return a + b; };

    // apply on a handle with no pending node: eager with a fallback.
    {
        Vector<uint64_t> w_e = u;
        grb::apply(w_e, w_e, [](uint64_t x) { return x * 3; });

        const metrics::Interval interval;
        ExecModeScope mode(ExecMode::kNonBlocking);
        LazyVector<uint64_t> w_l(u);
        lazy::apply(w_l, [](uint64_t x) { return x * 3; });
        EXPECT_EQ(to_model(w_e), to_model(w_l.value()));
        EXPECT_GT(interval.delta()[metrics::kLazyFallbacks], 0u);
    }

    // select on a handle whose node is an eWiseAdd (union: no fused
    // select shape) falls back and still matches eager.
    {
        Vector<uint64_t> w_e;
        grb::ewise_add(w_e, u, v, add);
        Vector<uint64_t> sel_e;
        grb::select_entries(sel_e, w_e,
                            [](Index, uint64_t x) { return x % 2 == 0; });

        const metrics::Interval interval;
        ExecModeScope mode(ExecMode::kNonBlocking);
        LazyVector<uint64_t> w_l(n);
        LazyVector<uint64_t> sel_l(n);
        lazy::ewise_add(w_l, u, v, add);
        lazy::select_entries(sel_l, w_l,
                             [](Index, uint64_t x) { return x % 2 == 0; });
        EXPECT_EQ(to_model(sel_e), to_model(sel_l.value()));
        EXPECT_GT(interval.delta()[metrics::kLazyFallbacks], 0u);
    }
}

// ---- blocking-mode recording equals the eager ops ----

TEST_P(GrbLazyTest, BlockingModeExecutesImmediately)
{
    const Index n = 24;
    const auto A = random_matrix<uint8_t>(n, 0.2, 81);
    const auto u = random_vector<uint8_t>(n, 0.3, 82, false);

    ASSERT_EQ(exec_mode(), ExecMode::kBlocking);
    const metrics::Interval interval;
    Vector<uint32_t> dist(n);
    dist.fill(2);
    SpmvDispatcher<uint8_t> d(A);
    LazyVector<uint8_t> w(n);
    lazy::dispatch_spmv<LorLand>(d, w, &dist, kDefaultDesc, u);
    EXPECT_FALSE(w.pending()) << "blocking mode must execute on record";
    EXPECT_EQ(interval.delta()[metrics::kLazyOpsDeferred], 0u);

    Vector<uint8_t> w_e;
    SpmvDispatcher<uint8_t> d2(A);
    Vector<uint32_t> dist_e(n);
    dist_e.fill(2);
    d2.dispatch_spmv<LorLand>(w_e, &dist_e, kDefaultDesc, u);
    EXPECT_EQ(to_model(w_e), to_model(w.value()));

    // Blocking mode is the eager ops counter for counter: rounds
    // recorded into one handle must not recycle its buffers (the third
    // round is the first that could reuse a spare). One thread keeps
    // the scheduler counters deterministic.
    rt::set_num_threads(1);
    const auto Ad = random_matrix<double>(n, 0.2, 83);
    const auto ud = random_vector<double>(n, 1.0, 84, true);
    const Vector<uint8_t> mask = random_vector<uint8_t>(n, 0.5, 85, false);
    const auto eager_rounds = [&] {
        SpmvDispatcher<uint8_t> de(A);
        Vector<uint8_t> we;
        Vector<double> xe;
        for (int round = 0; round < 3; ++round) {
            de.dispatch_spmv<LorLand>(we, &dist_e, kDefaultDesc, u);
            grb::mxv<PlusTimes<double>>(xe, &mask, kDefaultDesc, Ad, ud);
        }
        return to_model(xe);
    };
    const auto recorded_rounds = [&] {
        SpmvDispatcher<uint8_t> dl(A);
        LazyVector<uint8_t> wl(n);
        LazyVector<double> xl(n);
        LazyVector<double> ul(ud);
        for (int round = 0; round < 3; ++round) {
            lazy::dispatch_spmv<LorLand>(dl, wl, &dist_e, kDefaultDesc, u);
            lazy::mxv<PlusTimes<double>>(xl, &mask, kDefaultDesc, Ad, ul);
        }
        return to_model(xl.value());
    };
    // Warm run: first-use workspaces charge bytes once.
    (void)eager_rounds();
    const metrics::Interval eager_interval;
    const auto eager_x = eager_rounds();
    const auto eager_delta = eager_interval.delta();
    const metrics::Interval recorded_interval;
    const auto recorded_x = recorded_rounds();
    const auto recorded_delta = recorded_interval.delta();
    EXPECT_EQ(eager_x, recorded_x);
    for (unsigned c = 0; c < metrics::kNumCounters; ++c) {
        const auto id = static_cast<metrics::CounterId>(c);
        EXPECT_EQ(recorded_delta[id], eager_delta[id])
            << "counter " << metrics::counter_name(id);
    }
}

// ---- materialization points ----

TEST_P(GrbLazyTest, EveryMaterializationPointFlushes)
{
    const Index n = 16;
    const auto A = random_matrix<uint8_t>(n, 0.3, 91);
    const auto u = random_vector<uint8_t>(n, 0.4, 92, false);

    const auto record = [&](SpmvDispatcher<uint8_t>& d,
                            LazyVector<uint8_t>& w,
                            Vector<uint32_t>& dist) {
        dist = Vector<uint32_t>(n);
        dist.fill(1);
        lazy::dispatch_spmv<LorLand>(d, w, &dist, kDefaultDesc, u);
    };

    ExecModeScope mode(ExecMode::kNonBlocking);
    Vector<uint32_t> dist(n);
    SpmvDispatcher<uint8_t> d(A);

    { // nvals()
        LazyVector<uint8_t> w(n);
        record(d, w, dist);
        EXPECT_TRUE(w.pending());
        w.nvals();
        EXPECT_FALSE(w.pending());
    }
    { // wait()
        LazyVector<uint8_t> w(n);
        record(d, w, dist);
        w.wait();
        EXPECT_FALSE(w.pending());
    }
    { // lazy reduce
        LazyVector<uint8_t> w(n);
        record(d, w, dist);
        lazy::reduce<MinMonoid<uint8_t>>(w);
        EXPECT_FALSE(w.pending());
    }
    { // handle destruction runs pending side effects
        Vector<uint32_t> target(n);
        target.fill(1);
        Vector<uint32_t> expected = target;
        Vector<uint8_t> w_e;
        {
            SpmvDispatcher<uint8_t> de(A);
            de.dispatch_spmv<LorLand>(w_e, &expected, kDefaultDesc, u);
        }
        grb::assign_scalar<uint32_t, uint8_t>(expected, &w_e,
                                              kDefaultDesc, 4);
        {
            SpmvDispatcher<uint8_t> dl(A);
            LazyVector<uint8_t> w(n);
            lazy::dispatch_spmv<LorLand>(dl, w, &target, kDefaultDesc, u);
            lazy::assign_scalar(target, w, kDefaultDesc, uint32_t{4});
            // w destroyed unread: the fused assign must still land.
        }
        EXPECT_EQ(to_model(expected), to_model(target));
    }
    { // BackendScope entry flushes pending work
        LazyVector<uint8_t> w(n);
        record(d, w, dist);
        EXPECT_TRUE(w.pending());
        BackendScope scope(backend());
        EXPECT_FALSE(w.pending());
    }
    { // leaving non-blocking mode flushes
        LazyVector<uint8_t> w(n);
        {
            ExecModeScope inner(ExecMode::kNonBlocking);
            record(d, w, dist);
            EXPECT_TRUE(w.pending());
        }
        EXPECT_FALSE(w.pending());
    }
}

// ---- replace / structural assign semantics (the fused-kernel audit) ----

TEST_P(GrbLazyTest, AssignReplaceClearsOutsideMaskEntries)
{
    const Index n = 6;
    // Mask: implicit at 0/2/4/5, explicit zero at 1, non-zero at 3.
    Vector<uint64_t> mask(n);
    mask.set_element(1, 0);
    mask.set_element(3, 2);

    const auto run = [&](const Descriptor& desc) {
        Vector<uint32_t> t(n);
        t.fill(5);
        grb::assign_scalar<uint32_t, uint64_t>(t, &mask, desc, 9);
        return to_model(t);
    };

    // Value mask truth: {3}. replace clears everything else.
    EXPECT_EQ(run(kReplaceDesc), (Model<uint32_t>{{3, 9}}));
    // Structural truth: {1, 3}.
    EXPECT_EQ(run(Descriptor{false, true, true}),
              (Model<uint32_t>{{1, 9}, {3, 9}}));
    // Complement + replace: everything but {3} assigned, {3} cleared.
    EXPECT_EQ(run(kComplementReplaceDesc),
              (Model<uint32_t>{{0, 9}, {1, 9}, {2, 9}, {4, 9}, {5, 9}}));
    // Without replace, outside-mask entries keep their old value.
    EXPECT_EQ(run(kDefaultDesc),
              (Model<uint32_t>{{0, 5}, {1, 5}, {2, 5}, {3, 9}, {4, 5},
                               {5, 5}}));
}

// ---- buffer recycling: lazy/fused runs materialize fewer bytes ----

TEST_P(GrbLazyTest, LazyBfsMaterializesFewerBytes)
{
    const Index n = 256;
    const auto A = random_matrix<uint8_t>(n, 0.02, 101);
    const auto At = A.transpose();

    const auto bytes_of = [&](auto&& fn) {
        const metrics::Interval interval;
        fn();
        return interval.delta();
    };
    // Force push so the comparison is apples-to-apples with the
    // push-only eager bfs: the savings measured here are fusion +
    // buffer recycling alone, not direction choice (auto mode may buy
    // pull rounds whose dense frontiers cost bytes to save time).
    const auto eager = bytes_of([&] { la::bfs(A, 0); });
    const auto lazy_run = bytes_of(
        [&] { la::bfs_lazy(A, At, 0, Direction::kPush); });

    EXPECT_LT(lazy_run[metrics::kBytesMaterialized],
              eager[metrics::kBytesMaterialized]);
    EXPECT_GT(lazy_run[metrics::kFusedChains], 0u);
    EXPECT_GT(lazy_run[metrics::kLazyOpsDeferred], 0u);
}

// ---- rewired algorithms match their eager counterparts ----

TEST_P(GrbLazyTest, BfsLazyMatchesEagerVariants)
{
    const Index n = 200;
    const auto A = random_matrix<uint8_t>(n, 0.03, 111);
    const auto At = A.transpose();

    const auto base = la::bfs(A, 0);
    const auto lazy_run = la::bfs_lazy(A, At, 0);
    EXPECT_EQ(to_model(base), to_model(lazy_run));

    // Forced directions must not change the result either.
    EXPECT_EQ(to_model(base),
              to_model(la::bfs_lazy(A, At, 0, Direction::kPush)));
    EXPECT_EQ(to_model(base),
              to_model(la::bfs_lazy(A, At, 0, Direction::kPull)));
}

TEST_P(GrbLazyTest, PagerankResidualLazyIsBitwiseIdentical)
{
    const Index n = 120;
    const auto A = random_matrix<double>(n, 0.05, 121);
    const auto At = A.transpose();

    const auto eager = la::pagerank_residual(A, At, 0.85, 10);
    const metrics::Interval interval;
    const auto lazy_run = la::pagerank_residual_lazy(A, At, 0.85, 10);
    EXPECT_GT(interval.delta()[metrics::kFusedChains], 0u);

    ASSERT_EQ(eager.size(), lazy_run.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(eager[i]),
                  std::bit_cast<uint64_t>(lazy_run[i]))
            << "rank " << i << " differs in bits";
    }
}

TEST_P(GrbLazyTest, SsspDeltaLazyMatchesEager)
{
    const Index n = 150;
    const auto A = random_matrix<uint64_t>(n, 0.04, 131);

    const auto eager = la::sssp_delta(A, 0, 4);
    const metrics::Interval interval;
    const auto lazy_run = la::sssp_delta_lazy(A, 0, 4);
    EXPECT_GT(interval.delta()[metrics::kFusedChains], 0u);
    EXPECT_EQ(eager, lazy_run);
}

// The passes, bytes and planner decisions of whole lazy runs, and the
// passes, bytes and label traffic of their eager baselines (the Table
// IV/V figures of the unfused matrix API). The recycled scratch of the
// PR round and the fused select's output are what a kernel refactor
// could change without changing a result.
TEST_P(GrbLazyTest, LazyChainsKeepPassesAndBytes)
{
    using Counts = std::vector<uint64_t>;
    const std::vector<metrics::CounterId> kCounters = {
        metrics::kPasses, metrics::kBytesMaterialized,
        metrics::kFusedChains, metrics::kLazyFallbacks};
    const std::vector<metrics::CounterId> kEagerCounters = {
        metrics::kPasses, metrics::kBytesMaterialized,
        metrics::kLabelReads, metrics::kLabelWrites, metrics::kWorkItems};
    const auto measure = [&](const std::vector<metrics::CounterId>& ids,
                             const auto& run) {
        const metrics::Interval interval;
        run();
        const auto delta = interval.delta();
        Counts counts;
        for (const auto id : ids) {
            counts.push_back(delta[id]);
        }
        return counts;
    };
    const auto render = [](const Counts& c) {
        std::string out = "{";
        for (std::size_t k = 0; k < c.size(); ++k) {
            out += (k == 0 ? "" : ", ") + std::to_string(c[k]);
        }
        return out + "}";
    };

    const auto Ad = random_matrix<double>(120, 0.05, 121);
    const auto At = Ad.transpose();
    const auto Au = random_matrix<uint64_t>(150, 0.04, 131);
    const auto run_pr = [&] {
        (void)la::pagerank_residual_lazy(Ad, At, 0.85, 10);
    };
    const auto run_sssp = [&] { (void)la::sssp_delta_lazy(Au, 0, 4); };
    const auto run_pr_eager = [&] {
        (void)la::pagerank_residual(Ad, At, 0.85, 10);
    };
    const auto run_sssp_eager = [&] { (void)la::sssp_delta(Au, 0, 4); };
    // Warm runs first: first-use allocations (the cached SPA
    // workspaces, storage a matrix builds on first use) charge bytes
    // once, which would make the counts depend on test order.
    run_pr();
    run_sssp();
    run_pr_eager();
    run_sssp_eager();
    const auto pr = measure(kCounters, run_pr);
    const auto sssp = measure(kCounters, run_sssp);
    const auto pr_eager = measure(kEagerCounters, run_pr_eager);
    const auto sssp_eager = measure(kEagerCounters, run_sssp_eager);

    // passes, bytes materialized, fused chains, lazy fallbacks; equal on
    // both backends. sssp's bytes include the light/heavy matrices it
    // builds each run, whose storage follows a GAS_FORMAT override.
    const Counts pr_expected = {34, 5400, 20, 0};
    uint64_t sssp_bytes = 27010;
    if (const auto forced = storage_format_from_env()) {
        switch (*forced) {
          case StorageFormat::kCsr: sssp_bytes = 26422; break;
          case StorageFormat::kBitmapCsr: sssp_bytes = 27630; break;
          case StorageFormat::kSell: sssp_bytes = 42518; break;
        }
    }
    const Counts sssp_expected = {88, sssp_bytes, 18, 0};
    EXPECT_EQ(pr, pr_expected) << "pagerank_residual_lazy measured "
                               << render(pr);
    EXPECT_EQ(sssp, sssp_expected) << "sssp_delta_lazy measured "
                                   << render(sssp);

    // passes, bytes materialized, label reads, label writes, work items
    // of the eager baselines; equal on both backends.
    const Counts pr_eager_expected = {44, 23760, 10750, 5242, 10940};
    uint64_t sssp_eager_bytes = 41806;
    if (const auto forced = storage_format_from_env()) {
        switch (*forced) {
          case StorageFormat::kCsr: sssp_eager_bytes = 41218; break;
          case StorageFormat::kBitmapCsr: sssp_eager_bytes = 42426; break;
          case StorageFormat::kSell: sssp_eager_bytes = 57314; break;
        }
    }
    const Counts sssp_eager_expected = {106, sssp_eager_bytes, 1729, 2702,
                                        6791};
    EXPECT_EQ(pr_eager, pr_eager_expected) << "pagerank_residual measured "
                                           << render(pr_eager);
    EXPECT_EQ(sssp_eager, sssp_eager_expected) << "sssp_delta measured "
                                               << render(sssp_eager);
}

// ---- trace attribution still reconciles over a lazy run ----

TEST_P(GrbLazyTest, LazyRunCountersReconcileWithSpanSelfDeltas)
{
    rt::set_num_threads(4);
    const Index n = 128;
    const auto A = random_matrix<uint8_t>(n, 0.04, 141);
    const auto At = A.transpose();

    trace::set_enabled(true);
    trace::reset();
    metrics::reset();
    const metrics::Interval interval;
    la::bfs_lazy(A, At, 0);
    const auto totals = interval.delta();
    const auto data = trace::snapshot();
    trace::set_enabled(false);
    trace::reset();
    ASSERT_EQ(data.dropped, 0u);
    ASSERT_FALSE(data.spans.empty());

    std::array<uint64_t, metrics::kNumCounters> summed{};
    for (const auto& s : data.spans) {
        for (unsigned c = 0; c < metrics::kNumCounters; ++c) {
            summed[c] += s.self[c];
        }
    }
    EXPECT_GT(totals[metrics::kBytesMaterialized], 0u);
    for (unsigned c = 0; c < metrics::kNumCounters; ++c) {
        const auto id = static_cast<metrics::CounterId>(c);
        EXPECT_EQ(summed[c], totals[id])
            << "counter " << metrics::counter_name(id);
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, GrbLazyTest,
                         ::testing::Values(Backend::kReference,
                                           Backend::kParallel),
                         [](const auto& info) {
                             return info.param == Backend::kReference
                                 ? "reference"
                                 : "parallel";
                         });

} // namespace
} // namespace gas::grb
