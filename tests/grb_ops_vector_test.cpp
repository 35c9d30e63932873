/**
 * @file
 * Tests for vector-level grb operations (assign, apply, eWise, reduce,
 * gather/scatter, select, equality) on both backends.
 */

#include <gtest/gtest.h>

#include <map>

#include "matrix/grb.h"
#include "runtime/thread_pool.h"
#include "support/random.h"

namespace gas::grb {
namespace {

class GrbOpsVectorTest : public ::testing::TestWithParam<Backend>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        set_backend(GetParam());
    }

    void TearDown() override { set_backend(Backend::kParallel); }
};

/// Model of a vector as a map for oracle comparisons.
using Model = std::map<Index, int64_t>;

Model
to_model(const Vector<int64_t>& v)
{
    Model model;
    v.for_entries([&](Index i, int64_t x) { model[i] = x; });
    return model;
}

Vector<int64_t>
random_vector(Index size, double density, uint64_t seed, bool dense_format)
{
    Vector<int64_t> v(size);
    Rng rng(seed);
    for (Index i = 0; i < size; ++i) {
        if (rng.next_double() < density) {
            v.set_element(i, static_cast<int64_t>(rng.next_bounded(100)));
        }
    }
    if (dense_format) {
        v.densify();
    }
    return v;
}

TEST_P(GrbOpsVectorTest, AssignScalarWithoutMask)
{
    Vector<int64_t> w(50);
    assign_scalar<int64_t, uint8_t>(w, nullptr, kDefaultDesc, int64_t{7});
    EXPECT_EQ(w.nvals(), 50u);
    EXPECT_EQ(w.get_element(13), 7);
}

TEST_P(GrbOpsVectorTest, AssignScalarSparseMask)
{
    Vector<int64_t> w(10);
    w.fill(0);
    Vector<int64_t> mask(10);
    mask.set_element(2, 1);
    mask.set_element(5, 1);
    mask.set_element(7, 0); // explicit zero: mask-false
    Vector<int64_t> mask_cast = mask;
    assign_scalar(w, &mask_cast, kDefaultDesc, int64_t{9});
    EXPECT_EQ(w.get_element(2), 9);
    EXPECT_EQ(w.get_element(5), 9);
    EXPECT_EQ(w.get_element(7), 0);
    EXPECT_EQ(w.get_element(0), 0);
}

TEST_P(GrbOpsVectorTest, AssignScalarComplementMask)
{
    Vector<int64_t> w(6);
    w.fill(1);
    Vector<int64_t> mask(6);
    mask.set_element(0, 1);
    mask.set_element(3, 1);
    assign_scalar(w, &mask, Descriptor{true, false}, int64_t{5});
    EXPECT_EQ(w.get_element(0), 1);
    EXPECT_EQ(w.get_element(3), 1);
    EXPECT_EQ(w.get_element(1), 5);
    EXPECT_EQ(w.get_element(5), 5);
}

TEST_P(GrbOpsVectorTest, AssignGrowsSparseVector)
{
    Vector<int64_t> w(10); // empty sparse
    Vector<int64_t> mask(10);
    mask.set_element(4, 1);
    assign_scalar(w, &mask, kDefaultDesc, int64_t{3});
    EXPECT_EQ(w.nvals(), 1u);
    EXPECT_EQ(w.get_element(4), 3);
}

TEST_P(GrbOpsVectorTest, ApplyPreservesStructure)
{
    for (const bool dense : {false, true}) {
        auto u = random_vector(64, 0.3, 11, dense);
        Vector<int64_t> w;
        apply(w, u, [](int64_t x) { return x * 2 + 1; });
        EXPECT_EQ(w.nvals(), u.nvals());
        const auto expected = to_model(u);
        for (const auto& [i, x] : to_model(w)) {
            EXPECT_EQ(x, expected.at(i) * 2 + 1);
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseAddUnionSemantics)
{
    for (const bool u_dense : {false, true}) {
        for (const bool v_dense : {false, true}) {
            auto u = random_vector(80, 0.25, 21, u_dense);
            auto v = random_vector(80, 0.25, 22, v_dense);
            Vector<int64_t> w;
            ewise_add(w, u, v,
                      [](int64_t a, int64_t b) { return a + b; });
            Model expected = to_model(u);
            for (const auto& [i, x] : to_model(v)) {
                auto [it, inserted] = expected.try_emplace(i, x);
                if (!inserted) {
                    it->second += x;
                }
            }
            EXPECT_EQ(to_model(w), expected)
                << "u_dense=" << u_dense << " v_dense=" << v_dense;
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseAddNonCommutativeOrder)
{
    auto u = random_vector(40, 0.5, 31, true);
    auto v = random_vector(40, 0.5, 32, false);
    Vector<int64_t> w;
    ewise_add(w, u, v, [](int64_t a, int64_t b) { return a - b; });
    const Model mu = to_model(u);
    const Model mv = to_model(v);
    for (const auto& [i, x] : to_model(w)) {
        const bool in_u = mu.contains(i);
        const bool in_v = mv.contains(i);
        if (in_u && in_v) {
            EXPECT_EQ(x, mu.at(i) - mv.at(i));
        } else if (in_u) {
            EXPECT_EQ(x, mu.at(i));
        } else {
            EXPECT_EQ(x, mv.at(i));
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseMultIntersectionSemantics)
{
    for (const bool u_dense : {false, true}) {
        for (const bool v_dense : {false, true}) {
            auto u = random_vector(80, 0.4, 41, u_dense);
            auto v = random_vector(80, 0.4, 42, v_dense);
            Vector<int64_t> w;
            ewise_mult(w, u, v,
                       [](int64_t a, int64_t b) { return a * 10 + b; });
            const Model mu = to_model(u);
            const Model mv = to_model(v);
            Model expected;
            for (const auto& [i, x] : mu) {
                if (mv.contains(i)) {
                    expected[i] = x * 10 + mv.at(i);
                }
            }
            EXPECT_EQ(to_model(w), expected)
                << "u_dense=" << u_dense << " v_dense=" << v_dense;
        }
    }
}

TEST_P(GrbOpsVectorTest, ReducePlus)
{
    auto u = random_vector(1000, 0.5, 51, false);
    int64_t expected = 0;
    for (const auto& [i, x] : to_model(u)) {
        expected += x;
    }
    EXPECT_EQ((reduce<PlusMonoid<int64_t>>(u)), expected);
    u.densify();
    EXPECT_EQ((reduce<PlusMonoid<int64_t>>(u)), expected);
}

TEST_P(GrbOpsVectorTest, ReduceMinAndMax)
{
    Vector<int64_t> u(10);
    u.set_element(1, 5);
    u.set_element(4, -3);
    u.set_element(9, 12);
    EXPECT_EQ((reduce<MinMonoid<int64_t>>(u)), -3);
    EXPECT_EQ((reduce<MaxMonoid<int64_t>>(u)), 12);
}

TEST_P(GrbOpsVectorTest, ReduceEmptyIsIdentity)
{
    Vector<int64_t> u(10);
    EXPECT_EQ((reduce<PlusMonoid<int64_t>>(u)), 0);
    EXPECT_EQ((reduce<MinMonoid<int64_t>>(u)),
              std::numeric_limits<int64_t>::max());
}

TEST_P(GrbOpsVectorTest, GatherPointerJump)
{
    // parent = [1, 2, 3, 3]; gather(parent, parent) = [2, 3, 3, 3].
    Vector<int64_t> parent(4);
    parent.fill(0);
    parent.set_element(0, 1);
    parent.set_element(1, 2);
    parent.set_element(2, 3);
    parent.set_element(3, 3);
    Vector<int64_t> grandparent;
    gather(grandparent, parent, parent);
    EXPECT_EQ(grandparent.get_element(0), 2);
    EXPECT_EQ(grandparent.get_element(1), 3);
    EXPECT_EQ(grandparent.get_element(2), 3);
    EXPECT_EQ(grandparent.get_element(3), 3);
}

TEST_P(GrbOpsVectorTest, ScatterMinTakesMinimum)
{
    Vector<int64_t> w(4);
    w.fill(100);
    Vector<int64_t> idx(3);
    idx.fill(0);
    idx.set_element(0, 2);
    idx.set_element(1, 2);
    idx.set_element(2, 0);
    Vector<int64_t> u(3);
    u.fill(0);
    u.set_element(0, 7);
    u.set_element(1, 3);
    u.set_element(2, 50);
    scatter_min(w, idx, u);
    EXPECT_EQ(w.get_element(2), 3);
    EXPECT_EQ(w.get_element(0), 50);
    EXPECT_EQ(w.get_element(1), 100);
}

TEST_P(GrbOpsVectorTest, SelectEntries)
{
    auto u = random_vector(200, 0.5, 61, GetParam() == Backend::kParallel);
    Vector<int64_t> w;
    select_entries(w, u,
                   [](Index, int64_t x) { return x % 2 == 0; });
    Model expected;
    for (const auto& [i, x] : to_model(u)) {
        if (x % 2 == 0) {
            expected[i] = x;
        }
    }
    EXPECT_EQ(to_model(w), expected);
    if (GetParam() == Backend::kReference) {
        EXPECT_TRUE(w.sorted());
    }
}

TEST_P(GrbOpsVectorTest, VectorsEqual)
{
    auto u = random_vector(64, 0.4, 71, false);
    Vector<int64_t> v = u;
    EXPECT_TRUE(vectors_equal(u, v));
    v.densify();
    EXPECT_TRUE(vectors_equal(u, v)); // format-independent
    v.set_element(0, 12345);
    EXPECT_FALSE(vectors_equal(u, v));
}

INSTANTIATE_TEST_SUITE_P(Backends, GrbOpsVectorTest,
                         ::testing::Values(Backend::kReference,
                                           Backend::kParallel),
                         [](const auto& info) {
                             return info.param == Backend::kReference
                                 ? "Reference"
                                 : "Parallel";
                         });

} // namespace
} // namespace gas::grb
