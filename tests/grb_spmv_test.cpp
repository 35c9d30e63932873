/**
 * @file
 * Tests for vxm/mxv against a brute-force dense oracle, across
 * semirings, masks, vector formats, and both backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>

#include "matrix/grb.h"
#include "runtime/thread_pool.h"
#include "support/random.h"

namespace gas::grb {
namespace {

using Model = std::map<Index, uint64_t>;

template <typename T>
Model
to_model(const Vector<T>& v)
{
    Model model;
    v.for_entries([&](Index i, T x) { model[i] = x; });
    return model;
}

/// LorLand lifted to uint64 payloads for mask tests.
struct LorLandU64
{
    using Value = uint64_t;
    static constexpr uint64_t identity() { return 0; }
    static constexpr uint64_t add(uint64_t a, uint64_t b)
    {
        return (a != 0 || b != 0) ? 1 : 0;
    }
    static constexpr uint64_t mul(uint64_t a, uint64_t b)
    {
        return (a != 0 && b != 0) ? 1 : 0;
    }
    static constexpr bool add_is_min = false;
};

Matrix<uint64_t>
random_matrix(Index nrows, Index ncols, double density, uint64_t seed)
{
    std::vector<std::tuple<Index, Index, uint64_t>> tuples;
    Rng rng(seed);
    for (Index i = 0; i < nrows; ++i) {
        for (Index j = 0; j < ncols; ++j) {
            if (rng.next_double() < density) {
                tuples.emplace_back(i, j, 1 + rng.next_bounded(9));
            }
        }
    }
    return Matrix<uint64_t>::from_tuples(nrows, ncols, std::move(tuples));
}

Vector<uint64_t>
random_vector(Index size, double density, uint64_t seed, bool dense)
{
    Vector<uint64_t> v(size);
    Rng rng(seed);
    for (Index i = 0; i < size; ++i) {
        if (rng.next_double() < density) {
            v.set_element(i, 1 + rng.next_bounded(20));
        }
    }
    if (dense) {
        v.densify();
    }
    return v;
}

/// Oracle: w(j) = add_i mul(u(i), A(i,j)) over explicit entries.
template <typename S, typename T>
Model
vxm_oracle(const Vector<T>& u, const Matrix<T>& A)
{
    Model result;
    u.for_entries([&](Index i, T x) {
        for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
            const Index j = A.col_at(e);
            const uint64_t product = S::mul(x, A.val_at(e));
            auto [it, inserted] = result.try_emplace(j, product);
            if (!inserted) {
                it->second = S::add(it->second, product);
            }
        }
    });
    return result;
}

/// Oracle: w(i) = add_j mul(A(i,j), u(j)) over explicit entries.
template <typename S>
Model
mxv_oracle(const Matrix<uint64_t>& A, const Vector<uint64_t>& u)
{
    const Model mu = to_model(u);
    Model result;
    for (Index i = 0; i < A.nrows(); ++i) {
        uint64_t accum = S::identity();
        bool hit = false;
        for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
            const auto it = mu.find(A.col_at(e));
            if (it != mu.end()) {
                accum = S::add(accum, S::mul(A.val_at(e), it->second));
                hit = true;
            }
        }
        if (hit) {
            result[i] = accum;
        }
    }
    return result;
}

struct SpmvCase
{
    Backend backend;
    bool dense_input;
    uint64_t seed;
};

class GrbSpmvTest : public ::testing::TestWithParam<SpmvCase>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        set_backend(GetParam().backend);
    }

    void TearDown() override { set_backend(Backend::kParallel); }
};

TEST_P(GrbSpmvTest, VxmPlusTimesMatchesOracle)
{
    const auto& param = GetParam();
    const auto A = random_matrix(60, 60, 0.1, param.seed);
    const auto u = random_vector(60, 0.3, param.seed + 1,
                                 param.dense_input);
    Vector<uint64_t> w;
    vxm<PlusTimes<uint64_t>>(w, static_cast<const Vector<uint64_t>*>(nullptr),
                             kDefaultDesc, u, A);
    EXPECT_EQ(to_model(w), vxm_oracle<PlusTimes<uint64_t>>(u, A));
}

TEST_P(GrbSpmvTest, VxmMinPlusMatchesOracle)
{
    const auto& param = GetParam();
    const auto A = random_matrix(50, 50, 0.15, param.seed + 2);
    const auto u = random_vector(50, 0.2, param.seed + 3,
                                 param.dense_input);
    Vector<uint64_t> w;
    vxm<MinPlus<uint64_t>>(w, static_cast<const Vector<uint64_t>*>(nullptr),
                           kDefaultDesc, u, A);
    EXPECT_EQ(to_model(w), vxm_oracle<MinPlus<uint64_t>>(u, A));
}

TEST_P(GrbSpmvTest, VxmWithMask)
{
    const auto& param = GetParam();
    const auto A = random_matrix(40, 40, 0.2, param.seed + 4);
    const auto u = random_vector(40, 0.4, param.seed + 5,
                                 param.dense_input);
    auto mask = random_vector(40, 0.5, param.seed + 6, true);
    Vector<uint64_t> w;
    vxm<PlusTimes<uint64_t>>(w, &mask, kDefaultDesc, u, A);
    Model expected;
    for (const auto& [j, x] : vxm_oracle<PlusTimes<uint64_t>>(u, A)) {
        if (mask.mask_true(j)) {
            expected[j] = x;
        }
    }
    EXPECT_EQ(to_model(w), expected);
}

TEST_P(GrbSpmvTest, VxmWithComplementMask)
{
    const auto& param = GetParam();
    const auto A = random_matrix(40, 40, 0.2, param.seed + 7);
    const auto u = random_vector(40, 0.4, param.seed + 8,
                                 param.dense_input);
    auto mask = random_vector(40, 0.5, param.seed + 9, false);
    Vector<uint64_t> w;
    vxm<LorLandU64>(w, &mask, kComplementReplaceDesc, u, A);
    Model expected;
    for (const auto& [j, x] : vxm_oracle<LorLandU64>(u, A)) {
        if (!mask.mask_true(j)) {
            expected[j] = x;
        }
    }
    EXPECT_EQ(to_model(w), expected);
}

TEST_P(GrbSpmvTest, MxvPlusTimesMatchesOracle)
{
    const auto& param = GetParam();
    const auto A = random_matrix(70, 45, 0.12, param.seed + 10);
    const auto u = random_vector(45, 0.6, param.seed + 11,
                                 param.dense_input);
    Vector<uint64_t> w;
    mxv<PlusTimes<uint64_t>>(w, static_cast<const Vector<uint64_t>*>(nullptr),
                             kDefaultDesc, A, u);
    EXPECT_EQ(to_model(w), mxv_oracle<PlusTimes<uint64_t>>(A, u));
    EXPECT_EQ(w.format(), VectorFormat::kDense);
}

TEST_P(GrbSpmvTest, MxvMinSecondMatchesOracle)
{
    const auto& param = GetParam();
    const auto A = random_matrix(55, 55, 0.15, param.seed + 12);
    const auto u = random_vector(55, 0.8, param.seed + 13, true);
    Vector<uint64_t> w;
    mxv<MinSecond<uint64_t>>(
        w, static_cast<const Vector<uint64_t>*>(nullptr), kDefaultDesc, A,
        u);
    EXPECT_EQ(to_model(w), mxv_oracle<MinSecond<uint64_t>>(A, u));
}

TEST_P(GrbSpmvTest, MxvWithMaskSkipsRows)
{
    const auto& param = GetParam();
    const auto A = random_matrix(30, 30, 0.3, param.seed + 14);
    const auto u = random_vector(30, 0.9, param.seed + 15, true);
    auto mask = random_vector(30, 0.5, param.seed + 16, true);
    Vector<uint64_t> w;
    mxv<PlusTimes<uint64_t>>(w, &mask, kDefaultDesc, A, u);
    Model expected;
    for (const auto& [i, x] : mxv_oracle<PlusTimes<uint64_t>>(A, u)) {
        if (mask.mask_true(i)) {
            expected[i] = x;
        }
    }
    EXPECT_EQ(to_model(w), expected);
}

TEST_P(GrbSpmvTest, VxmEmptyInputGivesEmptyOutput)
{
    const auto A = random_matrix(20, 20, 0.2, 99);
    Vector<uint64_t> u(20);
    Vector<uint64_t> w;
    vxm<PlusTimes<uint64_t>>(w, static_cast<const Vector<uint64_t>*>(nullptr),
                             kDefaultDesc, u, A);
    EXPECT_EQ(w.nvals(), 0u);
}

TEST_P(GrbSpmvTest, ReferenceBackendSortsVxmOutput)
{
    const auto A = random_matrix(64, 64, 0.2, 123);
    const auto u = random_vector(64, 0.5, 124, GetParam().dense_input);
    Vector<uint64_t> w;
    vxm<PlusTimes<uint64_t>>(w, static_cast<const Vector<uint64_t>*>(nullptr),
                             kDefaultDesc, u, A);
    if (GetParam().backend == Backend::kReference) {
        EXPECT_TRUE(w.sorted());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GrbSpmvTest,
    ::testing::Values(SpmvCase{Backend::kReference, false, 1000},
                      SpmvCase{Backend::kReference, true, 2000},
                      SpmvCase{Backend::kParallel, false, 3000},
                      SpmvCase{Backend::kParallel, true, 4000}),
    [](const auto& info) {
        std::string name = info.param.backend == Backend::kReference
            ? "Reference"
            : "Parallel";
        name += info.param.dense_input ? "DenseIn" : "SparseIn";
        return name;
    });

// ---------------------------------------------------------------------
// Bit identity of the pull row scan. mxv drops the per-edge presence
// probe when u is fully present; every row must still accumulate in
// row order, so the dense output matches a serial row-order reference
// byte for byte (floating-point included), with full and partial u,
// under every storage format, backend and thread count.
// ---------------------------------------------------------------------

/// Random matrix whose row lengths span empty, short and long rows,
/// with values of type T drawn by @p draw.
template <typename T, typename Draw>
Matrix<T>
varied_matrix(Index n, uint64_t seed, Draw draw)
{
    std::vector<std::tuple<Index, Index, T>> tuples;
    Rng rng(seed);
    for (Index i = 0; i < n; ++i) {
        const uint64_t len = i % 7 == 0 ? 0
            : i % 5 == 0              ? 20 + rng.next_bounded(40)
                                      : rng.next_bounded(9);
        for (uint64_t k = 0; k < len; ++k) {
            tuples.emplace_back(i, static_cast<Index>(rng.next_bounded(n)),
                                draw(rng));
        }
    }
    // from_tuples does not merge duplicates; keep one entry per cell.
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end(),
                             [](const auto& a, const auto& b) {
                                 return std::get<0>(a) == std::get<0>(b) &&
                                     std::get<1>(a) == std::get<1>(b);
                             }),
                 tuples.end());
    return Matrix<T>::from_tuples(n, n, std::move(tuples));
}

/// Serial row-order reference for w = A * u over S.
template <typename S, typename T>
void
serial_pull(const Matrix<T>& A, const Vector<T>& u,
            std::vector<uint8_t>& present, std::vector<T>& vals)
{
    present.assign(A.nrows(), 0);
    vals.assign(A.nrows(), T{});
    const auto& up = u.dense_presence();
    const auto& uv = u.dense_values();
    for (Index i = 0; i < A.nrows(); ++i) {
        T accum = S::identity();
        bool hit = false;
        for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
            const Index j = A.col_at(e);
            if (up[j] != 0) {
                accum = S::add(accum, S::mul(A.val_at(e), uv[j]));
                hit = true;
            }
        }
        if (hit) {
            present[i] = 1;
            vals[i] = accum;
        }
    }
}

template <typename S, typename T, typename Draw>
void
expect_pull_bit_identical(uint64_t seed, Draw draw)
{
    const Index n = 700;
    Matrix<T> A = varied_matrix<T>(n, seed, draw);
    for (const double density : {1.0, 0.5}) {
        Vector<T> u(n);
        Rng rng(seed + 1);
        for (Index j = 0; j < n; ++j) {
            if (density == 1.0 || rng.next_double() < density) {
                u.set_element(j, draw(rng));
            }
        }
        u.densify();
        ASSERT_EQ(u.nvals() == n, density == 1.0);
        std::vector<uint8_t> ref_present;
        std::vector<T> ref_vals;
        serial_pull<S>(A, u, ref_present, ref_vals);

        for (const StorageFormat format :
             {StorageFormat::kCsr, StorageFormat::kBitmapCsr,
              StorageFormat::kSell}) {
            A.set_storage_format(format);
            for (const Backend backend :
                 {Backend::kParallel, Backend::kReference}) {
                BackendScope scope(backend);
                for (const unsigned threads : {1u, 4u}) {
                    SCOPED_TRACE(std::string(storage_format_name(format)) +
                                 " density=" + std::to_string(density) +
                                 " threads=" + std::to_string(threads));
                    rt::set_num_threads(threads);
                    Vector<T> w;
                    mxv<S>(w, kDefaultDesc, A, u);
                    ASSERT_EQ(w.format(), VectorFormat::kDense);
                    const auto& present = w.dense_presence();
                    ASSERT_TRUE(std::equal(present.begin(), present.end(),
                                           ref_present.begin(),
                                           ref_present.end()));
                    // Absent slots are unspecified; compare only the
                    // produced entries, as raw bytes.
                    std::vector<T> got(n, T{});
                    for (Index i = 0; i < n; ++i) {
                        if (present[i] != 0) {
                            got[i] = w.dense_values()[i];
                        }
                    }
                    EXPECT_EQ(std::memcmp(got.data(), ref_vals.data(),
                                          n * sizeof(T)),
                              0);
                }
            }
        }
    }
    rt::set_num_threads(4);
}

TEST(GrbPullBitIdentity, PlusTimesDoubleMatchesSerialRowOrder)
{
    expect_pull_bit_identical<PlusTimes<double>, double>(
        71, [](Rng& rng) { return rng.next_double() * 3.0 - 1.0; });
}

TEST(GrbPullBitIdentity, PlusTimesUint32MatchesSerialRowOrder)
{
    expect_pull_bit_identical<PlusTimes<uint32_t>, uint32_t>(
        72, [](Rng& rng) {
            return static_cast<uint32_t>(rng.next_bounded(1u << 20));
        });
}

// PlusSecond has no SIMD hook, so a SELL matrix takes the scalar row
// scan, which must skip A's values and still match the serial order.
TEST(GrbPullBitIdentity, PlusSecondDoubleMatchesSerialRowOrder)
{
    expect_pull_bit_identical<PlusSecond<double>, double>(
        73, [](Rng& rng) { return rng.next_double() * 3.0 - 1.0; });
}

// mul(1.0, x) == x exactly, so over an all-ones A, PLUS_SECOND and
// PLUS_TIMES (the SELL slice sweep included) produce the same bytes:
// switching pagerank's semiring leaves unit-valued ranks unchanged.
TEST(GrbPullBitIdentity, PlusSecondMatchesPlusTimesOverAllOnes)
{
    const Index n = 700;
    Matrix<double> A =
        varied_matrix<double>(n, 74, [](Rng&) { return 1.0; });
    for (const double density : {1.0, 0.5}) {
        Vector<double> u(n);
        Rng rng(75);
        for (Index j = 0; j < n; ++j) {
            if (density == 1.0 || rng.next_double() < density) {
                u.set_element(j, rng.next_double() * 3.0 - 1.0);
            }
        }
        u.densify();
        for (const StorageFormat format :
             {StorageFormat::kCsr, StorageFormat::kBitmapCsr,
              StorageFormat::kSell}) {
            A.set_storage_format(format);
            for (const Backend backend :
                 {Backend::kParallel, Backend::kReference}) {
                BackendScope scope(backend);
                for (const unsigned threads : {1u, 4u}) {
                    SCOPED_TRACE(std::string(storage_format_name(format)) +
                                 " density=" + std::to_string(density) +
                                 " threads=" + std::to_string(threads));
                    rt::set_num_threads(threads);
                    Vector<double> times;
                    Vector<double> second;
                    mxv<PlusTimes<double>>(times, kDefaultDesc, A, u);
                    mxv<PlusSecond<double>>(second, kDefaultDesc, A, u);
                    const auto& tp = times.dense_presence();
                    const auto& sp = second.dense_presence();
                    ASSERT_TRUE(std::equal(tp.begin(), tp.end(), sp.begin(),
                                           sp.end()));
                    std::vector<double> a(n, 0.0);
                    std::vector<double> b(n, 0.0);
                    for (Index i = 0; i < n; ++i) {
                        if (times.dense_presence()[i] != 0) {
                            a[i] = times.dense_values()[i];
                            b[i] = second.dense_values()[i];
                        }
                    }
                    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                          n * sizeof(double)),
                              0);
                }
            }
        }
    }
    rt::set_num_threads(4);
}

// ---------------------------------------------------------------------
// vxm compacts its accumulator in one of two modes, picked from the
// flop count: a touched-column list for small frontiers and a dense
// in-order scan for large ones. Both must produce the oracle's entries
// for every call shape, and the dense mode's output must come out
// sorted on both backends.
// ---------------------------------------------------------------------

bool
indices_ascending(const Vector<uint64_t>& w)
{
    const auto& idx = w.sparse_indices();
    return std::is_sorted(idx.begin(), idx.end());
}

TEST(GrbVxmSpa, VxmSparseAndDenseSpaAgree)
{
    // Row 5 holds 20-59 entries: far below the dense-scan threshold.
    const Index n = 4096;
    const auto A = varied_matrix<uint64_t>(
        n, 501, [](Rng& rng) { return 1 + rng.next_bounded(9); });
    Vector<uint64_t> one_row(n);
    one_row.set_element(5, 5);
    const auto frontier = random_vector(n, 0.5, 502, true);

    // A complemented value mask with present-but-zero entries, so the
    // value test (not just presence) decides which columns survive.
    auto mask = random_vector(n, 0.4, 503, true);
    for (Index j = 0; j < n; j += 3) {
        mask.set_element(j, 0);
    }
    Descriptor complement;
    complement.mask_complement = true;

    rt::set_num_threads(4);
    for (const Backend backend : {Backend::kParallel, Backend::kReference}) {
        BackendScope scope(backend);
        for (const auto& [u, dense_mode] :
             {std::pair<const Vector<uint64_t>*, bool>{&one_row, false},
              std::pair<const Vector<uint64_t>*, bool>{&frontier, true}}) {
            SCOPED_TRACE(std::string(backend == Backend::kParallel
                                         ? "Parallel"
                                         : "Reference") +
                         (dense_mode ? " dense SPA" : " sparse SPA"));
            auto expect_sorted_if_dense = [&](const Vector<uint64_t>& w) {
                if (dense_mode) {
                    EXPECT_TRUE(w.sorted());
                    EXPECT_TRUE(indices_ascending(w));
                }
            };

            // PlusTimes, no mask.
            const Model plus = vxm_oracle<PlusTimes<uint64_t>>(*u, A);
            Vector<uint64_t> w;
            vxm<PlusTimes<uint64_t>>(
                w, static_cast<const Vector<uint64_t>*>(nullptr),
                kDefaultDesc, *u, A);
            EXPECT_EQ(to_model(w), plus);
            expect_sorted_if_dense(w);

            // LorLand under a complemented dense value mask.
            Model lor;
            for (const auto& [j, x] : vxm_oracle<LorLandU64>(*u, A)) {
                if (!mask.mask_true(j)) {
                    lor[j] = x;
                }
            }
            vxm<LorLandU64>(w, &mask, complement, *u, A);
            EXPECT_EQ(to_model(w), lor);
            expect_sorted_if_dense(w);

            // A sink that rewrites each value, run once per entry.
            std::atomic<uint64_t> sink_calls{0};
            const auto rewrite = [&](Index j, uint64_t& x) {
                x = x * 3 + j;
                sink_calls.fetch_add(1, std::memory_order_relaxed);
            };
            vxm<PlusTimes<uint64_t>>(
                w, static_cast<const Vector<uint64_t>*>(nullptr),
                kDefaultDesc, *u, A, rewrite);
            Model rewritten;
            for (const auto& [j, x] : plus) {
                rewritten[j] = x * 3 + j;
            }
            EXPECT_EQ(to_model(w), rewritten);
            EXPECT_EQ(sink_calls.load(), plus.size());
            expect_sorted_if_dense(w);

            // A recycled buffer: its stale entries must not leak into
            // the result, and it receives w's previous storage back.
            Vector<uint64_t> recycle = random_vector(n, 0.3, 504, false);
            const Model previous = to_model(w);
            vxm<PlusTimes<uint64_t>>(
                w, static_cast<const Vector<uint64_t>*>(nullptr),
                kDefaultDesc, *u, A, NoSink{}, &recycle);
            EXPECT_EQ(to_model(w), plus);
            EXPECT_EQ(to_model(recycle), previous);
            expect_sorted_if_dense(w);
        }
    }
}

/// LorLandU64 with OR's absorbing element, so masked dense-SPA vxm
/// pre-sets rejected accumulator slots to it.
struct AbsorbingLorLandU64 : LorLandU64
{
    static constexpr uint64_t absorbing() { return 1; }
};

TEST(GrbVxmSpa, MaskPremarkLeavesSpaClean)
{
    // Dense-SPA vxm folds its mask into the cached accumulator before
    // the scatter. After every masked run, an unmasked run of the same
    // semiring (the same SpaWorkspace) must match the oracle exactly:
    // a kMaskedOut flag or an absorbing value left behind would drop or
    // corrupt columns there.
    const Index n = 4096;
    const auto A = varied_matrix<uint64_t>(
        n, 511, [](Rng& rng) { return 1 + rng.next_bounded(9); });
    const auto u = random_vector(n, 0.5, 512, true);

    // Dense value mask with present-but-zero entries.
    auto value_mask = random_vector(n, 0.4, 513, true);
    for (Index j = 0; j < n; j += 3) {
        value_mask.set_element(j, 0);
    }
    // Sparse mask below 1/32 occupancy, so MaskView walks it sparse;
    // it too holds present-but-zero entries.
    auto sparse_mask = random_vector(n, 0.02, 514, false);
    for (Index j = 0; j < n; j += 97) {
        sparse_mask.set_element(j, 0);
    }
    ASSERT_EQ(sparse_mask.format(), VectorFormat::kSparse);
    ASSERT_LT(sparse_mask.nvals() * 32, static_cast<Nnz>(n));

    Descriptor complement;
    complement.mask_complement = true;
    Descriptor structural;
    structural.structural_mask = true;
    struct MaskCase
    {
        const char* name;
        const Vector<uint64_t>* mask;
        Descriptor desc;
    };
    const MaskCase cases[] = {
        {"complemented dense value mask", &value_mask, complement},
        {"sparse mask", &sparse_mask, kDefaultDesc},
        {"structural mask", &value_mask, structural},
    };
    auto keeps = [](const MaskCase& c, Index j) {
        const bool present_true = c.desc.structural_mask
            ? c.mask->get_element(j).has_value()
            : c.mask->mask_true(j);
        return c.desc.mask_complement ? !present_true : present_true;
    };
    auto run = [&](auto semiring) {
        using S = decltype(semiring);
        const Model full = vxm_oracle<S>(u, A);
        for (const MaskCase& c : cases) {
            SCOPED_TRACE(c.name);
            Model masked;
            for (const auto& [j, x] : full) {
                if (keeps(c, j)) {
                    masked[j] = x;
                }
            }
            ASSERT_FALSE(masked.empty());
            ASSERT_LT(masked.size(), full.size());
            Vector<uint64_t> w;
            vxm<S>(w, c.mask, c.desc, u, A);
            EXPECT_EQ(to_model(w), masked);
            vxm<S>(w, static_cast<const Vector<uint64_t>*>(nullptr),
                   kDefaultDesc, u, A);
            EXPECT_EQ(to_model(w), full);
        }
    };

    rt::set_num_threads(4);
    for (const Backend backend : {Backend::kParallel, Backend::kReference}) {
        BackendScope scope(backend);
        SCOPED_TRACE(backend == Backend::kParallel ? "Parallel"
                                                   : "Reference");
        {
            SCOPED_TRACE("LorLand (absorbing)");
            run(AbsorbingLorLandU64{});
        }
        {
            SCOPED_TRACE("PlusTimes");
            run(PlusTimes<uint64_t>{});
        }
    }
}

TEST(GrbVxmSpa, SaturatedSlotsKeepExplicitEntries)
{
    // For an absorbing semiring the scatter skips an edge whose slot
    // already holds absorbing(), and only the edge that stored it
    // claims the slot. A column whose every product is false must
    // still be claimed (it is an explicit entry with value 0), and a
    // column reached by both false and true products must come out
    // once, as 1. The real LorLand over uint8_t, with explicit zeros
    // in both A and u, reaches both kinds of column.
    const Index n = 4096;
    const auto A = varied_matrix<uint8_t>(n, 521, [](Rng& rng) {
        return static_cast<uint8_t>(rng.next_bounded(3) != 0);
    });
    Vector<uint8_t> frontier(n);
    Rng rng(522);
    for (Index i = 0; i < n; ++i) {
        if (rng.next_double() < 0.5) {
            frontier.set_element(i,
                                 static_cast<uint8_t>(rng.next_bounded(3) != 0));
        }
    }
    frontier.densify();
    // Long rows, alternately true and false, up to just below the
    // dense-scan threshold (n / 8 flops), so their columns overlap.
    Vector<uint8_t> few_rows(n);
    Nnz flops = 0;
    for (Index i = 5; flops + A.row_nvals(i) < n / 8; i += 5) {
        few_rows.set_element(i, static_cast<uint8_t>(i % 10 != 0));
        flops += A.row_nvals(i);
    }

    // Complemented value mask with present-but-zero entries.
    Vector<uint8_t> mask(n);
    for (Index j = 0; j < n; ++j) {
        if (rng.next_double() < 0.4) {
            mask.set_element(j, static_cast<uint8_t>(j % 3 != 0));
        }
    }
    mask.densify();
    Descriptor complement;
    complement.mask_complement = true;

    for (const auto& [u, dense_mode] :
         {std::pair<const Vector<uint8_t>*, bool>{&frontier, true},
          std::pair<const Vector<uint8_t>*, bool>{&few_rows, false}}) {
        const Model full = vxm_oracle<LorLand>(*u, A);
        // Columns reached by a false product: every one is in the
        // output, some as 0 and some (also reached by a true one) as 1.
        std::set<Index> false_hit;
        u->for_entries([&](Index i, uint8_t x) {
            for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                if (LorLand::mul(x, A.val_at(e)) == 0) {
                    false_hit.insert(A.col_at(e));
                }
            }
        });
        std::size_t only_false = 0;
        std::size_t both = 0;
        for (const Index j : false_hit) {
            (full.at(j) == 0 ? only_false : both) += 1;
        }
        ASSERT_GT(only_false, 0u);
        ASSERT_GT(both, 0u);
        Model masked;
        for (const auto& [j, x] : full) {
            if (!mask.mask_true(j)) {
                masked[j] = x;
            }
        }
        ASSERT_LT(masked.size(), full.size());

        for (const int threads : {1, 4}) {
            rt::set_num_threads(threads);
            for (const Backend backend :
                 {Backend::kParallel, Backend::kReference}) {
                BackendScope scope(backend);
                SCOPED_TRACE(std::string(backend == Backend::kParallel
                                             ? "Parallel"
                                             : "Reference") +
                             (dense_mode ? " dense SPA" : " sparse SPA") +
                             " t" + std::to_string(threads));
                Vector<uint8_t> w;
                vxm<LorLand>(w, static_cast<const Vector<uint8_t>*>(nullptr),
                             kDefaultDesc, *u, A);
                EXPECT_EQ(to_model(w), full);
                vxm<LorLand>(w, &mask, complement, *u, A);
                EXPECT_EQ(to_model(w), masked);
                // The SPA must be clean after the masked run.
                vxm<LorLand>(w, static_cast<const Vector<uint8_t>*>(nullptr),
                             kDefaultDesc, *u, A);
                EXPECT_EQ(to_model(w), full);
            }
        }
    }
    rt::set_num_threads(4);
}

} // namespace
} // namespace gas::grb
