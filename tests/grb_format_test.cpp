/**
 * @file
 * Tests for the storage-format auto-tuner and the SIMD pull kernels:
 * bit-identical results across csr / bitmap / sell row storages for
 * every kernel x descriptor x backend combination, tuner decisions on
 * synthetic degree distributions, the GAS_FORMAT override, the
 * structure invariants of RowBitmap and SellSlices, and the
 * bitmap-skip / lane-utilization counters.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <map>
#include <numeric>

#include "matrix/grb.h"
#include "runtime/thread_pool.h"
#include "support/env.h"
#include "support/random.h"

namespace gas::grb {
namespace {

/// Scoped environment override, restoring the previous state on
/// destruction so no test leaks configuration into the rest of the
/// process (the CI format matrix runs this binary with GAS_FORMAT set).
class EnvGuard
{
  public:
    EnvGuard(const char* name, const char* value) : name_(name)
    {
        if (auto old = env::get(name)) {
            old_ = *old;
            had_old_ = true;
        }
        setenv(name, value, 1);
    }
    ~EnvGuard()
    {
        if (had_old_) {
            setenv(name_, old_.c_str(), 1);
        } else {
            unsetenv(name_);
        }
    }

  private:
    const char* name_;
    std::string old_;
    bool had_old_{false};
};

template <typename T>
std::map<Index, T>
to_model(const Vector<T>& v)
{
    std::map<Index, T> model;
    v.for_entries([&](Index i, T x) { model[i] = x; });
    return model;
}

template <typename T>
Matrix<T>
random_matrix(Index nrows, Index ncols, double density, uint64_t seed)
{
    std::vector<std::tuple<Index, Index, T>> tuples;
    Rng rng(seed);
    for (Index i = 0; i < nrows; ++i) {
        for (Index j = 0; j < ncols; ++j) {
            if (rng.next_double() < density) {
                tuples.emplace_back(i, j,
                                    static_cast<T>(1 + rng.next_bounded(9)));
            }
        }
    }
    return Matrix<T>::from_tuples(nrows, ncols, std::move(tuples));
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

/// Sparse mask mixing non-zero and explicit-zero entries so value and
/// structural mask semantics differ.
Vector<uint8_t>
mixed_mask(Index size, double density, uint64_t seed)
{
    Vector<uint8_t> v(size);
    Rng rng(seed);
    for (Index i = 0; i < size; ++i) {
        if (rng.next_double() < density) {
            v.set_element(i, static_cast<uint8_t>(rng.next_bounded(2)));
        }
    }
    return v;
}

/// Row-pointer array for a synthetic degree sequence.
std::vector<uint64_t>
row_ptr_of(const std::vector<uint64_t>& degrees)
{
    std::vector<uint64_t> row_ptr(degrees.size() + 1, 0);
    std::partial_sum(degrees.begin(), degrees.end(), row_ptr.begin() + 1);
    return row_ptr;
}

constexpr StorageFormat kAllFormats[] = {StorageFormat::kCsr,
                                         StorageFormat::kBitmapCsr,
                                         StorageFormat::kSell};

constexpr Descriptor kAllDescs[] = {
    kDefaultDesc,
    Descriptor{true, false, false},
    kReplaceDesc,
    kComplementReplaceDesc,
    kStructuralDesc,
    Descriptor{true, false, true},
    kStructuralComplementReplaceDesc,
};

struct FormatCase
{
    Backend backend;
    uint64_t seed;
};

class GrbFormatTest : public ::testing::TestWithParam<FormatCase>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        set_backend(GetParam().backend);
    }

    void TearDown() override { set_backend(Backend::kParallel); }
};

// ---------------------------------------------------------------------
// Cross-format kernel equivalence.
// ---------------------------------------------------------------------

/// Run every kernel under each forced format and demand the CSR
/// reference's exact output, across all descriptor combos, dense and
/// sparse operands, with and without masks.
template <typename S, typename T>
void
expect_formats_equal(const Matrix<T>& proto, uint64_t seed)
{
    const Index n = proto.nrows();
    const Vector<T> u_full =
        random_vector<T>(proto.ncols(), 1.0, seed ^ 1, true);
    const Vector<T> u_part =
        random_vector<T>(proto.ncols(), 0.6, seed ^ 2, true);
    const Vector<T> u_sparse =
        random_vector<T>(proto.nrows(), 0.3, seed ^ 3, false);
    Vector<uint8_t> dense_mask = mixed_mask(n, 0.5, seed ^ 4);
    dense_mask.densify();
    const Vector<uint8_t> sparse_mask = mixed_mask(n, 0.3, seed ^ 5);

    for (const Descriptor& desc : kAllDescs) {
        // CSR reference outputs.
        Matrix<T> ref = proto;
        ref.set_storage_format(StorageFormat::kCsr);
        Vector<T> mxv_full_ref, mxv_part_ref, mxv_masked_ref,
            mxv_sparse_ref, vxm_ref;
        mxv<S>(mxv_full_ref, desc, ref, u_full);
        mxv<S>(mxv_part_ref, desc, ref, u_part);
        mxv<S>(mxv_masked_ref, &dense_mask, desc, ref, u_full);
        mxv_sparse<S>(mxv_sparse_ref, sparse_mask, desc, ref, u_full);
        vxm<S>(vxm_ref, &dense_mask, desc, u_sparse, ref);

        for (const StorageFormat format : kAllFormats) {
            SCOPED_TRACE(storage_format_name(format));
            Matrix<T> m = proto;
            m.set_storage_format(format);
            EXPECT_EQ(m.storage_format(), format);
            EXPECT_TRUE(m.format_tuning().forced);

            Vector<T> w;
            mxv<S>(w, desc, m, u_full);
            EXPECT_EQ(to_model(w), to_model(mxv_full_ref));
            mxv<S>(w, desc, m, u_part);
            EXPECT_EQ(to_model(w), to_model(mxv_part_ref));
            mxv<S>(w, &dense_mask, desc, m, u_full);
            EXPECT_EQ(to_model(w), to_model(mxv_masked_ref));
            mxv_sparse<S>(w, sparse_mask, desc, m, u_full);
            EXPECT_EQ(to_model(w), to_model(mxv_sparse_ref));
            vxm<S>(w, &dense_mask, desc, u_sparse, m);
            EXPECT_EQ(to_model(w), to_model(vxm_ref));
        }
    }
}

TEST_P(GrbFormatTest, KernelsAgreeAcrossFormatsU64)
{
    const uint64_t seed = GetParam().seed;
    // uint64_t has no SIMD hooks: this isolates the pure format paths
    // (bitmap row list, candidate filtering, SELL scalar fallback).
    const auto A = random_matrix<uint64_t>(61, 61, 0.07, seed);
    expect_formats_equal<PlusTimes<uint64_t>, uint64_t>(A, seed);
    expect_formats_equal<MinSecond<uint64_t>, uint64_t>(A, seed ^ 77);
}

TEST_P(GrbFormatTest, KernelsAgreeAcrossFormatsU32Simd)
{
    const uint64_t seed = GetParam().seed;
    // uint32_t PlusTimes / MinSecond have AVX2 hooks: the sell format
    // with a fully present u runs the vector sweep, long rows run the
    // within-row accumulation. Wraparound arithmetic is identical in
    // scalar and vector form, so outputs must still match exactly.
    const auto A = random_matrix<uint32_t>(70, 70, 0.3, seed);
    expect_formats_equal<PlusTimes<uint32_t>, uint32_t>(A, seed);
    expect_formats_equal<MinSecond<uint32_t>, uint32_t>(A, seed ^ 99);
}

TEST_P(GrbFormatTest, FlippedSemiringsAgreeAcrossFormats)
{
    const uint64_t seed = GetParam().seed;
    // The dispatcher's pull path wraps semirings in FlipMul; the SIMD
    // sweep must swap the multiply arguments the same way the scalar
    // loop does.
    const auto A = random_matrix<uint32_t>(48, 48, 0.25, seed);
    expect_formats_equal<FlipMul<MinSecond<uint32_t>>, uint32_t>(A, seed);
    expect_formats_equal<FlipMul<PlusTimes<uint32_t>>, uint32_t>(A,
                                                                 seed ^ 5);
}

TEST_P(GrbFormatTest, DoubleSellSweepIsBitIdentical)
{
    // The SELL sweep accumulates each row sequentially in its own lane
    // with separate mul and add (no FMA), so even floating-point
    // results must be bit-for-bit the scalar kernel's.
    const uint64_t seed = GetParam().seed;
    const auto proto = random_matrix<double>(100, 100, 0.15, seed);
    const Vector<double> u =
        random_vector<double>(100, 1.0, seed ^ 11, true);

    Matrix<double> csr = proto;
    csr.set_storage_format(StorageFormat::kCsr);
    Matrix<double> sell = proto;
    sell.set_storage_format(StorageFormat::kSell);

    Vector<double> w_csr, w_sell;
    mxv<PlusTimes<double>>(w_csr, kDefaultDesc, csr, u);
    mxv<PlusTimes<double>>(w_sell, kDefaultDesc, sell, u);

    const auto ref = to_model(w_csr);
    const auto got = to_model(w_sell);
    ASSERT_EQ(ref.size(), got.size());
    for (const auto& [i, x] : ref) {
        ASSERT_TRUE(got.contains(i));
        EXPECT_EQ(std::bit_cast<uint64_t>(x),
                  std::bit_cast<uint64_t>(got.at(i)))
            << "row " << i;
    }
}

TEST_P(GrbFormatTest, DispatcherAgreesAcrossFormats)
{
    const uint64_t seed = GetParam().seed;
    const auto proto = random_matrix<uint32_t>(64, 64, 0.12, seed);
    const auto proto_t = proto.transpose();
    const Vector<uint32_t> u =
        random_vector<uint32_t>(64, 0.2, seed ^ 21, false);
    Vector<uint32_t> dense_mask;
    {
        auto m = random_vector<uint32_t>(64, 0.5, seed ^ 22, true);
        dense_mask = std::move(m);
    }

    std::map<Index, uint32_t> ref;
    bool have_ref = false;
    for (const StorageFormat format : kAllFormats) {
        SCOPED_TRACE(storage_format_name(format));
        Matrix<uint32_t> A = proto;
        Matrix<uint32_t> At = proto_t;
        A.set_storage_format(format);
        At.set_storage_format(format);
        SpmvDispatcher<uint32_t> dispatcher(A, At);
        Vector<uint32_t> w;
        dispatcher.dispatch_spmv<PlusTimes<uint32_t>>(
            w, &dense_mask, kDefaultDesc, u);
        if (!have_ref) {
            ref = to_model(w);
            have_ref = true;
        } else {
            EXPECT_EQ(to_model(w), ref);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, GrbFormatTest,
    ::testing::Values(FormatCase{Backend::kReference, 0xF0},
                      FormatCase{Backend::kParallel, 0xF0},
                      FormatCase{Backend::kReference, 0xF1},
                      FormatCase{Backend::kParallel, 0xF1}));

// ---------------------------------------------------------------------
// GAS_SIMD switch: scalar and vector paths agree, counters attribute.
// ---------------------------------------------------------------------

TEST(GrbSimdTest, ScalarAndSimdPathsAgree)
{
    rt::set_num_threads(2);
    const auto proto = random_matrix<uint32_t>(90, 90, 0.2, 0xABC);
    const Vector<uint32_t> u =
        random_vector<uint32_t>(90, 1.0, 0xDEF, true);
    Matrix<uint32_t> sell = proto;
    sell.set_storage_format(StorageFormat::kSell);

    Vector<uint32_t> w_scalar;
    {
        EnvGuard off("GAS_SIMD", "0");
        EXPECT_FALSE(simd::simd_enabled());
        mxv<PlusTimes<uint32_t>>(w_scalar, kDefaultDesc, sell, u);
    }
    Vector<uint32_t> w_simd;
    metrics::Interval interval;
    {
        // Explicitly on, so a suite run under GAS_SIMD=0 still takes
        // the vector path here.
        EnvGuard on("GAS_SIMD", "1");
        mxv<PlusTimes<uint32_t>>(w_simd, kDefaultDesc, sell, u);
    }
    EXPECT_EQ(to_model(w_scalar), to_model(w_simd));

    if (simd::cpu_has_avx2()) {
        // The vector path ran: lane slots were issued and utilization
        // can never exceed 1.
        const auto delta = interval.delta();
        EXPECT_GT(delta[metrics::kSimdLaneSlots], 0u);
        EXPECT_LE(delta[metrics::kSimdLanesActive],
                  delta[metrics::kSimdLaneSlots]);
        EXPECT_GT(delta[metrics::kSimdLanesActive], 0u);
    }
}

// ---------------------------------------------------------------------
// Bitmap skip behavior and counters.
// ---------------------------------------------------------------------

TEST(GrbBitmapTest, EmptyRowsSkippedAndCounted)
{
    rt::set_num_threads(2);
    // Rows 0..9 hold entries, rows 10..99 are empty.
    std::vector<std::tuple<Index, Index, uint64_t>> tuples;
    for (Index i = 0; i < 10; ++i) {
        for (Index j = 0; j < 5; ++j) {
            tuples.emplace_back(i, (i * 7 + j * 13) % 100, uint64_t{1});
        }
    }
    auto A =
        Matrix<uint64_t>::from_tuples(100, 100, std::move(tuples));
    A.set_storage_format(StorageFormat::kBitmapCsr);
    const Vector<uint64_t> u =
        random_vector<uint64_t>(100, 1.0, 0x10, true);

    metrics::Interval interval;
    Vector<uint64_t> w;
    mxv<PlusTimes<uint64_t>>(w, kDefaultDesc, A, u);
    EXPECT_EQ(interval.delta()[metrics::kRowsSkippedBitmap], 90u);

    Matrix<uint64_t> csr = A;
    csr.set_storage_format(StorageFormat::kCsr);
    Vector<uint64_t> w_ref;
    mxv<PlusTimes<uint64_t>>(w_ref, kDefaultDesc, csr, u);
    EXPECT_EQ(to_model(w), to_model(w_ref));

    // Push side: a dense frontier probing all 100 rows skips the 90
    // empty ones without touching their row pointers.
    metrics::Interval push_interval;
    vxm<PlusTimes<uint64_t>>(w, kDefaultDesc, u, A);
    EXPECT_EQ(push_interval.delta()[metrics::kRowsSkippedBitmap], 90u);
}

TEST(GrbBitmapTest, RowBitmapStructure)
{
    std::vector<uint64_t> degrees(130, 0);
    degrees[0] = 3;
    degrees[64] = 1;
    degrees[65] = 2;
    degrees[129] = 7;
    const auto row_ptr = row_ptr_of(degrees);
    const RowBitmap bitmap({row_ptr.data(), row_ptr.size()});

    EXPECT_EQ(bitmap.num_rows(), 130u);
    EXPECT_EQ(bitmap.num_nonempty(), 4u);
    EXPECT_TRUE(bitmap.nonempty(0));
    EXPECT_FALSE(bitmap.nonempty(1));
    EXPECT_TRUE(bitmap.nonempty(64));
    EXPECT_TRUE(bitmap.nonempty(65));
    EXPECT_TRUE(bitmap.nonempty(129));
    EXPECT_EQ(bitmap.rank(0), 0u);
    EXPECT_EQ(bitmap.rank(64), 1u);
    EXPECT_EQ(bitmap.rank(65), 2u);
    EXPECT_EQ(bitmap.rank(129), 3u);
    const auto rows = bitmap.nonempty_rows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0], 0u);
    EXPECT_EQ(rows[1], 64u);
    EXPECT_EQ(rows[2], 65u);
    EXPECT_EQ(rows[3], 129u);
}

// ---------------------------------------------------------------------
// SELL slice layout invariants.
// ---------------------------------------------------------------------

TEST(GrbSellTest, SliceLayoutRoundTrips)
{
    const auto A = random_matrix<uint32_t>(45, 45, 0.2, 0x5E11);
    const auto& sell = A.sell_slices();

    EXPECT_EQ(sell.num_rows(), 45u);
    EXPECT_EQ(sell.num_slices(), (45u + kSellLanes - 1) / kSellLanes);

    // perm is a permutation of all rows (phantom tail excluded).
    std::vector<bool> seen(45, false);
    for (Index slot = 0; slot < 45; ++slot) {
        const Index row = sell.perm()[slot];
        ASSERT_LT(row, 45u);
        EXPECT_FALSE(seen[row]);
        seen[row] = true;
    }

    // Rows sort by descending length within each sigma window, and
    // every row's entries round-trip through the column-major layout
    // in CSR order.
    for (Index s = 0; s < sell.num_slices(); ++s) {
        for (unsigned lane = 0; lane < kSellLanes; ++lane) {
            const std::size_t slot =
                static_cast<std::size_t>(s) * kSellLanes + lane;
            if (slot >= 45) {
                EXPECT_EQ(sell.len_of(s, lane), 0u);
                continue;
            }
            const Index row = sell.row_of(s, lane);
            const Index len = sell.len_of(s, lane);
            ASSERT_EQ(len, static_cast<Index>(A.row_nvals(row)));
            EXPECT_LE(len, sell.slice_width(s));
            if (lane > 0 && slot - 1 < 45) {
                EXPECT_GE(sell.len_of(s, lane - 1), len);
            }
            for (Index t = 0; t < len; ++t) {
                const uint64_t idx =
                    sell.slice_begin(s) + uint64_t{t} * kSellLanes + lane;
                EXPECT_EQ(sell.cols()[idx],
                          A.col_at(A.row_begin(row) + t));
                EXPECT_EQ(sell.vals()[idx],
                          A.val_at(A.row_begin(row) + t));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tuner decisions on synthetic degree distributions.
// ---------------------------------------------------------------------

TEST(GrbTunerTest, UniformDegreesPickSell)
{
    // A road-grid-like profile: constant degree, zero variance, zero
    // padding.
    const std::vector<uint64_t> degrees(256, 8);
    const auto row_ptr = row_ptr_of(degrees);
    const auto stats =
        graph::compute_degree_stats({row_ptr.data(), row_ptr.size()});
    EXPECT_DOUBLE_EQ(stats.degree_cv, 0.0);
    EXPECT_DOUBLE_EQ(stats.sell_padding_overhead, 0.0);
    EXPECT_EQ(choose_format(stats), StorageFormat::kSell);
}

TEST(GrbTunerTest, MostlyEmptyRowsPickBitmap)
{
    // An RMAT-like profile: 99% isolated rows.
    std::vector<uint64_t> degrees(1000, 0);
    for (Index i = 0; i < 10; ++i) {
        degrees[i * 97] = 50;
    }
    const auto row_ptr = row_ptr_of(degrees);
    const auto stats =
        graph::compute_degree_stats({row_ptr.data(), row_ptr.size()});
    EXPECT_GE(stats.empty_row_fraction, 0.95);
    EXPECT_EQ(choose_format(stats), StorageFormat::kBitmapCsr);
}

TEST(GrbTunerTest, ModerateSkewKeepsCsr)
{
    // Uniform-random degrees in [1, 32]: cv ~ 0.56 — too varied for
    // sell's padding bound, no empty rows and not skewed enough for
    // the bitmap.
    Rng rng(0xC5);
    std::vector<uint64_t> degrees(512);
    for (auto& d : degrees) {
        d = 1 + rng.next_bounded(32);
    }
    const auto row_ptr = row_ptr_of(degrees);
    const auto stats =
        graph::compute_degree_stats({row_ptr.data(), row_ptr.size()});
    EXPECT_EQ(stats.empty_rows, 0u);
    EXPECT_GT(stats.degree_cv, 0.5);
    EXPECT_LT(stats.degree_cv, 2.0);
    EXPECT_EQ(choose_format(stats), StorageFormat::kCsr);
}

TEST(GrbTunerTest, EnvOverrideForcesFormatAndCounts)
{
    metrics::Interval interval;
    {
        EnvGuard forced("GAS_FORMAT", "sell");
        // A mostly-empty matrix the tuner would give the bitmap.
        std::vector<std::tuple<Index, Index, uint32_t>> tuples;
        tuples.emplace_back(0, 1, 1u);
        const auto A =
            Matrix<uint32_t>::from_tuples(200, 200, std::move(tuples));
        EXPECT_EQ(A.storage_format(), StorageFormat::kSell);
        EXPECT_TRUE(A.format_tuning().forced);
    }
    EXPECT_GE(interval.delta()[metrics::kFormatSellSelected], 1u);

    // Unrecognized values fall back to the tuner's own decision.
    {
        EnvGuard junk("GAS_FORMAT", "wat");
        EXPECT_EQ(storage_format_from_env(), std::nullopt);
        std::vector<std::tuple<Index, Index, uint32_t>> tuples;
        tuples.emplace_back(0, 1, 1u);
        const auto A =
            Matrix<uint32_t>::from_tuples(200, 200, std::move(tuples));
        EXPECT_EQ(A.storage_format(), StorageFormat::kBitmapCsr);
        EXPECT_FALSE(A.format_tuning().forced);
    }
}

TEST(GrbTunerTest, TuningSurvivesCopyAndInvalidatesOnMutation)
{
    const auto A = random_matrix<uint32_t>(32, 32, 0.5, 0xC0);
    Matrix<uint32_t> forced = A;
    forced.set_storage_format(StorageFormat::kBitmapCsr);

    // Copies carry the decision but rebuild structures lazily.
    Matrix<uint32_t> copy = forced;
    EXPECT_EQ(copy.storage_format(), StorageFormat::kBitmapCsr);

    // Mutable raw access drops the decision; the next query re-tunes
    // (honoring a process-wide GAS_FORMAT if the environment sets one,
    // as in the CI format matrix).
    copy.raw_vals();
    if (const auto env = storage_format_from_env()) {
        EXPECT_EQ(copy.storage_format(), *env);
        EXPECT_TRUE(copy.format_tuning().forced);
    } else {
        EXPECT_FALSE(copy.format_tuning().forced);
    }
}

} // namespace
} // namespace gas::grb
