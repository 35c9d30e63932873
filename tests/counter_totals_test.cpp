/**
 * @file
 * Pinned counter totals for the hot kernels.
 *
 * The kernels tally their software counters in loop-local integers and
 * fold them in once per block or row, so the totals must be exact and
 * independent of how the loop is split across threads. This test pins
 * kLabelReads / kLabelWrites / kEdgeVisits / kWorkItems /
 * kEdgesShortCircuited / kMaskSkippedRows after each kernel on one
 * fixed small graph, under every row storage format and at 1 and 4
 * threads. The values were recorded from kernels that bumped once per
 * edge, so a passing run shows the block tallies are exact; any later
 * change to what a kernel counts shows up here as a diff.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "lonestar/lonestar.h"
#include "matrix/grb.h"
#include "metrics/counters.h"
#include "runtime/thread_pool.h"
#include "support/random.h"

namespace gas {
namespace {

using grb::Index;
using grb::StorageFormat;
using grb::Vector;

/// The counters the test pins, in column order.
constexpr std::array<metrics::CounterId, 6> kPinned = {
    metrics::kLabelReads,       metrics::kLabelWrites,
    metrics::kEdgeVisits,       metrics::kWorkItems,
    metrics::kEdgesShortCircuited, metrics::kMaskSkippedRows,
};

using Totals = std::array<uint64_t, kPinned.size()>;

struct Pinned
{
    const char* format;
    const char* op;
    Totals totals;
};

// reads, writes, edge_visits, work_items, short_circuited, mask_skipped
const std::vector<Pinned> kExpected = {
    {"csr", "vxm", {43, 374, 374, 374, 0, 0}},
    {"csr", "vxm_masked", {110, 594, 594, 594, 0, 0}},
    {"csr", "vxm_sparse_spa", {1, 30, 30, 30, 0, 0}},
    {"csr", "vxm_masked_plus", {114, 633, 633, 633, 0, 0}},
    {"csr", "mxv_full", {3160, 371, 3160, 3160, 0, 0}},
    {"csr", "mxv_partial", {812, 220, 3160, 3160, 0, 0}},
    {"csr", "mxv_sparse_u", {126, 126, 810, 810, 1360, 198}},
    {"csr", "mxv_sparse", {103, 103, 643, 643, 1049, 254}},
    {"csr", "ewise_mult", {174, 87, 0, 512, 0, 0}},
    {"csr", "ewise_add", {0, 43, 0, 43, 0, 0}},
    {"csr", "ewise_add_dense", {0, 313, 0, 313, 0, 0}},
    {"csr", "ewise_mult_sparse", {43, 24, 0, 43, 0, 0}},
    {"csr", "lazy_ewise_select", {43, 19, 0, 43, 0, 0}},
    {"csr", "apply", {154, 154, 0, 154, 0, 0}},
    {"csr", "assign_masked", {0, 389, 0, 512, 0, 0}},
    {"bitmap", "vxm", {43, 374, 374, 374, 0, 0}},
    {"bitmap", "vxm_masked", {110, 594, 594, 594, 0, 0}},
    {"bitmap", "vxm_sparse_spa", {1, 30, 30, 30, 0, 0}},
    {"bitmap", "vxm_masked_plus", {114, 633, 633, 633, 0, 0}},
    {"bitmap", "mxv_full", {3160, 371, 3160, 3160, 0, 0}},
    {"bitmap", "mxv_partial", {812, 220, 3160, 3160, 0, 0}},
    {"bitmap", "mxv_sparse_u", {126, 126, 810, 810, 1360, 136}},
    {"bitmap", "mxv_sparse", {103, 103, 643, 643, 1049, 254}},
    {"bitmap", "ewise_mult", {174, 87, 0, 512, 0, 0}},
    {"bitmap", "ewise_add", {0, 43, 0, 43, 0, 0}},
    {"bitmap", "ewise_add_dense", {0, 313, 0, 313, 0, 0}},
    {"bitmap", "ewise_mult_sparse", {43, 24, 0, 43, 0, 0}},
    {"bitmap", "lazy_ewise_select", {43, 19, 0, 43, 0, 0}},
    {"bitmap", "apply", {154, 154, 0, 154, 0, 0}},
    {"bitmap", "assign_masked", {0, 389, 0, 512, 0, 0}},
    {"sell", "vxm", {43, 374, 374, 374, 0, 0}},
    {"sell", "vxm_masked", {110, 594, 594, 594, 0, 0}},
    {"sell", "vxm_sparse_spa", {1, 30, 30, 30, 0, 0}},
    {"sell", "vxm_masked_plus", {114, 633, 633, 633, 0, 0}},
    {"sell", "mxv_full", {3160, 371, 3160, 3160, 0, 0}},
    {"sell", "mxv_partial", {812, 220, 3160, 3160, 0, 0}},
    {"sell", "mxv_sparse_u", {126, 126, 810, 810, 1360, 198}},
    {"sell", "mxv_sparse", {103, 103, 643, 643, 1049, 254}},
    {"sell", "ewise_mult", {174, 87, 0, 512, 0, 0}},
    {"sell", "ewise_add", {0, 43, 0, 43, 0, 0}},
    {"sell", "ewise_add_dense", {0, 313, 0, 313, 0, 0}},
    {"sell", "ewise_mult_sparse", {43, 24, 0, 43, 0, 0}},
    {"sell", "lazy_ewise_select", {43, 19, 0, 43, 0, 0}},
    {"sell", "apply", {154, 154, 0, 154, 0, 0}},
    {"sell", "assign_masked", {0, 389, 0, 512, 0, 0}},
    {"graph", "ls_bfs", {3072, 881, 3072, 370, 0, 0}},
    {"graph", "ls_pagerank", {15800, 5632, 15800, 5120, 0, 0}},
};

/// The fixed input: a small power-law digraph with empty rows, so the
/// bitmap row skips and SELL padding both engage.
struct Fixture
{
    graph::Graph graph;
    graph::Graph transpose;
    graph::Node source;

    static const Fixture&
    get()
    {
        static const Fixture fixture = [] {
            graph::EdgeList list = graph::rmat(9, 8, 2024);
            graph::remove_self_loops(list);
            Fixture f;
            f.graph = graph::Graph::from_edge_list(std::move(list), true);
            f.graph.sort_adjacencies();
            f.transpose = graph::transpose(f.graph);
            f.source = graph::highest_degree_node(f.graph);
            return f;
        }();
        return fixture;
    }
};

template <typename T>
Vector<T>
sample_vector(Index size, double density, uint64_t seed, bool dense)
{
    Vector<T> v(size);
    Rng rng(seed);
    for (Index i = 0; i < size; ++i) {
        if (rng.next_double() < density) {
            v.set_element(i, static_cast<T>(1 + rng.next_bounded(7)));
        }
    }
    if (dense) {
        v.densify();
    }
    return v;
}

Totals
measure(const std::function<void()>& op)
{
    const metrics::Interval interval;
    op();
    const metrics::Snapshot delta = interval.delta();
    Totals totals{};
    for (std::size_t k = 0; k < kPinned.size(); ++k) {
        totals[k] = delta[kPinned[k]];
    }
    return totals;
}

std::string
render(const char* format, const std::string& op, const Totals& t)
{
    std::string out = std::string("    {\"") + format + "\", \"" + op +
        "\", {";
    for (std::size_t k = 0; k < t.size(); ++k) {
        out += (k == 0 ? "" : ", ") + std::to_string(t[k]);
    }
    return out + "}},";
}

/// Every pinned run for one storage format, as (op name, totals).
std::vector<std::pair<std::string, Totals>>
run_all(StorageFormat format)
{
    const Fixture& fx = Fixture::get();
    const Index n = fx.graph.num_nodes();

    auto A = grb::Matrix<uint64_t>::from_graph(fx.graph, false);
    auto Ad = grb::Matrix<double>::from_graph(fx.transpose, false);
    auto Ab = grb::Matrix<uint8_t>::from_graph(fx.transpose, false);
    A.set_storage_format(format);
    Ad.set_storage_format(format);
    Ab.set_storage_format(format);

    const auto u_sparse = sample_vector<uint64_t>(n, 0.1, 11, false);
    const auto u_full = [&] {
        Vector<double> v(n);
        v.fill(0.5);
        return v;
    }();
    const auto u_partial = sample_vector<uint64_t>(n, 0.3, 12, true);
    const auto b_sparse = sample_vector<uint8_t>(n, 0.2, 13, false);
    const auto visited = sample_vector<uint8_t>(n, 0.4, 14, true);
    const auto sparse_mask = sample_vector<uint8_t>(n, 0.5, 15, false);
    const auto v_partial = sample_vector<uint64_t>(n, 0.6, 16, true);
    const auto d_sparse = sample_vector<double>(n, 0.2, 17, false);
    const auto paths = sample_vector<double>(n, 0.4, 18, true);

    std::vector<std::pair<std::string, Totals>> runs;
    Vector<uint64_t> w;
    Vector<double> wd;
    Vector<uint8_t> wb;
    runs.emplace_back("vxm", measure([&] {
        grb::vxm<grb::PlusTimes<uint64_t>>(w, grb::kDefaultDesc,
                                           u_sparse, A);
    }));
    // The la::bfs round shape: a dense complemented value mask, marked
    // into the dense accumulator before the scatter.
    runs.emplace_back("vxm_masked", measure([&] {
        grb::vxm<grb::LorLand>(wb, &visited, grb::kComplementReplaceDesc,
                               b_sparse, Ab);
    }));
    // The same round with a one-entry frontier, few enough flops that
    // vxm compacts through its touched-column list, not the dense scan.
    const auto b_one = [&] {
        Vector<uint8_t> v(n);
        for (const Index i : b_sparse.sparse_indices()) {
            if (Ab.row_nvals(i) != 0 && Ab.row_nvals(i) * 8 < n) {
                v.set_element(i, 1);
                break;
            }
        }
        return v;
    }();
    runs.emplace_back("vxm_sparse_spa", measure([&] {
        grb::vxm<grb::LorLand>(wb, &visited, grb::kComplementReplaceDesc,
                               b_one, Ab);
    }));
    // The la::bc forward-round shape: PLUS_TIMES over doubles under a
    // complemented value mask (the path counts), in dense-SPA mode.
    runs.emplace_back("vxm_masked_plus", measure([&] {
        grb::vxm<grb::PlusTimes<double>>(wd, &paths,
                                         grb::kComplementReplaceDesc,
                                         d_sparse, Ad);
    }));
    runs.emplace_back("mxv_full", measure([&] {
        grb::mxv<grb::PlusTimes<double>>(wd, grb::kDefaultDesc, Ad,
                                         u_full);
    }));
    runs.emplace_back("mxv_partial", measure([&] {
        grb::mxv<grb::PlusTimes<uint64_t>>(w, grb::kDefaultDesc, A,
                                           u_partial);
    }));
    runs.emplace_back("mxv_sparse_u", measure([&] {
        grb::mxv<grb::LorLand>(wb, &visited, grb::kComplementReplaceDesc,
                               Ab, b_sparse);
    }));
    runs.emplace_back("mxv_sparse", measure([&] {
        grb::mxv_sparse<grb::LorLand>(wb, sparse_mask,
                                      grb::kComplementReplaceDesc, Ab,
                                      b_sparse);
    }));
    runs.emplace_back("ewise_mult", measure([&] {
        grb::ewise_mult(w, u_partial, v_partial,
                        [](uint64_t a, uint64_t b) { return a * b; });
    }));
    runs.emplace_back("ewise_add", measure([&] {
        grb::ewise_add(w, u_partial, u_sparse,
                       [](uint64_t a, uint64_t b) { return a + b; });
    }));
    // The dense-dense branch that la::pagerank, cc and bc run.
    runs.emplace_back("ewise_add_dense", measure([&] {
        grb::ewise_add(w, u_partial, v_partial,
                       [](uint64_t a, uint64_t b) { return a + b; });
    }));
    // The sparse walk: iterate the sparse side, probe the dense one.
    runs.emplace_back("ewise_mult_sparse", measure([&] {
        grb::ewise_mult(w, u_sparse, v_partial,
                        [](uint64_t a, uint64_t b) { return a * b; });
    }));
    // The la::sssp_delta_lazy relaxation filter: eWiseMult -> select
    // recorded in non-blocking mode, so the planner fuses the pair.
    runs.emplace_back("lazy_ewise_select", measure([&] {
        grb::ExecModeScope mode(grb::ExecMode::kNonBlocking);
        grb::LazyVector<uint64_t> product(n);
        grb::LazyVector<uint64_t> kept(n);
        grb::lazy::ewise_mult(product, u_sparse, v_partial,
                              [](uint64_t a, uint64_t b) { return a * b; });
        grb::lazy::select_entries(kept, product, [](Index, uint64_t x) {
            return x % 2 == 0;
        });
        (void)kept.nvals();
    }));
    runs.emplace_back("apply", measure([&] {
        grb::apply(w, u_partial, [](uint64_t x) { return x + 1; });
    }));
    runs.emplace_back("assign_masked", measure([&] {
        Vector<uint64_t> target = v_partial;
        grb::assign_scalar<uint64_t, uint8_t>(target, &visited,
                                              grb::kReplaceDesc, 3);
    }));
    return runs;
}

std::vector<std::pair<std::string, Totals>>
run_lonestar()
{
    const Fixture& fx = Fixture::get();
    std::vector<std::pair<std::string, Totals>> runs;
    runs.emplace_back("ls_bfs", measure([&] {
        (void)ls::bfs(fx.graph, fx.source);
    }));
    runs.emplace_back("ls_pagerank", measure([&] {
        (void)ls::pagerank(fx.graph, fx.transpose, 0.85, 5);
    }));
    return runs;
}

const Totals*
expected_for(const char* format, const std::string& op)
{
    for (const Pinned& p : kExpected) {
        if (format == std::string(p.format) && op == p.op) {
            return &p.totals;
        }
    }
    return nullptr;
}

void
check_runs(const char* format,
           const std::vector<std::pair<std::string, Totals>>& runs)
{
    for (const auto& [op, totals] : runs) {
        SCOPED_TRACE(op);
        const Totals* expected = expected_for(format, op);
        if (expected == nullptr) {
            ADD_FAILURE() << "no pinned totals; measured:\n"
                          << render(format, op, totals);
            continue;
        }
        for (std::size_t k = 0; k < kPinned.size(); ++k) {
            EXPECT_EQ(totals[k], (*expected)[k])
                << metrics::counter_name(kPinned[k]) << "; measured:\n"
                << render(format, op, totals);
        }
    }
}

class CounterTotalsTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    void SetUp() override { rt::set_num_threads(GetParam()); }
};

TEST_P(CounterTotalsTest, MatrixKernelsMatchPinnedTotals)
{
    for (const auto& [format, name] :
         {std::pair{StorageFormat::kCsr, "csr"},
          std::pair{StorageFormat::kBitmapCsr, "bitmap"},
          std::pair{StorageFormat::kSell, "sell"}}) {
        SCOPED_TRACE(name);
        check_runs(name, run_all(format));
    }
}

TEST_P(CounterTotalsTest, LonestarOperatorsMatchPinnedTotals)
{
    check_runs("graph", run_lonestar());
}

INSTANTIATE_TEST_SUITE_P(Threads, CounterTotalsTest,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                             return "t" + std::to_string(info.param);
                         });

} // namespace
} // namespace gas
