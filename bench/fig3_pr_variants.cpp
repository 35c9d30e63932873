/**
 * @file
 * Reproduces Figure 3(a): pagerank variant speedups.
 *
 * Variants, as in the paper: ls (residual, array-of-structs node data),
 * ls-soa (structure-of-arrays), gb-res (residual formulation in the
 * matrix API), and gb (topology-driven LAGraph pr; the Table II
 * baseline, speedup 1.0 by definition). Expected shape:
 * ls >= ls-soa >= gb-res >= gb.
 */

#include "bench_common.h"

#include "graph/builder.h"
#include "lagraph/lagraph.h"
#include "lonestar/lonestar.h"

int
main()
{
    using namespace gas;
    const auto config = bench::configure("fig3_pr_variants");
    constexpr double kDamping = 0.85;
    constexpr unsigned kIters = 10;

    core::Table table(
        "Figure 3(a): pr variant speedup over the gb baseline");
    table.set_header({"graph", "gb", "gb-res", "ls-soa", "ls"});

    for (const auto& name : core::suite_graph_names()) {
        const auto input = core::build_suite_graph(name, config.scale);
        const auto A =
            grb::Matrix<double>::from_graph(input.directed, false);
        const auto At = A.transpose();
        const auto transpose = graph::transpose(input.directed);

        // Every cell is the median of config.reps runs.
        const auto timed = [&](auto&& fn) {
            return bench::timed_seconds_median(config.reps, fn);
        };
        const double gb = timed([&] {
            grb::BackendScope scope(grb::Backend::kParallel);
            la::pagerank(A, At, kDamping, kIters);
        });
        const double gb_res = timed([&] {
            grb::BackendScope scope(grb::Backend::kParallel);
            la::pagerank_residual(A, At, kDamping, kIters);
        });
        const double ls_soa = timed([&] {
            ls::pagerank_soa(input.directed, transpose, kDamping, kIters);
        });
        const double ls_aos = timed([&] {
            ls::pagerank(input.directed, transpose, kDamping, kIters);
        });

        table.add_row({name, "1.00x", bench::speedup_str(gb, gb_res),
                       bench::speedup_str(gb, ls_soa),
                       bench::speedup_str(gb, ls_aos)});
    }

    table.print();
    bench::maybe_write_csv(table, config, "fig3a_pr");
    return 0;
}
