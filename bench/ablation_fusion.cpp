/**
 * @file
 * Ablation: how much of the graph API's bfs advantage does loop fusion
 * alone recover, when the lazy non-blocking planner builds the fusion
 * from unfused source?
 *
 * The paper's Section VI proposes restructuring-compiler loop fusion
 * as the fix for the matrix API's lightweight-loop penalty. Variants:
 *
 *   gb        Algorithm 2 (vxm + nvals + assign per round)
 *   gb-lazy   Algorithm 2 source run in non-blocking mode; the fusion
 *             planner runs each round's assign inside the SpMV
 *             kernel's per-entry sink, direction-optimized
 *   ls        Algorithm 1 (the graph API's fused loop)
 *
 * Besides runtime the table reports bytes materialized per run (the
 * intermediate-traffic saving is fusion's whole point) and, for
 * gb-lazy, the planner's fused-chain count. A JSON record per cell
 * goes to results/BENCH_ablation_fusion.json so CI can smoke-check
 * that the lazy planner actually fuses (fused_chains > 0) and saves
 * bytes versus the unfused baseline.
 *
 * Expected shape: gb-lazy lands between gb and ls — fusion removes
 * the extra passes but not the worklist/scheduling advantages.
 */

#include "bench_common.h"

#include "lagraph/lagraph.h"
#include "lonestar/lonestar.h"
#include "metrics/counters.h"

namespace {

/// Bytes materialized by one run of fn() (single instrumented run,
/// separate from the timed reps so accounting is per-run exact).
template <typename Fn>
gas::metrics::Snapshot
counted_run(Fn&& fn)
{
    const gas::metrics::Interval interval;
    fn();
    return interval.delta();
}

std::string
mib_str(uint64_t bytes)
{
    return gas::fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 1) +
        " MiB";
}

} // namespace

int
main()
{
    using namespace gas;
    const auto config = bench::configure("ablation_fusion");

    core::Table table(
        "Loop-fusion ablation (bfs): speedup over gb, bytes "
        "materialized per run, lazy fused-chain count");
    table.set_header({"graph", "gb", "gb-lazy", "ls", "gb bytes",
                      "lazy bytes", "lazy chains"});

    std::vector<bench::JsonRecord> records;

    for (const auto& name : core::suite_graph_names()) {
        const auto input = core::build_suite_graph(name, config.scale);
        const auto A =
            grb::Matrix<uint8_t>::from_graph(input.directed, false);
        const auto At = A.transpose();

        grb::BackendScope scope(grb::Backend::kParallel);
        const double gb = bench::timed_seconds(
            config.reps, [&] { la::bfs(A, input.source); });
        const double lazy = bench::timed_seconds(config.reps, [&] {
            la::bfs_lazy(A, At, input.source);
        });
        const double ls_time = bench::timed_seconds(
            config.reps, [&] { ls::bfs(input.directed, input.source); });

        // Byte accounting forces push so the comparison against the
        // push-only gb baseline is apples-to-apples: auto direction may
        // buy pull rounds whose dense-frontier densification costs
        // bytes that have nothing to do with fusion (they buy runtime
        // instead, which the timed reps above are free to exploit).
        const auto gb_counters =
            counted_run([&] { la::bfs(A, input.source); });
        const auto lazy_counters = counted_run([&] {
            la::bfs_lazy(A, At, input.source, grb::Direction::kPush);
        });

        const uint64_t gb_bytes =
            gb_counters[metrics::kBytesMaterialized];
        const uint64_t lazy_bytes =
            lazy_counters[metrics::kBytesMaterialized];
        const uint64_t lazy_chains =
            lazy_counters[metrics::kFusedChains];

        table.add_row({name, "1.00x", bench::speedup_str(gb, lazy),
                       bench::speedup_str(gb, ls_time), mib_str(gb_bytes),
                       mib_str(lazy_bytes), std::to_string(lazy_chains)});

        const auto record = [&](const char* api, double seconds,
                                const metrics::Snapshot& counters) {
            bench::JsonRecord r;
            r.app = "bfs";
            r.graph = name;
            r.api = api;
            r.threads = config.threads;
            r.median_ms = seconds * 1e3;
            r.extra.emplace_back(
                "bytes_materialized",
                std::to_string(counters[metrics::kBytesMaterialized]));
            r.extra.emplace_back(
                "fused_chains",
                std::to_string(counters[metrics::kFusedChains]));
            r.extra.emplace_back(
                "lazy_fallbacks",
                std::to_string(counters[metrics::kLazyFallbacks]));
            records.push_back(std::move(r));
        };
        record("gb", gb, gb_counters);
        record("gb-lazy", lazy, lazy_counters);
    }

    table.print();
    bench::maybe_write_csv(table, config, "ablation_fusion");
    bench::write_json_records(records,
                              "results/BENCH_ablation_fusion.json");
    return 0;
}
