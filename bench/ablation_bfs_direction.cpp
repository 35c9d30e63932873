/**
 * @file
 * Ablation: direction optimization in both APIs (extension beyond the
 * paper's figures; the paper's related work credits GraphBLAST with
 * direction optimization, and Lonestar ships a dir-opt bfs).
 *
 * Matrix-API variants (all routed through grb::SpmvDispatcher):
 *   gb       push-only Algorithm 2 (the baseline, speedups relative
 *            to it)
 *   gb-pp    bfs_pushpull: the fixed 5% frontier threshold forces
 *            each round's direction
 *   gb-fpush bfs_auto with the dispatcher forced to push every round
 *   gb-fpull bfs_auto with the dispatcher forced to pull every round
 *   gb-auto  bfs_auto with the cost model deciding per round
 * All four run one round body (la_bfs.cpp) that masks with the dense
 * dist vector as a complemented value mask; they differ only in how
 * each round's direction is picked.
 * Graph-API variants:
 *   ls       push-only Algorithm 1
 *   ls-do    Beamer-style push/pull with early-exit pull
 *
 * For gb-auto the table also reports the dispatcher's decisions
 * (push/pull rounds) and what the masked pull kernels saved (rows
 * skipped via the complemented dist mask, edges short-circuited by the
 * first-hit early exit), measured over one run.
 *
 * Expected shape: direction optimization helps most on low-diameter
 * power-law graphs where the frontier quickly covers most vertices.
 * Since the early-exit upgrade the matrix API's pull rounds stop each
 * row at the first visited parent too, so gb-auto should track ls-do's
 * shape rather than trail it.
 *
 * Set GAS_GRAPHS to a comma-separated list of suite graph names to
 * restrict the run (e.g. GAS_GRAPHS=rmat22 for the acceptance check).
 */

#include "bench_common.h"

#include "graph/builder.h"
#include "lagraph/lagraph.h"
#include "lonestar/lonestar.h"
#include "metrics/counters.h"
#include "support/env.h"

namespace {

/// Suite graph names admitted by the optional GAS_GRAPHS filter.
std::vector<std::string>
selected_graphs()
{
    const auto all = gas::core::suite_graph_names();
    const char* filter = gas::env::raw("GAS_GRAPHS");
    if (filter == nullptr) {
        return {all.begin(), all.end()};
    }
    std::vector<std::string> picked;
    std::string token;
    for (const char* p = filter;; ++p) {
        if (*p == ',' || *p == '\0') {
            for (const auto& name : all) {
                if (name == token) {
                    picked.push_back(name);
                }
            }
            token.clear();
            if (*p == '\0') {
                break;
            }
        } else {
            token.push_back(*p);
        }
    }
    return picked;
}

} // namespace

int
main()
{
    using namespace gas;
    const auto config = bench::configure("ablation_bfs_direction");

    core::Table table(
        "BFS direction-optimization ablation: speedup over gb "
        "(trailing columns: gb-auto dispatch decisions and pull-kernel "
        "savings)");
    table.set_header({"graph", "gb", "gb-pp", "gb-fpush", "gb-fpull",
                      "gb-auto", "ls", "ls-do", "auto push/pull",
                      "auto rows skip", "auto edges sc"});
    std::vector<bench::JsonRecord> records;

    for (const auto& name : selected_graphs()) {
        const auto input = core::build_suite_graph(name, config.scale);
        const auto A =
            grb::Matrix<uint8_t>::from_graph(input.directed, false);
        const auto At = A.transpose();
        const auto transpose = graph::transpose(input.directed);

        grb::BackendScope scope(grb::Backend::kParallel);
        // Every cell is the median of config.reps runs.
        const auto timed = [&](auto&& fn) {
            return bench::timed_seconds_median(config.reps, fn);
        };
        const double gb = timed([&] { la::bfs(A, input.source); });
        const double gb_pp =
            timed([&] { la::bfs_pushpull(A, At, input.source); });
        const double gb_fpush = timed([&] {
            la::bfs_auto(A, At, input.source, grb::Direction::kPush);
        });
        const double gb_fpull = timed([&] {
            la::bfs_auto(A, At, input.source, grb::Direction::kPull);
        });
        const metrics::Interval auto_interval;
        const double gb_auto =
            timed([&] { la::bfs_auto(A, At, input.source); });
        const auto auto_counters = auto_interval.delta();
        const double ls_push =
            timed([&] { ls::bfs(input.directed, input.source); });
        const double ls_do = timed([&] {
            ls::bfs_dirop(input.directed, transpose, input.source);
        });

        table.add_row(
            {name, "1.00x", bench::speedup_str(gb, gb_pp),
             bench::speedup_str(gb, gb_fpush),
             bench::speedup_str(gb, gb_fpull),
             bench::speedup_str(gb, gb_auto),
             bench::speedup_str(gb, ls_push),
             bench::speedup_str(gb, ls_do),
             std::to_string(auto_counters[metrics::kSpmvPushRounds] /
                            config.reps) +
                 "/" +
                 std::to_string(auto_counters[metrics::kSpmvPullRounds] /
                                config.reps),
             std::to_string(auto_counters[metrics::kMaskSkippedRows] /
                            config.reps),
             std::to_string(
                 auto_counters[metrics::kEdgesShortCircuited] /
                 config.reps)});

        const std::pair<const char*, double> variants[] = {
            {"gb", gb},           {"gb-pp", gb_pp},
            {"gb-fpush", gb_fpush}, {"gb-fpull", gb_fpull},
            {"gb-auto", gb_auto}, {"ls", ls_push},
            {"ls-do", ls_do}};
        for (const auto& [api, seconds] : variants) {
            bench::JsonRecord record;
            record.app = "bfs";
            record.graph = name;
            record.api = api;
            record.threads = config.threads;
            record.median_ms = seconds * 1e3;
            if (std::string(api) == "gb-auto") {
                record.extra = {
                    {"push_rounds",
                     std::to_string(
                         auto_counters[metrics::kSpmvPushRounds] /
                         config.reps)},
                    {"pull_rounds",
                     std::to_string(
                         auto_counters[metrics::kSpmvPullRounds] /
                         config.reps)},
                };
            }
            records.push_back(std::move(record));
        }
    }

    table.print();
    bench::maybe_write_csv(table, config, "ablation_bfs_direction");
    bench::write_json_records(records,
                              "results/BENCH_ablation_bfs_direction.json");
    return 0;
}
