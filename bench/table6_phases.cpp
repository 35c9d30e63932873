/**
 * @file
 * Table VI (this reproduction's extension): per-phase time and traffic
 * breakdown per workload x backend, computed from the gas::trace span
 * stream rather than flat counter totals.
 *
 * The paper's Tables IV/V show *that* the matrix API moves more memory
 * than the graph API; this table shows *where*. For each (app, system)
 * cell it runs one traced repetition and aggregates the spans into
 *
 *   - wall ms          the cell span's duration
 *   - grb compute ms   time inside SpMV/SpGEMM-shaped GraphBLAS ops
 *                      (vxm / mxv / mxv_sparse / mxm*) — "-" for LS
 *   - grb mat ms       time inside the remaining GraphBLAS ops (eWise*,
 *                      apply, assign, select, reduce, gather/scatter):
 *                      the materialization work the fused graph API
 *                      never performs — "-" for LS
 *   - busy ms          sum over worker spans of duration minus stall
 *                      (summed across threads, so > wall when scaling)
 *   - idle ms          scheduler idle: sum of stall episodes across
 *                      threads (empty OBIM scans, for_each backoff)
 *   - bytes mat, work items
 *                      sums of per-span self deltas — by the tracer's
 *                      attribution invariant these equal the global
 *                      counter totals for the repetition
 *   - rounds           number of round spans (BSP rounds, OBIM phases)
 *
 * A second table rolls the same spans up by phase name (GraphBLAS op or
 * round), attributing each worker span's self counters to the
 * innermost enclosing phase by timestamp containment — the per-phase
 * compute/materialization split the ISSUE's acceptance criteria ask
 * for. Every run also writes results/BENCH_table6.json.
 *
 * Tracing is force-enabled for each cell regardless of GAS_TRACE; when
 * GAS_TRACE is also set, the exported file holds the last cell's trace
 * (rings are reset between cells to keep attribution per-cell).
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "bench_common.h"

#include "lagraph/lagraph.h"

namespace {

using gas::trace::Category;
using gas::trace::SpanRecord;

bool
is_compute_op(const char* name)
{
    static constexpr const char* kComputeOps[] = {
        "vxm",        "mxv",      "mxv_sparse", "ewise_mult_select",
        "mxm_masked_dot", "mxm_saxpy", "mxm_dot",
    };
    for (const char* op : kComputeOps) {
        if (std::strcmp(name, op) == 0) {
            return true;
        }
    }
    return false;
}

uint64_t
dur_ns(const SpanRecord& s)
{
    return s.end_ns - s.begin_ns;
}

std::string
ms_str(uint64_t ns)
{
    return gas::fixed(static_cast<double>(ns) * 1e-6, 2);
}

/// Whole-cell aggregates.
struct CellPhases
{
    uint64_t wall_ns{0};
    uint64_t grb_compute_ns{0};
    uint64_t grb_mat_ns{0};
    uint64_t busy_ns{0};
    uint64_t idle_ns{0};
    uint64_t bytes{0};
    uint64_t items{0};
    uint64_t rounds{0};
    uint64_t dropped{0};
};

/// Per-phase-name aggregates for the rollup table.
struct PhaseAgg
{
    uint64_t count{0};
    uint64_t total_ns{0};
    uint64_t bytes{0};
    uint64_t items{0};
};

CellPhases
aggregate(const gas::trace::TraceData& data,
          std::map<std::string, PhaseAgg>& rollup)
{
    using namespace gas;
    CellPhases out;
    out.dropped = data.dropped;

    // Phase spans: GraphBLAS ops and rounds, on the driving thread.
    // Sorted by ascending duration so the first containing phase found
    // for a span is the innermost one.
    std::vector<const SpanRecord*> phases;
    for (const SpanRecord& s : data.spans) {
        out.idle_ns += s.stall_ns;
        out.bytes += s.self[metrics::kBytesMaterialized];
        out.items += s.self[metrics::kWorkItems];
        switch (s.category) {
          case Category::kCell:
            out.wall_ns = std::max(out.wall_ns, dur_ns(s));
            break;
          case Category::kGrb:
            (is_compute_op(s.name) ? out.grb_compute_ns
                                   : out.grb_mat_ns) += dur_ns(s);
            phases.push_back(&s);
            break;
          case Category::kRound:
            ++out.rounds;
            phases.push_back(&s);
            break;
          case Category::kWorker:
            out.busy_ns += dur_ns(s) - std::min(dur_ns(s), s.stall_ns);
            break;
          default:
            break;
        }
    }
    std::sort(phases.begin(), phases.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                  return dur_ns(*a) < dur_ns(*b);
              });

    // Rollup: each phase contributes its own duration and self deltas
    // under its name; every non-phase span's self deltas are attributed
    // to the innermost phase whose interval contains it (worker spans
    // run strictly inside the phase that spawned their region).
    auto innermost_phase = [&](const SpanRecord& s) -> const SpanRecord* {
        for (const SpanRecord* p : phases) {
            if (p != &s && p->begin_ns <= s.begin_ns &&
                s.end_ns <= p->end_ns) {
                return p;
            }
        }
        return nullptr;
    };
    for (const SpanRecord* p : phases) {
        PhaseAgg& agg = rollup[p->name];
        ++agg.count;
        agg.total_ns += dur_ns(*p);
        agg.bytes += p->self[metrics::kBytesMaterialized];
        agg.items += p->self[metrics::kWorkItems];
    }
    for (const SpanRecord& s : data.spans) {
        if (s.category == Category::kGrb ||
            s.category == Category::kRound) {
            continue;
        }
        if (const SpanRecord* p = innermost_phase(s)) {
            PhaseAgg& agg = rollup[p->name];
            agg.bytes += s.self[metrics::kBytesMaterialized];
            agg.items += s.self[metrics::kWorkItems];
        }
    }
    return out;
}

} // namespace

int
main()
{
    using namespace gas;
    const auto config = bench::configure("table6_phases");
    auto run = bench::run_config(config, /*verify=*/false);
    run.repetitions = 1;

    // The workloads whose phase structure the paper's narrative leans
    // on: frontier-driven (bfs), dense-iterative (pr), priority-driven
    // (sssp) — each on its Section V-B representative graph.
    const std::pair<core::App, std::string> cells[] = {
        {core::App::kBfs, "road-USA"},
        {core::App::kPr, "uk07"},
        {core::App::kSssp, "road-USA"},
    };
    const core::System systems[] = {core::System::kGaloisBlas,
                                    core::System::kLonestar};

    core::Table table(
        "Table VI: per-phase breakdown from gas::trace spans "
        "(busy/idle are summed across worker threads; bytes and items "
        "are span self-delta sums, equal to the global counter totals)");
    table.set_header({"app", "sys", "graph", "wall ms", "grb compute ms",
                      "grb mat ms", "busy ms", "idle ms", "bytes mat",
                      "work items", "rounds", "dropped"});

    core::Table rollup_table(
        "Table VI (detail): rollup by phase name — inclusive time plus "
        "self counters attributed by timestamp containment");
    rollup_table.set_header({"app", "sys", "phase", "count", "total ms",
                             "bytes mat", "work items"});

    std::vector<bench::JsonRecord> records;

    for (const auto& [app, graph_name] : cells) {
        const auto input =
            core::build_suite_graph(graph_name, config.scale);
        for (const core::System system : systems) {
            trace::set_enabled(true);
            trace::reset();
            const auto result =
                core::run_cell(app, system, input, run);
            const auto data = trace::snapshot();
            trace::set_enabled(false);

            std::map<std::string, PhaseAgg> rollup;
            const CellPhases ph = aggregate(data, rollup);
            const bool matrix = system != core::System::kLonestar;
            table.add_row(
                {core::app_name(app), core::system_name(system),
                 graph_name, ms_str(ph.wall_ns),
                 matrix ? ms_str(ph.grb_compute_ns) : "-",
                 matrix ? ms_str(ph.grb_mat_ns) : "-",
                 ms_str(ph.busy_ns), ms_str(ph.idle_ns),
                 std::to_string(ph.bytes), std::to_string(ph.items),
                 std::to_string(ph.rounds),
                 std::to_string(ph.dropped)});

            for (const auto& [name, agg] : rollup) {
                rollup_table.add_row(
                    {core::app_name(app), core::system_name(system),
                     name, std::to_string(agg.count),
                     ms_str(agg.total_ns), std::to_string(agg.bytes),
                     std::to_string(agg.items)});
            }

            bench::JsonRecord record{core::app_name(app), graph_name,
                                     core::system_name(system),
                                     config.threads,
                                     result.median_seconds * 1e3, {}};
            record.extra = {
                {"grb_compute_ms",
                 matrix ? ms_str(ph.grb_compute_ns) : "0"},
                {"grb_mat_ms", matrix ? ms_str(ph.grb_mat_ns) : "0"},
                {"busy_ms", ms_str(ph.busy_ns)},
                {"idle_ms", ms_str(ph.idle_ns)},
                {"bytes_materialized", std::to_string(ph.bytes)},
                {"work_items", std::to_string(ph.items)},
                {"rounds", std::to_string(ph.rounds)},
                {"spans_dropped", std::to_string(ph.dropped)},
            };
            records.push_back(std::move(record));
        }

        // gb-lazy cells (bfs and pr): the same workloads rewired
        // through the non-blocking expression layer, reported with
        // api "gb-lazy" so the perf trajectory can diff lazy vs eager
        // bytes and runtime (the ISSUE's >= 30% bytes-reduction
        // acceptance check reads these records). For pr the eager
        // residual formulation is also emitted (api "gb-res") since
        // that — not the topology-driven gb cell — is the lazy
        // variant's like-for-like runtime baseline.
        const auto extra_cell = [&](const char* api, auto&& fn) {
            grb::BackendScope scope(grb::Backend::kParallel);
            trace::set_enabled(true);
            trace::reset();
            Timer timer;
            timer.start();
            fn();
            timer.stop();
            const auto data = trace::snapshot();
            trace::set_enabled(false);

            std::map<std::string, PhaseAgg> rollup;
            const CellPhases ph = aggregate(data, rollup);
            table.add_row(
                {core::app_name(app), api, graph_name,
                 ms_str(ph.wall_ns > 0
                            ? ph.wall_ns
                            : static_cast<uint64_t>(timer.seconds() *
                                                    1e9)),
                 ms_str(ph.grb_compute_ns), ms_str(ph.grb_mat_ns),
                 ms_str(ph.busy_ns), ms_str(ph.idle_ns),
                 std::to_string(ph.bytes), std::to_string(ph.items),
                 std::to_string(ph.rounds),
                 std::to_string(ph.dropped)});
            for (const auto& [name, agg] : rollup) {
                rollup_table.add_row(
                    {core::app_name(app), api, name,
                     std::to_string(agg.count), ms_str(agg.total_ns),
                     std::to_string(agg.bytes),
                     std::to_string(agg.items)});
            }

            bench::JsonRecord record{core::app_name(app), graph_name,
                                     api, config.threads,
                                     timer.seconds() * 1e3, {}};
            record.extra = {
                {"grb_compute_ms", ms_str(ph.grb_compute_ns)},
                {"grb_mat_ms", ms_str(ph.grb_mat_ns)},
                {"busy_ms", ms_str(ph.busy_ns)},
                {"idle_ms", ms_str(ph.idle_ns)},
                {"bytes_materialized", std::to_string(ph.bytes)},
                {"work_items", std::to_string(ph.items)},
                {"rounds", std::to_string(ph.rounds)},
                {"spans_dropped", std::to_string(ph.dropped)},
            };
            records.push_back(std::move(record));
        };
        if (app == core::App::kBfs) {
            const auto A =
                grb::Matrix<uint8_t>::from_graph(input.directed, false);
            const auto At = A.transpose();
            extra_cell("gb-lazy",
                       [&] { la::bfs_lazy(A, At, input.source); });
        } else if (app == core::App::kPr) {
            const auto A =
                grb::Matrix<double>::from_graph(input.directed, false);
            const auto At = A.transpose();
            extra_cell("gb-res", [&] {
                la::pagerank_residual(A, At, 0.85, 10);
            });
            extra_cell("gb-lazy", [&] {
                la::pagerank_residual_lazy(A, At, 0.85, 10);
            });
        }
    }

    table.print();
    std::printf("\n");
    rollup_table.print();
    bench::maybe_write_csv(table, config, "table6");
    bench::write_json_records(records, "results/BENCH_table6.json");
    return 0;
}
