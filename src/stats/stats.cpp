#include "stats/stats.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "support/cancel.h"
#include "support/env.h"
#include "support/thread_annotations.h"
#include "support/timer.h"
#include "trace/perf_counters.h"
#include "trace/trace.h"

namespace gas::stats {

namespace detail {

std::atomic<bool> g_enabled{false};

} // namespace detail

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/**
 * Owner of every Histogram, Gauge, and per-thread shard. Intentionally
 * leaked (same reason as the metrics and trace registries: worker TLS
 * destructors can outlive main-thread static destruction), which is
 * also what lets recording threads cache raw HistogramShard pointers
 * in TLS without any retire protocol — the shards never die.
 */
struct StatsRegistry
{
    gas::Mutex lock;
    std::vector<std::unique_ptr<Histogram>> histograms GAS_GUARDED_BY(lock);
    /// shards[h] = every thread's shard of histogram h, created lazily
    /// on each thread's first record into h.
    std::vector<std::vector<std::unique_ptr<HistogramShard>>> shards
        GAS_GUARDED_BY(lock);
    std::vector<std::unique_ptr<Gauge>> gauges GAS_GUARDED_BY(lock);

    static StatsRegistry&
    instance()
    {
        static StatsRegistry* registry = new StatsRegistry;
        return *registry;
    }

    Histogram&
    intern_histogram(const char* name)
    {
        gas::LockGuard guard(lock);
        for (const auto& h : histograms) {
            if (std::strcmp(h->name(), name) == 0) {
                return *h;
            }
        }
        const unsigned id = static_cast<unsigned>(histograms.size());
        histograms.emplace_back(
            std::unique_ptr<Histogram>(new Histogram(name, id)));
        shards.emplace_back();
        return *histograms.back();
    }

    Gauge&
    intern_gauge(const char* name)
    {
        gas::LockGuard guard(lock);
        for (const auto& g : gauges) {
            if (std::strcmp(g->name(), name) == 0) {
                return *g;
            }
        }
        gauges.emplace_back(std::unique_ptr<Gauge>(new Gauge(name)));
        return *gauges.back();
    }

    HistogramShard&
    acquire_shard(unsigned histogram_id)
    {
        gas::LockGuard guard(lock);
        shards[histogram_id].push_back(std::make_unique<HistogramShard>());
        return *shards[histogram_id].back();
    }
};

Histogram&
histogram(const char* name)
{
    return StatsRegistry::instance().intern_histogram(name);
}

Gauge&
gauge(const char* name)
{
    return StatsRegistry::instance().intern_gauge(name);
}

namespace detail {

void
record_slow(unsigned histogram_id, uint64_t value)
{
    // Raw pointers only: shards are owned (and leaked) by the
    // registry, so a thread exiting never needs to retire its cache.
    thread_local std::vector<HistogramShard*> t_shards;
    if (histogram_id >= t_shards.size()) {
        t_shards.resize(histogram_id + 1, nullptr);
    }
    HistogramShard* shard = t_shards[histogram_id];
    if (shard == nullptr) {
        shard = &StatsRegistry::instance().acquire_shard(histogram_id);
        t_shards[histogram_id] = shard;
    }
    shard->record(value);
}

} // namespace detail

HistogramSnapshot
Histogram::snapshot() const
{
    StatsRegistry& registry = StatsRegistry::instance();
    gas::LockGuard guard(registry.lock);
    HistogramSnapshot out;
    for (const auto& shard : registry.shards[id_]) {
        out.add_shard(*shard);
    }
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
snapshot_all()
{
    StatsRegistry& registry = StatsRegistry::instance();
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    gas::LockGuard guard(registry.lock);
    for (const auto& h : registry.histograms) {
        HistogramSnapshot snap;
        for (const auto& shard : registry.shards[h->id()]) {
            snap.add_shard(*shard);
        }
        out.emplace_back(h->name(), snap);
    }
    return out;
}

std::vector<std::pair<std::string, uint64_t>>
gauges_snapshot()
{
    StatsRegistry& registry = StatsRegistry::instance();
    std::vector<std::pair<std::string, uint64_t>> out;
    gas::LockGuard guard(registry.lock);
    for (const auto& g : registry.gauges) {
        out.emplace_back(g->name(), g->value());
    }
    return out;
}

// ---------------------------------------------------------------------------
// Span -> histogram bridge
// ---------------------------------------------------------------------------

namespace {

/// Bridge targets, resolved once at enable time. Atomics with release
/// publication: worker threads observe the enable flag relaxed, so the
/// pointer loads pair acquire to see fully-registered objects.
struct BridgeTargets
{
    std::atomic<Histogram*> cell{nullptr};
    std::atomic<Histogram*> algo{nullptr};
    std::atomic<Histogram*> round{nullptr};
    std::atomic<Histogram*> spmv_push{nullptr};
    std::atomic<Histogram*> spmv_pull{nullptr};
    std::atomic<Histogram*> grb_op{nullptr};
    std::atomic<Histogram*> runtime_region{nullptr};
    std::atomic<Histogram*> runtime_worker{nullptr};
    std::atomic<Histogram*> steal_wait{nullptr};
    std::atomic<Histogram*> obim_wait{nullptr};
    std::atomic<Gauge*> hw[trace::kNumHwCounters]{};
};

BridgeTargets g_bridge;

/// Classify a kGrb span name into push / pull / other. The push set is
/// the vxm family (frontier-driven, CSR row gather per source); the
/// pull set is the mxv family (destination-driven over the transpose).
/// Everything else lands in the catch-all grb_op series.
Histogram*
classify_grb(const char* name)
{
    static constexpr const char* kPushNames[] = {"vxm"};
    static constexpr const char* kPullNames[] = {"mxv", "mxv_sparse"};
    for (const char* push : kPushNames) {
        if (std::strcmp(name, push) == 0) {
            return g_bridge.spmv_push.load(std::memory_order_acquire);
        }
    }
    for (const char* pull : kPullNames) {
        if (std::strcmp(name, pull) == 0) {
            return g_bridge.spmv_pull.load(std::memory_order_acquire);
        }
    }
    return g_bridge.grb_op.load(std::memory_order_acquire);
}

/// Per-thread cache of kGrb name -> histogram. Keyed by the name
/// *pointer*: span names are static string literals, so pointer
/// equality is name equality for repeat call sites, and a linear scan
/// over the handful of distinct kernels beats hashing.
Histogram*
grb_histogram(const char* name)
{
    struct Entry
    {
        const char* key;
        Histogram* hist;
    };
    thread_local std::vector<Entry> t_cache;
    for (const Entry& e : t_cache) {
        if (e.key == name) {
            return e.hist;
        }
    }
    Histogram* hist = classify_grb(name);
    t_cache.push_back({name, hist});
    return hist;
}

} // namespace

namespace detail {

void
bridge_span(uint8_t category, const char* name, uint64_t duration_ns)
{
    Histogram* hist = nullptr;
    switch (static_cast<trace::Category>(category)) {
      case trace::Category::kCell:
        hist = g_bridge.cell.load(std::memory_order_acquire);
        break;
      case trace::Category::kAlgo:
        hist = g_bridge.algo.load(std::memory_order_acquire);
        break;
      case trace::Category::kRound:
        hist = g_bridge.round.load(std::memory_order_acquire);
        break;
      case trace::Category::kGrb:
        hist = grb_histogram(name);
        break;
      case trace::Category::kRuntime:
        hist = g_bridge.runtime_region.load(std::memory_order_acquire);
        break;
      case trace::Category::kWorker:
        hist = g_bridge.runtime_worker.load(std::memory_order_acquire);
        break;
      case trace::Category::kStall:
        break; // stall episodes arrive via bridge_stall
    }
    if (hist != nullptr) {
        hist->record(duration_ns);
    }
}

void
bridge_stall(uint8_t stall_kind, uint64_t duration_ns)
{
    Histogram* hist = nullptr;
    switch (static_cast<trace::StallKind>(stall_kind)) {
      case trace::StallKind::kStealWait:
      case trace::StallKind::kGeneric:
        hist = g_bridge.steal_wait.load(std::memory_order_acquire);
        break;
      case trace::StallKind::kObimPop:
        hist = g_bridge.obim_wait.load(std::memory_order_acquire);
        break;
    }
    if (hist != nullptr) {
        hist->record(duration_ns);
    }
}

void
bridge_hw(const uint64_t (&deltas)[4])
{
    for (unsigned i = 0; i < trace::kNumHwCounters; ++i) {
        Gauge* g = g_bridge.hw[i].load(std::memory_order_acquire);
        if (g != nullptr) {
            g->add(deltas[i]);
        }
    }
}

} // namespace detail

namespace {

/// Register every name from stats/registry.h and publish the bridge
/// targets. Runs before the enabled flags flip, so any thread that
/// observes stats as enabled also observes resolved targets.
void
ensure_core_series()
{
    g_bridge.cell.store(&histogram(names::kBenchCellNs),
                        std::memory_order_release);
    g_bridge.algo.store(&histogram(names::kAlgoNs),
                        std::memory_order_release);
    g_bridge.round.store(&histogram(names::kAlgoRoundNs),
                         std::memory_order_release);
    g_bridge.spmv_push.store(&histogram(names::kSpmvPushNs),
                             std::memory_order_release);
    g_bridge.spmv_pull.store(&histogram(names::kSpmvPullNs),
                             std::memory_order_release);
    g_bridge.grb_op.store(&histogram(names::kGrbOpNs),
                          std::memory_order_release);
    g_bridge.runtime_region.store(&histogram(names::kRuntimeRegionNs),
                                  std::memory_order_release);
    g_bridge.runtime_worker.store(&histogram(names::kRuntimeWorkerNs),
                                  std::memory_order_release);
    g_bridge.steal_wait.store(&histogram(names::kSchedStealWaitNs),
                              std::memory_order_release);
    g_bridge.obim_wait.store(&histogram(names::kObimPopWaitNs),
                             std::memory_order_release);
    static const char* const kHwNames[trace::kNumHwCounters] = {
        names::kHwInstructions, names::kHwCycles, names::kHwL1dMiss,
        names::kHwLlcMiss};
    for (unsigned i = 0; i < trace::kNumHwCounters; ++i) {
        g_bridge.hw[i].store(&gauge(kHwNames[i]),
                             std::memory_order_release);
    }
    gauge(names::kStatsFramesDropped);
}

} // namespace

void
set_enabled(bool on)
{
    if (on) {
        ensure_core_series();
    }
    detail::g_enabled.store(on, std::memory_order_release);
    trace::detail::set_bridge_enabled(on);
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

namespace {

struct Sampler
{
    gas::Mutex lock;
    gas::CondVar cv;
    bool running GAS_GUARDED_BY(lock){false};
    bool stop_requested GAS_GUARDED_BY(lock){false};
    std::thread thread GAS_GUARDED_BY(lock);
    /// One token per sampler run (tokens trip exactly once).
    /// GAS_DEADLINE_MS arms its deadline, making the sampler die with
    /// the rest of a deadlined process. stop() must NOT trip it:
    /// tripping emits a trace instant, and stop() runs from an atexit
    /// handler after the main thread's trace TLS is already destroyed.
    /// stop_requested + cv notify is enough to unwind a parked wait.
    std::shared_ptr<CancelToken> token GAS_GUARDED_BY(lock);

    std::vector<Frame> ring GAS_GUARDED_BY(lock);
    std::size_t capacity GAS_GUARDED_BY(lock){0};
    std::size_t head GAS_GUARDED_BY(lock){0};
    uint64_t written GAS_GUARDED_BY(lock){0};

    static Sampler&
    instance()
    {
        static Sampler* sampler = new Sampler;
        return *sampler;
    }
};

Frame
take_frame()
{
    Frame frame;
    frame.t_ns = now_ns();
    frame.counters = metrics::read();
    for (unsigned i = 0; i < metrics::kNumGauges; ++i) {
        frame.metric_gauges[i] =
            metrics::gauge_read(static_cast<metrics::GaugeId>(i));
    }
    frame.gauges = gauges_snapshot();
    return frame;
}

void
push_frame(Sampler& sampler, Frame&& frame) GAS_NO_THREAD_SAFETY_ANALYSIS
{
    // Caller holds sampler.lock (condition-variable loop shape the
    // analysis cannot see through the UniqueLock).
    if (sampler.capacity == 0) {
        sampler.capacity = static_cast<std::size_t>(
            env::u64_or("GAS_STATS_FRAMES", 8192));
        if (sampler.capacity == 0) {
            sampler.capacity = 1;
        }
        sampler.ring.reserve(sampler.capacity);
    }
    if (sampler.ring.size() < sampler.capacity) {
        sampler.ring.push_back(std::move(frame));
    } else {
        sampler.ring[sampler.head] = std::move(frame);
        sampler.head = (sampler.head + 1) % sampler.capacity;
        gauge(names::kStatsFramesDropped).add(1);
    }
    ++sampler.written;
}

void
sampler_main(double hz, std::shared_ptr<CancelToken> token)
{
    CancelScope scope(*token);
    const auto period = std::chrono::nanoseconds(
        static_cast<uint64_t>(1e9 / hz));
    Sampler& sampler = Sampler::instance();
    while (true) {
        Frame frame = take_frame();
        gas::UniqueLock guard(sampler.lock);
        push_frame(sampler, std::move(frame));
        if (sampler.stop_requested || cancel_requested()) {
            return;
        }
        sampler.cv.wait_for(guard, period);
        if (sampler.stop_requested || cancel_requested()) {
            return;
        }
    }
}

} // namespace

void
sampler_start(double hz)
{
    if (hz < 0.1) {
        hz = 0.1;
    }
    if (hz > 1000.0) {
        hz = 1000.0;
    }
    Sampler& sampler = Sampler::instance();
    gas::LockGuard guard(sampler.lock);
    if (sampler.running) {
        return;
    }
    sampler.running = true;
    sampler.stop_requested = false;
    sampler.token = std::make_shared<CancelToken>();
    const uint64_t deadline_ms = env::u64_or("GAS_DEADLINE_MS", 0);
    if (deadline_ms > 0) {
        sampler.token->set_deadline_ms(deadline_ms);
    }
    sampler.thread =
        std::thread(sampler_main, hz, sampler.token);
}

void
sampler_stop()
{
    Sampler& sampler = Sampler::instance();
    std::thread joinable;
    {
        gas::LockGuard guard(sampler.lock);
        if (!sampler.running) {
            return;
        }
        sampler.stop_requested = true;
        sampler.cv.notify_all();
        joinable = std::move(sampler.thread);
        sampler.running = false;
    }
    if (joinable.joinable()) {
        joinable.join();
    }
}

std::vector<Frame>
frames()
{
    Sampler& sampler = Sampler::instance();
    gas::LockGuard guard(sampler.lock);
    std::vector<Frame> out;
    out.reserve(sampler.ring.size());
    if (sampler.ring.size() < sampler.capacity || sampler.capacity == 0) {
        out = sampler.ring;
    } else {
        for (std::size_t i = 0; i < sampler.ring.size(); ++i) {
            out.push_back(
                sampler.ring[(sampler.head + i) % sampler.ring.size()]);
        }
    }
    return out;
}

uint64_t
frames_dropped()
{
    Sampler& sampler = Sampler::instance();
    gas::LockGuard guard(sampler.lock);
    const uint64_t kept = sampler.ring.size();
    return sampler.written - kept;
}

void
reset()
{
    StatsRegistry& registry = StatsRegistry::instance();
    {
        gas::LockGuard guard(registry.lock);
        for (auto& per_hist : registry.shards) {
            for (auto& shard : per_hist) {
                shard->clear();
            }
        }
        for (auto& g : registry.gauges) {
            g->set(0);
        }
    }
    Sampler& sampler = Sampler::instance();
    gas::LockGuard guard(sampler.lock);
    sampler.ring.clear();
    sampler.head = 0;
    sampler.written = 0;
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

namespace {

/// Bumped when the JSON layout changes shape (fields renamed/removed);
/// additive fields do not bump it.
constexpr int kJsonSchemaVersion = 1;

void
write_histogram_json(std::ofstream& out,
                     const std::pair<std::string, HistogramSnapshot>& named)
{
    const HistogramSnapshot& h = named.second;
    out << "    {\"name\": \"" << named.first << "\", \"count\": "
        << h.count << ", \"sum_ns\": " << h.sum << ", \"min_ns\": "
        << (h.empty() ? 0 : h.min) << ", \"max_ns\": " << h.max
        << ", \"p50_ns\": " << h.p50() << ", \"p90_ns\": " << h.p90()
        << ", \"p99_ns\": " << h.p99() << ", \"p999_ns\": " << h.p999()
        << ",\n     \"buckets\": [";
    // Sparse encoding: [bucket_lower_bound, count] for occupied
    // buckets only. The grid is fixed, so any reader can reconstruct
    // widths from stats/histogram.h's shape constants.
    bool first = true;
    for (unsigned i = 0; i < kNumBuckets; ++i) {
        if (h.buckets[i] == 0) {
            continue;
        }
        if (!first) {
            out << ", ";
        }
        first = false;
        out << "[" << bucket_lower(i) << ", " << h.buckets[i] << "]";
    }
    out << "]}";
}

void
write_counters_json(std::ofstream& out, const metrics::Snapshot& counters,
                    const char* indent)
{
    bool first = true;
    for (unsigned i = 0; i < metrics::kNumCounters; ++i) {
        const auto id = static_cast<metrics::CounterId>(i);
        if (counters[id] == 0) {
            continue;
        }
        if (!first) {
            out << ",\n";
        }
        first = false;
        out << indent << "\"" << metrics::counter_name(id)
            << "\": " << counters[id];
    }
    if (!first) {
        out << "\n";
    }
}

/// Prometheus metric base name: gas_ prefix, and duration histograms
/// converted from _ns to _seconds (the Prometheus base-unit norm).
std::string
prom_name(const std::string& name)
{
    const std::string kNsSuffix = "_ns";
    if (name.size() > kNsSuffix.size() &&
        name.compare(name.size() - kNsSuffix.size(), kNsSuffix.size(),
                     kNsSuffix) == 0) {
        return "gas_" + name.substr(0, name.size() - kNsSuffix.size()) +
            "_seconds";
    }
    return "gas_" + name;
}

} // namespace

bool
write_json(const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "gas::stats: cannot write %s\n", path.c_str());
        return false;
    }

    const auto histograms = snapshot_all();
    const auto gauges = gauges_snapshot();
    const auto counters = metrics::read();
    const auto captured = frames();

    out << "{\n";
    out << "  \"schema_version\": " << kJsonSchemaVersion << ",\n";
    out << "  \"frames_dropped\": " << frames_dropped() << ",\n";

    out << "  \"histograms\": [\n";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        write_histogram_json(out, histograms[i]);
        out << (i + 1 < histograms.size() ? "," : "") << "\n";
    }
    out << "  ],\n";

    out << "  \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        out << (i == 0 ? "" : ", ") << "\"" << gauges[i].first
            << "\": " << gauges[i].second;
    }
    for (unsigned i = 0; i < metrics::kNumGauges; ++i) {
        const auto id = static_cast<metrics::GaugeId>(i);
        out << (gauges.empty() && i == 0 ? "" : ", ") << "\""
            << metrics::gauge_name(id) << "\": " << metrics::gauge_read(id);
    }
    out << "},\n";

    out << "  \"counters\": {\n";
    write_counters_json(out, counters, "    ");
    out << "  },\n";

    out << "  \"frames\": [\n";
    for (std::size_t f = 0; f < captured.size(); ++f) {
        const Frame& frame = captured[f];
        out << "    {\"t_ns\": " << frame.t_ns << ", \"counters\": {";
        bool first = true;
        for (unsigned i = 0; i < metrics::kNumCounters; ++i) {
            const auto id = static_cast<metrics::CounterId>(i);
            if (frame.counters[id] == 0) {
                continue;
            }
            out << (first ? "" : ", ") << "\"" << metrics::counter_name(id)
                << "\": " << frame.counters[id];
            first = false;
        }
        out << "}, \"gauges\": {";
        first = true;
        for (const auto& [name, value] : frame.gauges) {
            out << (first ? "" : ", ") << "\"" << name << "\": " << value;
            first = false;
        }
        for (unsigned i = 0; i < metrics::kNumGauges; ++i) {
            const auto id = static_cast<metrics::GaugeId>(i);
            out << (first ? "" : ", ") << "\"" << metrics::gauge_name(id)
                << "\": " << frame.metric_gauges[i];
            first = false;
        }
        out << "}}" << (f + 1 < captured.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";

    const bool ok = out.good();
    out.close();
    std::printf("gas::stats: wrote %zu histogram series and %zu frames "
                "to %s\n",
                histograms.size(), captured.size(), path.c_str());
    return ok;
}

bool
write_prometheus(const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "gas::stats: cannot write %s\n", path.c_str());
        return false;
    }

    char buf[64];
    auto seconds = [&](uint64_t ns) {
        std::snprintf(buf, sizeof(buf), "%.9f",
                      static_cast<double>(ns) / 1e9);
        return buf;
    };

    for (const auto& [name, snap] : snapshot_all()) {
        const std::string base = prom_name(name);
        out << "# TYPE " << base << " histogram\n";
        // Cumulative buckets over occupied boundaries only (legal:
        // Prometheus requires le monotonicity and a +Inf bucket, not a
        // fixed boundary set), so empty grids stay one line.
        uint64_t cumulative = 0;
        for (unsigned i = 0; i < kNumBuckets; ++i) {
            if (snap.buckets[i] == 0) {
                continue;
            }
            cumulative += snap.buckets[i];
            out << base << "_bucket{le=\""
                << seconds(bucket_lower(i) + bucket_width(i)) << "\"} "
                << cumulative << "\n";
        }
        out << base << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
        out << base << "_sum " << seconds(snap.sum) << "\n";
        out << base << "_count " << snap.count << "\n";
    }

    for (const auto& [name, value] : gauges_snapshot()) {
        const std::string base = prom_name(name);
        out << "# TYPE " << base << " gauge\n";
        out << base << " " << value << "\n";
    }
    for (unsigned i = 0; i < metrics::kNumGauges; ++i) {
        const auto id = static_cast<metrics::GaugeId>(i);
        const std::string base = prom_name(metrics::gauge_name(id));
        out << "# TYPE " << base << " gauge\n";
        out << base << " " << metrics::gauge_read(id) << "\n";
    }

    const auto counters = metrics::read();
    for (unsigned i = 0; i < metrics::kNumCounters; ++i) {
        const auto id = static_cast<metrics::CounterId>(i);
        const std::string base =
            prom_name(metrics::counter_name(id)) + "_total";
        out << "# TYPE " << base << " counter\n";
        out << base << " " << counters[id] << "\n";
    }

    const bool ok = out.good();
    out.close();
    std::printf("gas::stats: wrote Prometheus exposition to %s\n",
                path.c_str());
    return ok;
}

// ---------------------------------------------------------------------------
// Environment wiring
// ---------------------------------------------------------------------------

bool
configure_from_env()
{
    static std::string json_path;
    static std::string prom_path;
    static std::once_flag once;
    bool enabled_now = false;
    std::call_once(once, [&] {
        const char* json = env::raw("GAS_STATS");
        const char* prom = env::raw("GAS_STATS_PROM");
        if (json == nullptr && prom == nullptr) {
            return;
        }
        json_path = json == nullptr ? "" : json;
        prom_path = prom == nullptr ? "" : prom;
        if (env::raw("GAS_TRACE_HW") != nullptr) {
            trace::set_hw_counters_wanted(env::flag("GAS_TRACE_HW"));
            if (env::flag("GAS_TRACE_HW")) {
                // Explicit request: report an unusable perf group once
                // instead of silently exposing zeroed hw_* series.
                (void) trace::hw_counters_supported_or_report();
            }
        }
        set_enabled(true);
        enabled_now = true;
        const double hz = env::f64_or("GAS_STATS_HZ", 10.0);
        if (hz > 0.0) {
            sampler_start(hz);
        }
        std::atexit([] {
            sampler_stop();
            if (!json_path.empty()) {
                write_json(json_path);
            }
            if (!prom_path.empty()) {
                write_prometheus(prom_path);
            }
        });
    });
    return enabled_now || detail::g_enabled.load(std::memory_order_relaxed);
}

} // namespace gas::stats
