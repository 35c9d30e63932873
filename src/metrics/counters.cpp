#include "metrics/counters.h"

#include <atomic>
#include <sstream>
#include <vector>

#include "support/thread_annotations.h"

namespace gas::metrics {

namespace {

/// Registry of live per-thread blocks plus totals from exited threads.
struct Registry
{
    gas::Mutex lock;
    std::vector<detail::Block*> blocks GAS_GUARDED_BY(lock);
    std::array<uint64_t, kNumCounters> retired GAS_GUARDED_BY(lock) = {};

    static Registry&
    instance()
    {
        // Intentionally leaked: worker threads' ThreadHandle TLS
        // destructors run when those threads exit, which can be after
        // static destruction has begun on the main thread (the thread
        // pool is itself a static singleton). A destructed registry
        // would then be a use-after-free; an immortal one is always
        // safe to deregister from.
        static Registry* registry = new Registry;
        return *registry;
    }
};

/// Registers the thread's block on first use, retires it at thread exit.
struct ThreadHandle
{
    detail::Block block{};

    ThreadHandle()
    {
        Registry& registry = Registry::instance();
        gas::LockGuard guard(registry.lock);
        registry.blocks.push_back(&block);
    }

    ~ThreadHandle()
    {
        detail::t_block = nullptr;
        Registry& registry = Registry::instance();
        gas::LockGuard guard(registry.lock);
        for (unsigned i = 0; i < kNumCounters; ++i) {
            registry.retired[i] += block[i];
        }
        std::erase(registry.blocks, &block);
    }
};

} // namespace

namespace detail {

constinit thread_local Block* t_block = nullptr;

Block*
register_thread()
{
    thread_local ThreadHandle handle;
    t_block = &handle.block;
    return t_block;
}

} // namespace detail

const char*
counter_name(CounterId id)
{
    switch (id) {
      case kWorkItems: return "work_items";
      case kEdgeVisits: return "edge_visits";
      case kLabelReads: return "label_reads";
      case kLabelWrites: return "label_writes";
      case kBytesMaterialized: return "bytes_materialized";
      case kPasses: return "passes";
      case kRounds: return "rounds";
      case kPushes: return "pushes";
      case kSteals: return "steals";
      case kStealFails: return "steal_fails";
      case kBackoffs: return "backoffs";
      case kStealGrows: return "steal_grows";
      case kStealShrinks: return "steal_shrinks";
      case kSpmvPushRounds: return "spmv_push_rounds";
      case kSpmvPullRounds: return "spmv_pull_rounds";
      case kMaskSkippedRows: return "mask_skipped_rows";
      case kEdgesShortCircuited: return "edges_short_circuited";
      case kRacesDetected: return "races_detected";
      case kFuzzPerturbations: return "fuzz_perturbations";
      case kObimCompactions: return "obim_compactions";
      case kLazyOpsDeferred: return "lazy_ops_deferred";
      case kFusedChains: return "fused_chains";
      case kLazyFallbacks: return "lazy_fallbacks";
      case kFormatCsrSelected: return "format_csr_selected";
      case kFormatBitmapSelected: return "format_bitmap_selected";
      case kFormatSellSelected: return "format_sell_selected";
      case kSimdLanesActive: return "simd_lanes_active";
      case kSimdLaneSlots: return "simd_lane_slots";
      case kRowsSkippedBitmap: return "rows_skipped_bitmap";
      case kCancelled: return "cancelled";
      case kDeadlineExceeded: return "deadline_exceeded";
      case kDegradedFallbacks: return "degraded_fallbacks";
      case kFaultsInjected: return "faults_injected";
      default: return "unknown";
    }
}

const char*
gauge_name(GaugeId id)
{
    switch (id) {
      case kObimBinsLive: return "obim_bins_live";
      case kObimBinsLiveMax: return "obim_bins_live_max";
      default: return "unknown";
    }
}

Snapshot
Snapshot::since(const Snapshot& earlier) const
{
    Snapshot delta;
    for (unsigned i = 0; i < kNumCounters; ++i) {
        delta.values[i] = values[i] >= earlier.values[i]
            ? values[i] - earlier.values[i]
            : 0;
    }
    return delta;
}

uint64_t
Snapshot::memory_accesses() const
{
    return values[kLabelReads] + values[kLabelWrites];
}

std::string
Snapshot::to_string() const
{
    std::ostringstream os;
    for (unsigned i = 0; i < kNumCounters; ++i) {
        if (i != 0) {
            os << ' ';
        }
        os << counter_name(static_cast<CounterId>(i)) << '=' << values[i];
    }
    return os.str();
}

const std::array<uint64_t, kNumCounters>&
local_values()
{
    const detail::Block* block = detail::t_block;
    return block != nullptr ? *block : *detail::register_thread();
}

namespace {

/// Gauges are global (not per-thread): they model a shared population
/// level (e.g. live OBIM bins), updated on rare state transitions, so
/// contended atomics are acceptable.
std::array<std::atomic<uint64_t>, kNumGauges>&
gauge_slots()
{
    static std::array<std::atomic<uint64_t>, kNumGauges> slots{};
    return slots;
}

void
fold_gauge_max(GaugeId max_id, uint64_t value)
{
    std::atomic<uint64_t>& slot = gauge_slots()[max_id];
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

void
gauge_set(GaugeId id, uint64_t value)
{
    gauge_slots()[id].store(value, std::memory_order_relaxed);
    if (id == kObimBinsLive) {
        fold_gauge_max(kObimBinsLiveMax, value);
    }
}

void
gauge_add(GaugeId id, int64_t delta)
{
    const uint64_t now = gauge_slots()[id].fetch_add(
                             static_cast<uint64_t>(delta),
                             std::memory_order_relaxed) +
        static_cast<uint64_t>(delta);
    if (id == kObimBinsLive) {
        fold_gauge_max(kObimBinsLiveMax, now);
    }
}

uint64_t
gauge_read(GaugeId id)
{
    return gauge_slots()[id].load(std::memory_order_relaxed);
}

void
gauges_reset()
{
    for (auto& slot : gauge_slots()) {
        slot.store(0, std::memory_order_relaxed);
    }
}

Snapshot
read()
{
    Registry& registry = Registry::instance();
    gas::LockGuard guard(registry.lock);
    Snapshot total;
    total.values = registry.retired;
    // Owners bump without the lock; relaxed atomic loads make these
    // concurrent reads well defined (see bump()).
    for (detail::Block* block : registry.blocks) {
        for (unsigned i = 0; i < kNumCounters; ++i) {
            total.values[i] += std::atomic_ref<uint64_t>((*block)[i]).load(
                std::memory_order_relaxed);
        }
    }
    return total;
}

void
reset()
{
    Registry& registry = Registry::instance();
    gas::LockGuard guard(registry.lock);
    registry.retired.fill(0);
    for (detail::Block* block : registry.blocks) {
        for (uint64_t& slot : *block) {
            std::atomic_ref<uint64_t>(slot).store(0,
                                                  std::memory_order_relaxed);
        }
    }
}

} // namespace gas::metrics
