#pragma once

/**
 * @file
 * Software performance counters.
 *
 * The paper collects hardware events (instruction count, L1/L2/L3/DRAM
 * accesses) with Intel CapeScripts and reports only *ratios* between
 * systems (Tables IV and V). Hardware counters are unavailable here, so
 * this module counts the algorithmic events that cause those hardware
 * events:
 *
 *  - kWorkItems          operator applications / scalar semiring ops
 *                        (proxy for dynamic instruction count)
 *  - kEdgeVisits         edges touched by a kernel
 *  - kLabelReads/Writes  vertex-label or vector-element accesses
 *                        (proxy for L1 traffic)
 *  - kBytesMaterialized  bytes allocated for intermediate matrices,
 *                        vectors, and accumulators (proxy for the extra
 *                        DRAM traffic caused by materialization)
 *  - kPasses             full passes over a vertex- or edge-sized
 *                        structure (each pass streams the structure
 *                        through the cache hierarchy, so passes x size is
 *                        a proxy for DRAM accesses)
 *  - kRounds             bulk-synchronous rounds executed
 *
 * Scheduler counters (the asynchronous executors' own behavior, used
 * by table4_counters to report per-workload scheduler activity):
 *
 *  - kPushes             items pushed into a scheduler worklist
 *  - kSteals             items obtained from a remote deque or a
 *                        shared priority bin
 *  - kStealFails         steal attempts / scan passes that found
 *                        nothing (contention or emptiness)
 *  - kBackoffs           idle backoff waits between steal sweeps
 *  - kStealGrows/Shrinks adaptive steal-batch cap adjustments (grow on
 *                        sustained successful steals, shrink when a
 *                        batch aborts on CAS contention)
 *
 * Direction-optimizing SpMV counters (the dispatch_spmv engine in
 * src/matrix/ops_dispatch.h and the masked pull kernels behind it):
 *
 *  - kSpmvPushRounds     dispatch decisions that ran the push (vxm)
 *                        kernel
 *  - kSpmvPullRounds     dispatch decisions that ran a pull (mxv /
 *                        mxv_sparse) kernel
 *  - kMaskSkippedRows    rows a pull kernel skipped wholesale because
 *                        the mask ruled them out before the row was
 *                        touched
 *  - kEdgesShortCircuited edges never scanned because a row's
 *                        accumulator reached the monoid's absorbing
 *                        element (the "any"-style early exit)
 *
 * Race-checker counters (the GAS_CHECK shadow-memory detector in
 * src/check/; both stay zero in unchecked builds):
 *
 *  - kRacesDetected      conflicting operator accesses flagged by the
 *                        shadow-word protocol
 *  - kFuzzPerturbations  schedule-fuzzer perturbations injected (yields,
 *                        spins, shuffled victims, forced steal failures)
 *
 * Lazy non-blocking mode counters (the expression layer in
 * src/matrix/lazy.h):
 *
 *  - kLazyOpsDeferred    operations recorded as unevaluated expression
 *                        nodes instead of executing immediately
 *  - kFusedChains        recognized chains collapsed into a single
 *                        fused kernel by the fusion planner
 *  - kLazyFallbacks      lazy-mode operations that evaluated eagerly
 *                        because their shape was not recognized
 *
 * Storage-format tuning and SIMD counters (the per-matrix auto-tuner
 * and vector kernels in src/matrix/formats.h / simd_spmv.h):
 *
 *  - kFormatCsrSelected/kFormatBitmapSelected/kFormatSellSelected
 *                        tune() decisions, one bump per tuned matrix
 *                        (env-forced decisions count too)
 *  - kSimdLanesActive    vector lane-slots that carried a real matrix
 *                        entry in a SIMD step
 *  - kSimdLaneSlots      total lane-slots issued by SIMD steps
 *                        (active/slots = lane utilization; the gap is
 *                        SELL padding and partial tail vectors)
 *  - kRowsSkippedBitmap  rows a kernel skipped without touching the
 *                        row pointers because the row bitmap showed
 *                        them empty
 *
 * Robustness counters (the cancellation / degradation / fault layer in
 * src/support/cancel.h and faults.h):
 *
 *  - kCancelled          queries tripped by an explicit cancel (one
 *                        bump per CancelToken trip, not per poll)
 *  - kDeadlineExceeded   queries tripped by a deadline
 *  - kDegradedFallbacks  graceful-degradation events: SELL/bitmap
 *                        build fell back to CSR, fused kernel fell
 *                        back to eager, OBIM bin fell back to FIFO
 *  - kFaultsInjected     faults the chaos harness actually injected
 *                        (failed allocations + worker delays)
 *
 * Counters are per-thread (plain non-atomic increments) and aggregated
 * on demand. Kernels tally exact counts in loop-local integers and
 * bump once per block or row (see bump()), so instrumentation stays
 * cheap enough to leave enabled in every kernel.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace gas::metrics {

/// Identifiers for the tracked event classes.
enum CounterId : unsigned {
    kWorkItems = 0,
    kEdgeVisits,
    kLabelReads,
    kLabelWrites,
    kBytesMaterialized,
    kPasses,
    kRounds,
    kPushes,
    kSteals,
    kStealFails,
    kBackoffs,
    kStealGrows,
    kStealShrinks,
    kSpmvPushRounds,
    kSpmvPullRounds,
    kMaskSkippedRows,
    kEdgesShortCircuited,
    kRacesDetected,
    kFuzzPerturbations,
    kObimCompactions,
    kLazyOpsDeferred,
    kFusedChains,
    kLazyFallbacks,
    kFormatCsrSelected,
    kFormatBitmapSelected,
    kFormatSellSelected,
    kSimdLanesActive,
    kSimdLaneSlots,
    kRowsSkippedBitmap,
    kCancelled,
    kDeadlineExceeded,
    kDegradedFallbacks,
    kFaultsInjected,
    kNumCounters,
};

/**
 * Identifiers for tracked gauges: point-in-time levels rather than
 * monotone event counts. The OBIM executor reports its bin occupancy
 * here (kObimBinsLive tracks bins that currently hold work; the *Max
 * variant records the high-water mark since the last gauges_reset), so
 * table4 and the ROADMAP's per-package bin-affinity work can see how
 * wide the priority structure actually gets.
 */
enum GaugeId : unsigned {
    kObimBinsLive = 0,
    kObimBinsLiveMax,
    kNumGauges,
};

/// Human-readable name of a gauge.
const char* gauge_name(GaugeId id);

/// Set a gauge's current level; the paired *Max gauge (id + 1 for
/// kObimBinsLive) is maintained by the module.
void gauge_set(GaugeId id, uint64_t value);

/// Adjust a gauge by a signed delta (for gauges tracking a population).
void gauge_add(GaugeId id, int64_t delta);

/// Current value of a gauge.
uint64_t gauge_read(GaugeId id);

/// Zero every gauge, including the high-water marks.
void gauges_reset();

/// Human-readable name of a counter.
const char* counter_name(CounterId id);

/// A full set of counter values; also the aggregation result type.
struct Snapshot
{
    std::array<uint64_t, kNumCounters> values{};

    uint64_t operator[](CounterId id) const { return values[id]; }

    /// Element-wise difference (this - earlier), saturating at zero.
    Snapshot since(const Snapshot& earlier) const;

    /// Sum of the label read and write counters (memory-access proxy).
    uint64_t memory_accesses() const;

    /// Render as "name=value name=value ..." for logs and tests.
    std::string to_string() const;
};

namespace detail {

/// The calling thread's counter block, or null until the thread's first
/// bump (and again once the thread has retired it). constinit lets
/// every access compile to a plain TLS load, with no guard-variable
/// check or TLS wrapper call.
using Block = std::array<uint64_t, kNumCounters>;
extern constinit thread_local Block* t_block;

/// Register the calling thread's block (retired into the global totals
/// at thread exit), point t_block at it and return it.
Block* register_thread();

} // namespace detail

/**
 * Bump a counter on the calling thread by @p amount.
 *
 * Hot kernels never call this per edge or per element: they tally exact
 * totals in loop-local integers and bump once per rt::Range (or once
 * per row, with the row's end - begin). What remains per item (the
 * for_each / OBIM schedulers) costs one TLS load and one add.
 *
 * Only the owning thread writes its slot, so a relaxed load and store
 * (plain movs on x86, no lock prefix) make the update exact; they are
 * atomic only so that read() can sum the slot from another thread.
 */
inline void
bump(CounterId id, uint64_t amount = 1)
{
    detail::Block* block = detail::t_block;
    if (block == nullptr) [[unlikely]] {
        block = detail::register_thread();
    }
    std::atomic_ref<uint64_t> slot((*block)[id]);
    slot.store(slot.load(std::memory_order_relaxed) + amount,
               std::memory_order_relaxed);
}

/**
 * The single entry point for kBytesMaterialized.
 *
 * Every allocation-site charge routes through here — grb::Vector's
 * capacity watermark (Vector::charge_materialized), matrix builders,
 * the SPA workspace, and the ls_* algorithms' working arrays — so the
 * accounting policy lives in one place: charge bytes when backing
 * storage actually grows, never when a buffer is reused. Fused and
 * lazy execution paths therefore cannot double-count buffers the
 * planner elided; they simply never allocate them.
 */
inline void
charge_materialized(uint64_t bytes)
{
    bump(kBytesMaterialized, bytes);
}

/// The calling thread's own counter block. Reading it is race-free by
/// construction (only the owner writes it); the span tracer snapshots
/// it at span boundaries to attribute counter deltas to phases.
const std::array<uint64_t, kNumCounters>& local_values();

/// Aggregate all threads' counters (including exited threads).
Snapshot read();

/// Zero every thread's counters. Must not race with worker activity.
void reset();

/// RAII scope measuring the counter delta across a region.
class Interval
{
  public:
    Interval() : start_(read()) {}

    /// Events observed since construction.
    Snapshot delta() const { return read().since(start_); }

  private:
    Snapshot start_;
};

} // namespace gas::metrics
