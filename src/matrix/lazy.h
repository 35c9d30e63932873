#pragma once

/**
 * @file
 * Lazy non-blocking expression layer for the matrix API.
 *
 * In non-blocking mode (ExecMode::kNonBlocking) the recorders in
 * namespace gas::grb::lazy do not execute their operation; they attach
 * an unevaluated expression node to the output handle (LazyVector).
 * Fusion happens *at record time*, greedily: when the next recorded
 * operation consumes a handle with a pending node and the combined
 * shape is one the planner recognizes, the pending node is rewritten
 * in place (a transform or assign hook is absorbed into it) or the
 * producer is subsumed into the consumer (its intermediate output is
 * never materialized at all). Unrecognized shapes fall back to eager
 * evaluation and count kLazyFallbacks.
 *
 * Recognized chains (all counted by kFusedChains):
 *
 *  - dispatch_spmv/mxv + apply        -> per-entry transform in the
 *                                        SpMV kernel's sink
 *  - dispatch_spmv/mxv + assign_scalar masked by the SpMV output into
 *    the SpMV's own mask vector (the BFS round) -> assign in the sink
 *  - eWiseMult/eWiseAdd (dense-dense) + assign_scalar masked by the
 *    result                           -> fused_ewise_assign
 *  - eWiseMult + select_entries       -> fused_ewise_mult_select
 *  - eWiseMult (dense-dense) feeding mxv's operand -> the producer is
 *    subsumed; its product lands in recycled scratch storage
 *    (ewise_mult_recycle), never in a freshly allocated intermediate
 *
 * Materialization points, at which pending work executes:
 * LazyVector::nvals / value / extract_tuples / get_element / wait, the
 * lazy reduce, handle destruction, BackendScope entry/exit,
 * set_exec_mode back to blocking, and ExecModeScope entry/exit.
 *
 * Contracts (deliberate, documented limits of the study's scope):
 *
 *  - Recording is single-threaded, like the GrB context model; the
 *    kernels a node runs are parallel inside.
 *  - Operands of a recorded operation (vectors, matrices, dispatcher,
 *    mask) must stay alive and unmodified until the node executes.
 *    Round-based algorithms satisfy this naturally: each round's
 *    chain materializes before its inputs are rewritten.
 *  - At most one pending node per handle: recording a new operation
 *    into a handle first flushes its previous node.
 *  - A subsumed handle (producer fused away into a consumer) has no
 *    value of its own until it is next overwritten; reading it is a
 *    checked error (GAS_CHECK).
 *
 * In blocking mode the recorders execute the node immediately after
 * attaching it, so the same algorithm source runs either mode and
 * fusion is naturally disabled — this is what the lazy-vs-eager
 * equivalence suite exploits, and how la::bfs_auto and la::bfs_lazy
 * share one round body. Results are identical to the eager ops, but
 * the execution is not: the SpMV recorders still hand their output
 * handle's spare buffer to the kernel as its recycle buffer, so a
 * blocking-mode run materializes fewer bytes (kBytesMaterialized)
 * than the same ops called on plain vectors.
 */

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "matrix/lazy_registry.h"
#include "matrix/ops_dispatch.h"
#include "matrix/ops_fused.h"
#include "support/faults.h"

namespace gas::grb {

template <typename T>
class LazyVector;

/**
 * Type-erased per-entry assign hook built by the lazy planner.
 *
 * prepare() runs once before the producing kernel (e.g. densify the
 * assign target); assign_at(i) runs for every produced entry the
 * assign's implicit mask admits — it may run from worker threads but is
 * called at most once per distinct index; finish() runs once after the
 * kernel (e.g. fix up the target's nvals). Unset members are skipped.
 *
 * Lives here rather than in the kernel headers because type erasure
 * is a record-time planner concern: the hot kernels themselves are
 * templated on the sink (gaslint: gas-std-function-in-kernel).
 */
struct AssignSink
{
    std::function<void()> prepare;
    std::function<void(Index)> assign_at;
    std::function<void()> finish;
};

namespace detail {

/// Mutable execution plan of a pending SpMV node; absorb hooks rewrite
/// it until the node runs.
template <typename T>
struct SpmvState
{
    std::function<T(T)> transform;
    bool has_assign{false};
    bool assign_structural{false};
    AssignSink sink;
};

enum class EwiseMode {
    kPlain,
    kAssign,
    kSelect,
};

/// Mutable execution plan of a pending element-wise node.
template <typename T>
struct EwiseState
{
    EwiseMode mode{EwiseMode::kPlain};
    std::function<T(T, T)> fn;
    bool intersection{true};
    bool assign_structural{false};
    AssignSink sink;
    std::function<bool(Index, T)> pred;
    LazyVector<T>* select_out{nullptr};
};

/**
 * One deferred (possibly fused) operation. The type-erased run closure
 * owns the full typed context (semiring, mask type, operand pointers);
 * the absorb hooks are how later recordings rewrite the plan. Hooks
 * return false when the combination would diverge from eager semantics
 * (the caller then falls back to eager execution).
 */
template <typename T>
struct LazyNode
{
    /// Dense-dense eWiseMult operands exposed for mxv input fusion.
    struct DenseMult
    {
        const uint8_t* a_present;
        const T* a_vals;
        const uint8_t* b_present;
        const T* b_vals;
        std::function<T(T, T)> fn;
    };

    bool done{false};
    std::function<void()> run;

    // SpMV-node hooks. spmv_mask_id identifies the mask operand by
    // address so the planner can recognize "assign into the SpMV's own
    // mask" (the BFS chain) without type information.
    const void* spmv_mask_id{nullptr};
    std::function<bool(std::function<T(T)>)> absorb_transform;
    std::function<bool(bool, AssignSink)> absorb_mask_assign;

    // Element-wise-node hooks.
    std::optional<DenseMult> dense_mult;
    std::function<bool(bool, AssignSink)> absorb_assign;
    std::function<bool(LazyVector<T>*, std::function<bool(Index, T)>)>
        absorb_select;

    void
    execute()
    {
        if (done) {
            return;
        }
        done = true;
        run();
    }
};

/// Scalar-assign sink writing into a (densified) target vector;
/// shared by the SpMV-assign and eWise-assign fusions.
template <typename MT>
AssignSink
make_assign_sink(Vector<MT>& target, MT value)
{
    auto added = std::make_shared<std::atomic<Nnz>>(0);
    Vector<MT>* tp = &target;
    AssignSink sink;
    sink.prepare = [tp]() { tp->densify(); };
    sink.assign_at = [tp, value, added](Index i) {
        auto& present = tp->dense_presence();
        if (present[i] == 0) {
            present[i] = 1;
            added->fetch_add(1, std::memory_order_relaxed);
        }
        tp->dense_values()[i] = value;
        metrics::bump(metrics::kLabelWrites);
        metrics::bump(metrics::kWorkItems);
    };
    sink.finish = [tp, added]() {
        tp->set_dense_nvals(tp->nvals() +
                            added->load(std::memory_order_relaxed));
    };
    return sink;
}

/**
 * A pending SpMV node whose run() calls @p kernel(sink). Both SpMV
 * recorders share this plumbing: the per-entry sink applies an
 * absorbed transform and then an absorbed mask assign, the assign's
 * prepare/finish bracket the kernel, and the absorb hooks rewrite the
 * plan until the node runs. @p mask identifies the SpMV's mask operand
 * (see LazyNode::spmv_mask_id).
 */
template <typename T, typename Kernel>
std::shared_ptr<LazyNode<T>>
make_spmv_node(const void* mask, Kernel kernel)
{
    auto state = std::make_shared<SpmvState<T>>();
    auto node = std::make_shared<LazyNode<T>>();
    node->spmv_mask_id = mask;
    node->run = [state, kernel = std::move(kernel)]() {
        auto extras = [state](Index i, T& v) {
            if (state->transform) {
                v = state->transform(v);
            }
            if (state->has_assign &&
                (state->assign_structural || v != T{0})) {
                state->sink.assign_at(i);
            }
        };
        if (state->has_assign && state->sink.prepare) {
            state->sink.prepare();
        }
        kernel(extras);
        if (state->has_assign && state->sink.finish) {
            state->sink.finish();
        }
    };
    node->absorb_transform = [state](std::function<T(T)> fn) {
        if (state->has_assign) {
            // Eager order would be assign-then-apply; fusing the
            // transform in would reorder it before the assign's value
            // test. Refuse; the caller falls back.
            return false;
        }
        if (state->transform) {
            auto prev = std::move(state->transform);
            state->transform = [prev = std::move(prev),
                                fn = std::move(fn)](T v) {
                return fn(prev(v));
            };
        } else {
            state->transform = std::move(fn);
        }
        return true;
    };
    node->absorb_mask_assign = [state](bool structural, AssignSink sink) {
        if (state->has_assign) {
            return false;
        }
        state->has_assign = true;
        state->assign_structural = structural;
        state->sink = std::move(sink);
        return true;
    };
    return node;
}

} // namespace detail

/**
 * A vector handle whose contents may be an unevaluated expression.
 *
 * Owns the materialized value, a spare buffer the SpMV kernels
 * recycle round over round (the main source of the non-blocking mode's
 * kBytesMaterialized savings), and at most one pending node. All
 * reading accessors are materialization points. Handles register with
 * the lazy registry so backend/mode sync points can flush them.
 */
template <typename T>
class LazyVector : public detail::Flushable
{
  public:
    LazyVector() { detail::register_flushable(this); }

    explicit LazyVector(Index size) : value_(size)
    {
        detail::register_flushable(this);
    }

    /// Wrap an existing vector (takes ownership of its storage).
    explicit LazyVector(Vector<T> initial) : value_(std::move(initial))
    {
        detail::register_flushable(this);
    }

    ~LazyVector() override
    {
        // Destruction is a materialization point: the pending node may
        // carry side effects (a fused assign into another vector).
        if (node_ != nullptr && !node_->done) {
            node_->execute();
        }
        detail::unregister_flushable(this);
    }

    LazyVector(const LazyVector&) = delete;
    LazyVector& operator=(const LazyVector&) = delete;

    /// Execute the pending node, if any (explicit GrB_wait).
    void
    wait()
    {
        if (node_ != nullptr && !node_->done) {
            node_->execute();
        }
    }

    void flush_pending() override { wait(); }

    /// Materialized value (forces).
    const Vector<T>&
    value()
    {
        materialize();
        return value_;
    }

    /// Number of explicit entries (forces).
    Nnz
    nvals()
    {
        materialize();
        return value_.nvals();
    }

    Index size() const { return value_.size(); }

    std::vector<std::pair<Index, T>>
    extract_tuples()
    {
        materialize();
        return value_.extract_tuples();
    }

    std::optional<T>
    get_element(Index i)
    {
        materialize();
        return value_.get_element(i);
    }

    /// Set one element (flushes any pending node first).
    void
    set_element(Index i, T v)
    {
        prepare_record();
        value_.set_element(i, v);
    }

    void
    fill(T v)
    {
        prepare_record();
        value_.fill(v);
    }

    /// Convert the value to sparse storage (forces).
    void
    sparsify()
    {
        materialize();
        value_.sparsify();
    }

    /// Exchange the materialized value with @p other; both stay valid.
    /// The round-based buffer rotation (e.g. PageRank's update/delta)
    /// without a copy.
    void
    swap_value(Vector<T>& other)
    {
        materialize();
        std::swap(value_, other);
    }

    /// True when an unevaluated node is attached.
    bool pending() const { return node_ != nullptr && !node_->done; }

    // ---- recorder internals (used by the gas::grb::lazy functions;
    // not part of the algorithm-facing surface) ----

    detail::LazyNode<T>* node() { return node_.get(); }
    std::shared_ptr<detail::LazyNode<T>> node_ptr() { return node_; }
    Vector<T>& storage() { return value_; }
    Vector<T>& spare() { return spare_; }

    /// Force pending work and check the handle still owns its value.
    void
    materialize()
    {
        wait();
        GAS_CHECK(!subsumed_,
                  "lazy vector was fused away (subsumed by a consumer); "
                  "its value is not available until it is overwritten");
    }

    /// Flush before this handle is used as an output again.
    void
    prepare_record()
    {
        wait();
        node_.reset();
        subsumed_ = false;
    }

    /// Attach a freshly recorded node. Blocking mode executes it on the
    /// spot, so the recorders return the eager ops' results (see the
    /// file comment for what still differs).
    void
    adopt(std::shared_ptr<detail::LazyNode<T>> node)
    {
        node_ = std::move(node);
        subsumed_ = false;
        if (exec_mode() == ExecMode::kBlocking) {
            node_->execute();
        } else {
            metrics::bump(metrics::kLazyOpsDeferred);
        }
    }

    /// This handle's pending output was fused into @p consumer; keep a
    /// reference so destruction/flush still triggers the consumer.
    void
    subsume_into(std::shared_ptr<detail::LazyNode<T>> consumer)
    {
        node_ = std::move(consumer);
        subsumed_ = true;
    }

  private:
    Vector<T> value_;
    Vector<T> spare_;
    std::shared_ptr<detail::LazyNode<T>> node_;
    bool subsumed_{false};
};

namespace lazy {

/**
 * Record w<mask> = u * A through a direction-optimizing dispatcher.
 * The plain-vector overload; @p u must stay stable until the node runs.
 */
template <typename Semiring, typename T, typename MT = uint8_t>
void
dispatch_spmv(SpmvDispatcher<T>& dispatcher, LazyVector<T>& w,
              const Vector<MT>* mask, const Descriptor& desc,
              const Vector<T>& u)
{
    w.prepare_record();
    LazyVector<T>* wp = &w;
    const Vector<T>* up = &u;
    SpmvDispatcher<T>* dp = &dispatcher;
    auto node = detail::make_spmv_node<T>(
        mask, [dp, wp, up, mask, desc](const auto& sink) {
            dp->template dispatch_spmv<Semiring>(wp->storage(), mask, desc,
                                                 *up, sink, &wp->spare());
        });
    w.adopt(std::move(node));
}

/// Lazy-operand overload: w may be u (the in-place traversal round).
template <typename Semiring, typename T, typename MT = uint8_t>
void
dispatch_spmv(SpmvDispatcher<T>& dispatcher, LazyVector<T>& w,
              const Vector<MT>* mask, const Descriptor& desc,
              LazyVector<T>& u)
{
    if (&u != &w) {
        u.materialize();
    }
    dispatch_spmv<Semiring>(dispatcher, w, mask, desc,
                            static_cast<const Vector<T>&>(u.storage()));
}

/// Unmasked convenience overload.
template <typename Semiring, typename T>
void
dispatch_spmv(SpmvDispatcher<T>& dispatcher, LazyVector<T>& w,
              const Descriptor& desc, const Vector<T>& u)
{
    dispatch_spmv<Semiring, T, uint8_t>(dispatcher, w, nullptr, desc, u);
}

/**
 * Record w<mask> = A * u (pull orientation, no dispatcher). When u
 * carries a pending dense-dense eWiseMult, u is subsumed and the
 * product is computed straight into u's recycled spare buffer — the
 * contribution vector of a PageRank round is never freshly allocated.
 */
template <typename Semiring, typename T, typename MT = uint8_t>
void
mxv(LazyVector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
    const Matrix<T>& A, LazyVector<T>& u)
{
    std::optional<typename detail::LazyNode<T>::DenseMult> mult;
    if (exec_mode() == ExecMode::kNonBlocking && &u != &w &&
        u.pending() && u.node()->dense_mult.has_value()) {
        mult = *u.node()->dense_mult;
    }
    if (mult.has_value() && faults::should_fail_alloc("fused.scratch")) {
        // Graceful degradation: the fused kernel's recycled scratch is
        // unavailable, so decline the fusion here — while the producer
        // can still evaluate on its own — and take the eager path.
        mult.reset();
        metrics::bump(metrics::kDegradedFallbacks);
        metrics::bump(metrics::kLazyFallbacks);
        trace::instant(trace::Category::kGrb, "degrade:fused");
    }
    const bool fuse_input = mult.has_value();
    if (!fuse_input && &u != &w) {
        u.materialize();
    }
    w.prepare_record();
    LazyVector<T>* wp = &w;
    LazyVector<T>* up = &u;
    const Matrix<T>* ap = &A;
    auto node = detail::make_spmv_node<T>(
        mask, [wp, up, ap, mask, desc,
               mult = std::move(mult)](const auto& sink) {
            const Vector<T>* operand = &up->storage();
            if (mult.has_value()) {
                // The subsumed producer's product, computed into u's
                // recycled spare buffer: no fresh intermediate is ever
                // allocated, and the pull kernel reads plain dense
                // arrays (a per-edge type-erased multiply was measured
                // slower than this one extra vertex-sized pass).
                Vector<T>& scratch = up->spare();
                ewise_mult_recycle(scratch, up->size(), mult->a_present,
                                   mult->a_vals, mult->b_present,
                                   mult->b_vals, mult->fn);
                operand = &scratch;
            }
            grb::mxv<Semiring>(wp->storage(), mask, desc, *ap, *operand,
                               sink, &wp->spare());
        });
    if (fuse_input) {
        u.subsume_into(node);
        metrics::bump(metrics::kFusedChains);
    }
    w.adopt(std::move(node));
}

/// Unmasked mxv convenience overload.
template <typename Semiring, typename T>
void
mxv(LazyVector<T>& w, const Descriptor& desc, const Matrix<T>& A,
    LazyVector<T>& u)
{
    mxv<Semiring, T, uint8_t>(w, nullptr, desc, A, u);
}

/**
 * Record w = f(w) entry-wise. Fuses into a pending SpMV's per-entry
 * hook when possible (the PageRank damping multiply); otherwise
 * materializes and applies eagerly.
 */
template <typename T, typename Fn>
void
apply(LazyVector<T>& w, Fn&& fn)
{
    const bool nonblocking = exec_mode() == ExecMode::kNonBlocking;
    if (nonblocking && w.pending() &&
        w.node()->absorb_transform &&
        w.node()->absorb_transform(std::function<T(T)>(fn))) {
        metrics::bump(metrics::kFusedChains);
        return;
    }
    w.materialize();
    grb::apply(w.storage(), w.storage(), std::forward<Fn>(fn));
    if (nonblocking) {
        metrics::bump(metrics::kLazyFallbacks);
    }
}

namespace impl {

/// Shared recorder for the element-wise ops (intersection selects
/// eWiseMult, union eWiseAdd).
template <typename T>
void
record_ewise(LazyVector<T>& w, const Vector<T>& u, const Vector<T>& v,
             std::function<T(T, T)> fn, bool intersection)
{
    w.prepare_record();
    auto state = std::make_shared<detail::EwiseState<T>>();
    state->fn = std::move(fn);
    state->intersection = intersection;
    auto node = std::make_shared<detail::LazyNode<T>>();
    detail::LazyNode<T>* np = node.get();
    LazyVector<T>* wp = &w;
    const Vector<T>* up = &u;
    const Vector<T>* vp = &v;
    node->run = [state, wp, up, vp]() {
        switch (state->mode) {
          case detail::EwiseMode::kPlain:
            if (state->intersection) {
                grb::ewise_mult(wp->storage(), *up, *vp, state->fn);
            } else {
                grb::ewise_add(wp->storage(), *up, *vp, state->fn);
            }
            break;
          case detail::EwiseMode::kAssign:
            fused_ewise_assign(wp->storage(), *up, *vp, state->fn,
                               state->intersection,
                               state->assign_structural, state->sink);
            break;
          case detail::EwiseMode::kSelect:
            fused_ewise_mult_select(state->select_out->storage(), *up,
                                    *vp, state->fn, state->pred);
            break;
        }
    };
    const bool dense_dense = u.format() == VectorFormat::kDense &&
        v.format() == VectorFormat::kDense;
    if (intersection && dense_dense) {
        node->dense_mult = typename detail::LazyNode<T>::DenseMult{
            u.dense_presence().data(), u.dense_values().data(),
            v.dense_presence().data(), v.dense_values().data(),
            state->fn};
    }
    node->absorb_assign = [state, np, dense_dense](bool structural,
                                                   AssignSink sink) {
        if (state->mode != detail::EwiseMode::kPlain || !dense_dense) {
            return false;
        }
        state->mode = detail::EwiseMode::kAssign;
        state->assign_structural = structural;
        state->sink = std::move(sink);
        np->dense_mult.reset();
        return true;
    };
    if (intersection) {
        node->absorb_select =
            [state, np, wp](LazyVector<T>* out,
                            std::function<bool(Index, T)> pred) {
                if (state->mode != detail::EwiseMode::kPlain ||
                    out == wp) {
                    return false;
                }
                state->mode = detail::EwiseMode::kSelect;
                state->pred = std::move(pred);
                state->select_out = out;
                np->dense_mult.reset();
                return true;
            };
    }
    w.adopt(std::move(node));
}

} // namespace impl

/// Record w = u (*) v on the support intersection.
template <typename T, typename Fn>
void
ewise_mult(LazyVector<T>& w, const Vector<T>& u, const Vector<T>& v,
           Fn&& fn)
{
    impl::record_ewise<T>(w, u, v, std::function<T(T, T)>(fn), true);
}

/// Lazy-operand overload (materializes @p u first).
template <typename T, typename Fn>
void
ewise_mult(LazyVector<T>& w, LazyVector<T>& u, const Vector<T>& v,
           Fn&& fn)
{
    u.materialize();
    ewise_mult(w, static_cast<const Vector<T>&>(u.storage()), v,
               std::forward<Fn>(fn));
}

/// Record w = u (+) v on the support union.
template <typename T, typename Fn>
void
ewise_add(LazyVector<T>& w, const Vector<T>& u, const Vector<T>& v,
          Fn&& fn)
{
    impl::record_ewise<T>(w, u, v, std::function<T(T, T)>(fn), false);
}

/**
 * Record w = entries of u passing pred. When u is a pending eWiseMult
 * this retargets the producer into the fused mult+select kernel and
 * subsumes u (sssp's improvements vector never materializes).
 */
template <typename T, typename Pred>
void
select_entries(LazyVector<T>& w, LazyVector<T>& u, Pred&& pred)
{
    const bool nonblocking = exec_mode() == ExecMode::kNonBlocking;
    if (nonblocking && &u != &w && u.pending() &&
        u.node()->absorb_select) {
        auto shared = u.node_ptr();
        w.prepare_record();
        if (shared->absorb_select(&w,
                                  std::function<bool(Index, T)>(pred))) {
            w.adopt(shared);
            u.subsume_into(std::move(shared));
            metrics::bump(metrics::kFusedChains);
            return;
        }
    }
    u.materialize();
    w.prepare_record();
    grb::select_entries(w.storage(), u.storage(),
                        std::forward<Pred>(pred));
    if (nonblocking) {
        metrics::bump(metrics::kLazyFallbacks);
    }
}

/**
 * Record target<mask> = value where the mask is a lazy handle. The two
 * fusable shapes:
 *
 *  - mask is a pending SpMV whose own mask operand *is* target (the
 *    BFS round): the assign is absorbed into the SpMV's per-entry
 *    sink.
 *  - mask is a pending dense-dense eWise op: the assign rides the
 *    element-wise loop (fused_ewise_assign).
 *
 * Complement or replace descriptors never fuse (they need the full
 * output domain, not just produced entries) and fall back to eager.
 */
template <typename MT, typename T>
void
assign_scalar(Vector<MT>& target, LazyVector<T>& mask,
              const Descriptor& desc, MT value)
{
    const bool nonblocking = exec_mode() == ExecMode::kNonBlocking;
    if (nonblocking && mask.pending() && !desc.mask_complement &&
        !desc.replace) {
        auto* node = mask.node();
        if (node->absorb_mask_assign &&
            node->spmv_mask_id == static_cast<const void*>(&target) &&
            node->absorb_mask_assign(
                desc.structural_mask,
                detail::make_assign_sink(target, value))) {
            metrics::bump(metrics::kFusedChains);
            return;
        }
        if (node->absorb_assign &&
            node->absorb_assign(desc.structural_mask,
                                detail::make_assign_sink(target,
                                                         value))) {
            metrics::bump(metrics::kFusedChains);
            return;
        }
    }
    mask.materialize();
    grb::assign_scalar(target, &mask.storage(), desc, value);
    if (nonblocking) {
        metrics::bump(metrics::kLazyFallbacks);
    }
}

/// Monoid reduction (a materialization point by definition).
template <typename Monoid, typename T>
T
reduce(LazyVector<T>& u)
{
    u.materialize();
    return grb::reduce<Monoid>(u.storage());
}

} // namespace lazy

} // namespace gas::grb
