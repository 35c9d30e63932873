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
 * Recognized chains (all counted by kFusedChains). Only one needs a
 * kernel of its own; the others run the eager kernel with a per-entry
 * sink or a recycle buffer (ops_spmv.h, ops_vector.h):
 *
 *  - dispatch_spmv/mxv + apply        -> per-entry transform in the
 *                                        SpMV kernel's sink
 *  - dispatch_spmv/mxv + assign_scalar masked by the SpMV output into
 *    the SpMV's own mask vector (the BFS round) -> assign in the sink
 *  - eWiseMult/eWiseAdd (dense-dense) + assign_scalar masked by the
 *    result                           -> assign in the eWise kernel's
 *                                        sink
 *  - eWiseMult + select_entries       -> ewise_mult_select
 *  - eWiseMult (dense-dense) feeding mxv's operand -> the producer is
 *    subsumed; ewise_mult builds its product in the operand handle's
 *    recycled spare buffer, never in a freshly allocated intermediate
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
 * In blocking mode the recorders execute the node as they attach it,
 * so nothing is ever absorbed, and hand the kernels no recycle buffer:
 * blocking mode is the eager ops, counter for counter. The same source
 * thus runs either mode; the lazy-vs-eager equivalence suite exploits
 * this, and each eager matrix-API baseline (la::bfs_auto,
 * la::sssp_delta, la::pagerank_residual) shares its lazy twin's loop.
 */

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "matrix/lazy_registry.h"
#include "matrix/ops_dispatch.h"
#include "matrix/ops_vector.h"
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

/// Mutable per-entry plan of a pending sink node; absorb hooks rewrite
/// it until the node runs.
template <typename T>
struct SinkState
{
    std::function<T(T)> transform;
    bool has_assign{false};
    bool assign_structural{false};
    AssignSink sink;
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
    /// The operands of a pending dense-dense eWiseMult, exposed so mxv
    /// can subsume the producer into its operand.
    struct DenseMult
    {
        const Vector<T>* u;
        const Vector<T>* v;
        std::function<T(T, T)> fn;
    };

    bool done{false};
    std::function<void()> run;

    std::function<bool(std::function<T(T)>)> absorb_transform;
    /// Offer target<this node's output> = value, with the target's
    /// identity (its address) so the node can decide whether to accept.
    std::function<bool(const void*, bool, AssignSink)> absorb_assign;
    std::function<bool(LazyVector<T>*, std::function<bool(Index, T)>)>
        absorb_select;
    std::optional<DenseMult> dense_mult;

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
 * A pending node whose run() calls @p kernel(sink), shared by the SpMV
 * and element-wise recorders. The per-entry sink applies an absorbed
 * transform and then an absorbed assign, the assign's prepare/finish
 * bracket the kernel, and the absorb hooks rewrite the plan until the
 * node runs. @p accepts_assign(target) is asked before an assign into
 * @p target is absorbed; it may commit the node's own plan when it
 * returns true.
 */
template <typename T, typename Kernel, typename Accept>
std::shared_ptr<LazyNode<T>>
make_sink_node(Kernel kernel, Accept accepts_assign)
{
    auto state = std::make_shared<SinkState<T>>();
    auto node = std::make_shared<LazyNode<T>>();
    node->run = [state, kernel = std::move(kernel)]() {
        if (!state->transform && !state->has_assign) {
            kernel(NoSink{}); // nothing absorbed: the eager op's kernel
            return;
        }
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
    node->absorb_assign = [state, np = node.get(),
                           accepts = std::move(accepts_assign)](
                              const void* target, bool structural,
                              AssignSink sink) {
        if (state->has_assign || !accepts(target)) {
            return false;
        }
        state->has_assign = true;
        state->assign_structural = structural;
        state->sink = std::move(sink);
        // The assign's side effect rides this node now: a consumer
        // that subsumed it would drop the assign.
        np->dense_mult.reset();
        return true;
    };
    return node;
}

} // namespace detail

/**
 * A vector handle whose contents may be an unevaluated expression.
 *
 * Owns the materialized value, a spare buffer the SpMV kernels
 * recycle round over round in non-blocking mode (the main source of
 * its kBytesMaterialized savings), and at most one pending node. All
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

    /// The kernel's recycle buffer, decided at record time: none in
    /// blocking mode, which allocates every output fresh as eager does.
    Vector<T>*
    recycle_buffer()
    {
        return exec_mode() == ExecMode::kNonBlocking ? &spare_ : nullptr;
    }

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
    /// spot, before any later recording could be absorbed into it, so
    /// the node runs exactly the eager op.
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
    Vector<T>* recycle = w.recycle_buffer();
    auto node = detail::make_sink_node<T>(
        [dp, wp, up, mask, desc, recycle](const auto& sink) {
            dp->template dispatch_spmv<Semiring>(wp->storage(), mask, desc,
                                                 *up, sink, recycle);
        },
        // Only an assign into the SpMV's own mask fuses (the BFS round).
        [mask](const void* target) { return target == mask; });
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
    Vector<T>* recycle = w.recycle_buffer();
    auto node = detail::make_sink_node<T>(
        [wp, up, ap, mask, desc, recycle,
         mult = std::move(mult)](const auto& sink) {
            if (!mult.has_value()) {
                grb::mxv<Semiring>(wp->storage(), mask, desc, *ap,
                                   up->storage(), sink, recycle);
                return;
            }
            // The subsumed producer's product, built in u's spare
            // buffer (which charges only its growth) and handed back
            // after the pull kernel: the kernel reads plain dense
            // arrays (a per-edge type-erased multiply was measured
            // slower than this one extra vertex-sized pass).
            Vector<T> operand;
            grb::ewise_mult(operand, *mult->u, *mult->v, mult->fn,
                            NoSink{}, &up->spare());
            grb::mxv<Semiring>(wp->storage(), mask, desc, *ap, operand,
                               sink, recycle);
            up->spare() = std::move(operand);
        },
        [mask](const void* target) { return target == mask; });
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
    // A node absorbs at most one consumer: an assign (into its sink),
    // a select (retargeting it to ewise_mult_select) or an mxv (which
    // subsumes a still-plain dense_mult node).
    struct Plan
    {
        bool plain{true};
        std::function<bool(Index, T)> pred;
        LazyVector<T>* select_out{nullptr};
    };
    auto plan = std::make_shared<Plan>();
    LazyVector<T>* wp = &w;
    const Vector<T>* up = &u;
    const Vector<T>* vp = &v;
    const bool dense_dense = u.format() == VectorFormat::kDense &&
        v.format() == VectorFormat::kDense;
    auto node = detail::make_sink_node<T>(
        [plan, wp, up, vp, fn, intersection,
         dense_dense](const auto& sink) {
            if (plan->select_out != nullptr) {
                grb::ewise_mult_select(plan->select_out->storage(), *up,
                                       *vp, fn, plan->pred);
            } else if (intersection) {
                grb::ewise_mult(wp->storage(), *up, *vp, fn, sink);
            } else {
                // Sparse operands run with NoSink: only dense ones assign.
                grb::ewise_add(wp->storage(), *up, *vp, fn, sink);
            }
        },
        [plan, dense_dense](const void*) {
            if (!plan->plain || !dense_dense) {
                return false;
            }
            plan->plain = false;
            return true;
        });
    // A transform stays unfused: the eWise chain list has no apply.
    node->absorb_transform = nullptr;
    if (intersection) {
        if (dense_dense) {
            node->dense_mult =
                typename detail::LazyNode<T>::DenseMult{up, vp, fn};
        }
        node->absorb_select =
            [plan, wp, np = node.get()](LazyVector<T>* out,
                                        std::function<bool(Index, T)> pred) {
                if (!plan->plain || out == wp) {
                    return false;
                }
                plan->plain = false;
                plan->pred = std::move(pred);
                plan->select_out = out;
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
 * Record target<mask> = value where the mask is a lazy handle. A
 * pending mask node is offered the assign once, and decides:
 *
 *  - an SpMV node accepts an assign into its own mask vector (the BFS
 *    round), which then runs in the SpMV kernel's sink.
 *  - a dense-dense eWise node accepts while it has absorbed nothing
 *    else; the assign runs in ewise_mult's or ewise_add's sink.
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
        !desc.replace && mask.node()->absorb_assign &&
        mask.node()->absorb_assign(static_cast<const void*>(&target),
                                   desc.structural_mask,
                                   detail::make_assign_sink(target,
                                                            value))) {
        metrics::bump(metrics::kFusedChains);
        return;
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
