#pragma once

/**
 * @file
 * Semirings, monoids, and operator functors for the matrix API.
 *
 * A semiring supplies the generalized "add" (a commutative monoid with
 * an identity) and "multiply" used by vxm/mxv/mxm. The set here covers
 * every semiring the six LAGraph workloads need:
 *
 *   bfs     LorLand        (reachability)
 *   sssp    MinPlus        (distance relaxation)
 *   cc      MinSecond      (minimum neighbor label)
 *   pr      PlusSecond     (in-neighbor contribution sums; A's
 *                          pattern only)
 *   tc      PlusPair       (intersection counting)
 *   ktruss  PlusPair       (edge support counting)
 */

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>

namespace gas::grb {

/// Conventional "plus times" arithmetic semiring.
template <typename T>
struct PlusTimes
{
    using Value = T;
    static constexpr T identity() { return T{0}; }
    static constexpr T add(T a, T b) { return a + b; }
    static constexpr T mul(T a, T b) { return a * b; }
    /// True if add(identity, x) == x can never change a slot holding x
    /// (lets kernels skip writing identities). Plus: yes.
    static constexpr bool add_is_min = false;
};

/// Tropical semiring for shortest paths: add = min, mul = plus.
template <typename T>
struct MinPlus
{
    using Value = T;
    static constexpr T identity() { return std::numeric_limits<T>::max(); }
    static constexpr T add(T a, T b) { return std::min(a, b); }
    static constexpr T
    mul(T a, T b)
    {
        // Saturating add so identity() propagates like +infinity.
        const T inf = std::numeric_limits<T>::max();
        if (a == inf || b == inf || a > inf - b) {
            return inf;
        }
        return a + b;
    }
    static constexpr bool add_is_min = true;
};

/// Boolean reachability semiring: add = logical or, mul = logical and.
struct LorLand
{
    using Value = uint8_t;
    static constexpr uint8_t identity() { return 0; }
    static constexpr uint8_t add(uint8_t a, uint8_t b)
    {
        return (a != 0 || b != 0) ? 1 : 0;
    }
    static constexpr uint8_t mul(uint8_t a, uint8_t b)
    {
        return (a != 0 && b != 0) ? 1 : 0;
    }
    static constexpr bool add_is_min = false;
    /// OR saturates at 1: once an accumulator holds the absorbing
    /// element no further add can change it, so row scans may stop at
    /// the first hit (the "any"-monoid early exit of mxv/mxv_sparse).
    static constexpr uint8_t absorbing() { return 1; }
};

/// True when @p S declares an absorbing element for its add monoid
/// (an accumulator holding it can never change again), enabling the
/// early-exit row scan in the pull kernels.
template <typename S>
concept HasAbsorbing = requires {
    { S::absorbing() } -> std::convertible_to<typename S::Value>;
};

/**
 * Semiring adapter that swaps the multiply's argument order.
 *
 * vxm computes mul(u(i), A(i,j)) while mxv computes mul(A(i,j), u(j));
 * a dispatcher that reroutes w = u*A onto mxv over the transpose must
 * therefore flip non-commutative multiplies (MinFirst <-> MinSecond) to
 * keep the scalar arguments in the order the caller wrote.
 */
template <typename S>
struct FlipMul
{
    using Value = typename S::Value;
    static constexpr Value identity() { return S::identity(); }
    static constexpr Value add(Value a, Value b) { return S::add(a, b); }
    static constexpr Value mul(Value a, Value b) { return S::mul(b, a); }
    static constexpr bool add_is_min = S::add_is_min;
    static constexpr Value absorbing()
        requires HasAbsorbing<S>
    {
        return S::absorbing();
    }
};

/// add = min, mul = second argument (minimum neighbor label).
template <typename T>
struct MinSecond
{
    using Value = T;
    static constexpr T identity() { return std::numeric_limits<T>::max(); }
    static constexpr T add(T a, T b) { return std::min(a, b); }
    static constexpr T mul(T, T b) { return b; }
    static constexpr bool add_is_min = true;
    static constexpr bool mul_is_second = true;
};

/// add = min, mul = first argument.
template <typename T>
struct MinFirst
{
    using Value = T;
    static constexpr T identity() { return std::numeric_limits<T>::max(); }
    static constexpr T add(T a, T b) { return std::min(a, b); }
    static constexpr T mul(T a, T) { return a; }
    static constexpr bool add_is_min = true;
};

/// add = plus, mul = constant one (counts matching pairs; the ANY_PAIR
/// style semiring triangle counting uses).
template <typename T>
struct PlusPair
{
    using Value = T;
    static constexpr T identity() { return T{0}; }
    static constexpr T add(T a, T b) { return a + b; }
    static constexpr T mul(T, T) { return T{1}; }
    static constexpr bool add_is_min = false;
};

/// add = plus, mul = second argument (LAGraph's PLUS_SECOND: sums
/// u over A's pattern, so pagerank's pull never reads A's values).
template <typename T>
struct PlusSecond
{
    using Value = T;
    static constexpr T identity() { return T{0}; }
    static constexpr T add(T a, T b) { return a + b; }
    static constexpr T mul(T, T b) { return b; }
    static constexpr bool add_is_min = false;
    static constexpr bool mul_is_second = true;
};

/// True when @p S declares that mul(a, b) is b and never reads a. The
/// pull kernels compute mul(A(i,j), u(j)), so for such a semiring they
/// treat A as a pattern and never load its values.
template <typename S>
concept MulIsSecond = requires { requires S::mul_is_second; };

// ---------------------------------------------------------------------
// Monoids (for reduce and eWiseAdd) and binary ops (for eWise).
// ---------------------------------------------------------------------

template <typename T>
struct PlusMonoid
{
    using Value = T;
    static constexpr T identity() { return T{0}; }
    static constexpr T add(T a, T b) { return a + b; }
};

template <typename T>
struct MinMonoid
{
    using Value = T;
    static constexpr T identity() { return std::numeric_limits<T>::max(); }
    static constexpr T add(T a, T b) { return std::min(a, b); }
};

template <typename T>
struct MaxMonoid
{
    using Value = T;
    static constexpr T identity()
    {
        return std::numeric_limits<T>::lowest();
    }
    static constexpr T add(T a, T b) { return std::max(a, b); }
};

struct LorMonoid
{
    using Value = uint8_t;
    static constexpr uint8_t identity() { return 0; }
    static constexpr uint8_t add(uint8_t a, uint8_t b)
    {
        return (a != 0 || b != 0) ? 1 : 0;
    }
};

struct LandMonoid
{
    using Value = uint8_t;
    static constexpr uint8_t identity() { return 1; }
    static constexpr uint8_t add(uint8_t a, uint8_t b)
    {
        return (a != 0 && b != 0) ? 1 : 0;
    }
};

} // namespace gas::grb
