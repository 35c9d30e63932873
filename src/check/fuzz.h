#pragma once

/**
 * @file
 * Schedule fuzzer for the checked (GAS_CHECK) build.
 *
 * The shadow-memory detector (check/shadow.h) flags conflicting
 * accesses that *execute in the same parallel region*, independent of
 * their actual interleaving — but which accesses execute at all, and on
 * which thread, still depends on the schedule: a racy operator whose
 * work items all land on one thread is invisible. The fuzzer perturbs
 * the scheduler at its decision points so tests explore adversarial
 * interleavings:
 *
 *  - random yields / bounded spins at push, pop, and steal boundaries
 *    (and at InsertBag::push / Reducer::update), widening the windows
 *    in which operators overlap;
 *  - shuffled victim order in for_each's steal sweep, so work migrates
 *    along different thread pairs each attempt;
 *  - forced steal failures (a thief skips a loaded victim, or an OBIM
 *    scan skips a bin), exercising retry and termination paths.
 *
 * Every decision is drawn from a per-thread splitmix64 stream seeded by
 * (global seed, pool thread id), so each thread's decision sequence is
 * a pure function of the seed — rerunning with the same seed replays
 * the same perturbation schedule. Seed 0 (the default) disables all
 * perturbation; the GAS_CHECK_SEED environment variable or
 * fuzz::set_seed() enables it, and every race report names the active
 * seed for replay.
 *
 * In unchecked builds every hook is an inline empty function, so the
 * scheduler hot paths carry no fuzzing cost.
 */

#include <cstdint>

namespace gas::check::fuzz {

/// Scheduler decision points that accept a perturbation.
enum class Site : uint8_t {
    kDequePush,  ///< UserContext::push, before the deque insert
    kDequePop,   ///< for_each, between pop and operator application
    kStealSweep, ///< for_each, entering the steal sweep
    kObimPush,   ///< ObimWorklist::push, before the bin insert
    kObimPop,    ///< ObimWorklist::pop_batch, entering the bin scan
    kObimCursor, ///< ObimWorklist::pop_batch, between a bin pop and
                 ///< the cursor CAS
    kBagPush,    ///< InsertBag::push
    kReduce,     ///< Reducer::update
};

#if defined(GAS_CHECK_ENABLED)

/// Install the fuzzer seed (0 disables perturbation). Takes effect on
/// each thread at its next decision point.
void set_seed(uint64_t seed);

/// The active seed (0 when perturbation is off).
uint64_t seed();

/// True when a nonzero seed is installed.
bool active();

/// Maybe yield or spin at @p site (deterministic per-thread stream).
void maybe_yield(Site site);

/// Victim offset for steal sweep step @p step: the identity (step)
/// when inactive, otherwise a pseudo-random offset in [1, total).
unsigned victim_offset(unsigned total, unsigned step);

/// True when the fuzzer wants this steal/scan attempt to give up
/// before touching the victim.
bool force_steal_fail();

#else // !GAS_CHECK_ENABLED ------------------------------------------------

inline void set_seed(uint64_t) {}
inline uint64_t seed() { return 0; }
inline bool active() { return false; }
inline void maybe_yield(Site) {}
inline unsigned victim_offset(unsigned, unsigned step) { return step; }
inline bool force_steal_fail() { return false; }

#endif // GAS_CHECK_ENABLED

} // namespace gas::check::fuzz
