/**
 * @file
 * The ISA-level operation stream executed by the core timing model.
 *
 * Workload region traces are lowered (per hardware design and
 * language-level persistency model) into streams of these
 * operations. Persist-ordering primitives cover every design studied
 * in the paper: CLWB plus SFENCE (Intel x86), ofence/dfence (HOPS),
 * and persist barrier / NewStrand / JoinStrand (StrandWeaver).
 */

#ifndef CPU_OP_HH
#define CPU_OP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace strand
{

/** Operation kinds in a core's instruction stream. */
enum class OpType : std::uint8_t
{
    Load,           ///< Read a word (address in @c addr).
    Store,          ///< Write @c value to @c addr.
    Clwb,           ///< Flush the line of @c addr toward PM.
    PersistBarrier, ///< StrandWeaver: order persists within a strand.
    NewStrand,      ///< StrandWeaver: begin a new strand.
    JoinStrand,     ///< StrandWeaver: merge prior strands.
    Sfence,         ///< Intel x86: order stores/CLWBs on completion.
    Ofence,         ///< HOPS: lightweight ordering fence (delegated).
    Dfence,         ///< HOPS: durability fence (drain persist buffer).
    Compute,        ///< Busy the pipeline for @c latency cycles.
    LockAcquire,    ///< Acquire lock @c lockId at recorded @c ticket.
    LockRelease,    ///< Release lock @c lockId.
};

/** @return a short mnemonic for tracing. */
const char *opTypeName(OpType type);

/**
 * Design-independent persist-ordering intents, as bits. The lowering
 * annotates each op with the strand-persistency ordering the source
 * program *means* at that point — even when the target design emits
 * no hardware primitive for it (e.g. Intel x86 has no NewStrand op,
 * so the intent rides on the next lowered op). Intents apply
 * immediately before the op, in NewStrand, Join, Barrier order.
 * PMO-san reconstructs the intended PMO relation from these bits and
 * checks the hardware's actual admission order against it.
 */
constexpr std::uint8_t kIntentBarrier = 1;
constexpr std::uint8_t kIntentNewStrand = 2;
constexpr std::uint8_t kIntentJoin = 4;

/** One operation in a thread's stream. */
struct Op
{
    OpType type = OpType::Compute;
    Addr addr = 0;
    std::uint64_t value = 0;
    /** Compute ops: busy cycles. */
    std::uint32_t latency = 1;
    /** Lock ops: which lock and this thread's recorded turn. */
    std::uint32_t lockId = 0;
    std::uint64_t ticket = 0;
    /**
     * Explicit kIntent* bits (set by the lowering). Zero means "use
     * the op type's intrinsic intents" — see effectiveIntents().
     * Non-zero overrides the intrinsic value: a NewStrand op lowered
     * purely as a barrier replacement (NON-ATOMIC pair ordering)
     * carries kIntentBarrier, not its intrinsic NewStrand intent.
     */
    std::uint8_t intents = 0;

    static Op
    load(Addr addr)
    {
        return {OpType::Load, addr, 0, 1, 0, 0};
    }

    static Op
    store(Addr addr, std::uint64_t value)
    {
        return {OpType::Store, addr, value, 1, 0, 0};
    }

    static Op
    clwb(Addr addr)
    {
        return {OpType::Clwb, addr, 0, 1, 0, 0};
    }

    static Op
    persistBarrier()
    {
        return {OpType::PersistBarrier, 0, 0, 1, 0, 0};
    }

    static Op
    newStrand()
    {
        return {OpType::NewStrand, 0, 0, 1, 0, 0};
    }

    static Op
    joinStrand()
    {
        return {OpType::JoinStrand, 0, 0, 1, 0, 0};
    }

    static Op
    sfence()
    {
        return {OpType::Sfence, 0, 0, 1, 0, 0};
    }

    static Op
    ofence()
    {
        return {OpType::Ofence, 0, 0, 1, 0, 0};
    }

    static Op
    dfence()
    {
        return {OpType::Dfence, 0, 0, 1, 0, 0};
    }

    static Op
    compute(std::uint32_t cycles)
    {
        return {OpType::Compute, 0, 0, cycles, 0, 0};
    }

    static Op
    lockAcquire(std::uint32_t lockId, std::uint64_t ticket)
    {
        return {OpType::LockAcquire, 0, 0, 1, lockId, ticket};
    }

    static Op
    lockRelease(std::uint32_t lockId)
    {
        return {OpType::LockRelease, 0, 0, 1, lockId, 0};
    }
};

/**
 * Intrinsic persist-ordering intents of an op type: what the
 * primitive means under the design that natively uses it. SFENCE is
 * both a barrier and a drain point on Intel; dfence is HOPS's drain.
 */
constexpr std::uint8_t
intrinsicIntents(OpType type)
{
    switch (type) {
      case OpType::PersistBarrier:
      case OpType::Ofence:
        return kIntentBarrier;
      case OpType::Sfence:
        return kIntentBarrier | kIntentJoin;
      case OpType::NewStrand:
        return kIntentNewStrand;
      case OpType::JoinStrand:
      case OpType::Dfence:
        return kIntentJoin;
      default:
        return 0;
    }
}

/** @return the op's explicit intents, or the type's intrinsic ones
 *  when the lowering left the field at zero. */
constexpr std::uint8_t
effectiveIntents(const Op &op)
{
    return op.intents ? op.intents : intrinsicIntents(op.type);
}

/** A per-thread sequence of operations. */
using OpStream = std::vector<Op>;

} // namespace strand

#endif // CPU_OP_HH
