/**
 * @file
 * Intel x86's persistency mechanisms: CLWB ordered by SFENCE
 * (§II-B). Only the Intel x86 design runs on this engine; the other
 * four, NON-ATOMIC included, run on StrandEngine (design.cc).
 *
 * Semantics modeled:
 *  - CLWBs between two SFENCEs may flush concurrently (epoch
 *    concurrency), bounded by the queue capacity.
 *  - SFENCE completes only when all earlier CLWBs have completed and
 *    all earlier stores have drained; until then it stalls issue of
 *    younger stores *and* younger CLWBs (the bidirectional
 *    constraint the paper contrasts against).
 */

#ifndef PERSIST_INTEL_ENGINE_HH
#define PERSIST_INTEL_ENGINE_HH

#include <deque>

#include "persist/persist_engine.hh"

namespace strand
{

class DrainAdversary;

/** Parameters for the Intel-style engine. */
struct IntelEngineParams
{
    /** Outstanding CLWB/SFENCE entries tracked by the core. */
    unsigned queueEntries = 16;
    /** Fuzzing hook (non-owning); null leaves issue order untouched. */
    DrainAdversary *adversary = nullptr;
    /**
     * Test-only fault injection: an SFENCE counts adversarially held
     * CLWBs as already complete, so holding a log-entry flush lets
     * younger stores (and their flushes) persist ahead of it — an
     * ordering bug that exists ONLY under particular adversarial
     * schedules. tests/fuzz/ uses it to prove the fuzzer catches
     * schedule-dependent bugs and that ddmin keeps the causal holds.
     */
    bool plantedEpochBug = false;
};

/**
 * The Intel engine's volatile state: the CLWB/SFENCE queue. IntelEngine
 * derives from it privately (DESIGN.md §6).
 */
struct IntelEngineState
{
    struct Entry
    {
        OpType type = OpType::Clwb;
        Addr addr = 0;
        SeqNum seq = 0;
        SeqNum elderStoreSeq = 0;
        bool issued = false;
        bool completed = false;
        Tick issuedAt = 0;
        /** Adversarial hold on this entry's issue (fuzzing). */
        Tick heldUntil = 0;
    };

    /** In seq order; entries retire from the head. */
    std::deque<Entry> queue;
};

/**
 * The baseline Intel x86 persist engine.
 */
class IntelEngine : public PersistEngine, private IntelEngineState
{
  public:
    IntelEngine(std::string name, EventQueue &eq, CoreId core,
                Hierarchy &hier, const IntelEngineParams &params,
                stats::StatGroup *parent = nullptr);

    bool canAccept() const override;
    void dispatch(const Op &op, SeqNum seq,
                  SeqNum elderStoreSeq) override;
    bool storeMayIssue(SeqNum seq) const override;
    void evaluate() override;
    bool drained() const override;
    std::size_t queueOccupancy() const override;
    DrainPoint recordDrainPoint() const override;
    bool drainedPast(const DrainPoint &point) const override;

    /** @name Statistics @{ */
    stats::Scalar clwbsDispatched;
    stats::Scalar sfencesDispatched;
    stats::Scalar clwbsCompleted;
    stats::Histogram flushLatency;
    /** @} */

  private:
    std::any saveOwnState() const override;
    void restoreOwnState(const std::any &own) override;

    void issueEligible();
    void retire();
    /** Route one flush response (token = CLWB seq). */
    void onMemResponse(const MemResponse &resp);

    CoreId core;
    IntelEngineParams params;
    /** Mailbox to the hierarchy; all CLWB flushes travel here. */
    MemPort port;
};

} // namespace strand

#endif // PERSIST_INTEL_ENGINE_HH
