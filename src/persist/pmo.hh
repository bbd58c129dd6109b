/**
 * @file
 * Executable formal model of persist memory order (PMO) under strand
 * persistency — Equations 1-4 of §III.
 *
 * Programs are given per thread as sequences of events: persists
 * (PM-writing operations), persist barriers, NewStrand, and
 * JoinStrand. Cross-thread (and cross-strand) visibility order of
 * conflicting accesses is supplied as explicit VMO edges. The model
 * computes the transitive ordering relation:
 *
 *  Eq.1 (intra-strand):  Mx <=v PB <=v My and no NS between Mx and
 *        My implies Mx <=p My.
 *  Eq.2 (inter-strand):  Mx <=v JS <=v My implies Mx <=p My.
 *  Eq.3 (strong persist atomicity): conflicting stores ordered in
 *        VMO are ordered in PMO; same-thread same-address persists
 *        follow program order.
 *  Eq.4 (transitivity).
 *
 * Tests validate both the relation itself (the figure-2 litmus
 * tests) and that simulated persist traces are linear extensions of
 * PMO.
 */

#ifndef PERSIST_PMO_HH
#define PERSIST_PMO_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/** Kinds of events in a PMO program. */
enum class PmoEvent : std::uint8_t
{
    Persist,
    Barrier,
    NewStrand,
    JoinStrand,
};

/** One event in one thread of a PMO program. */
struct PmoOp
{
    PmoEvent kind = PmoEvent::Persist;
    Addr addr = 0;
    /** Unique id for persists; ignored for primitives. */
    std::uint64_t id = 0;

    static PmoOp
    persist(std::uint64_t id, Addr addr)
    {
        return {PmoEvent::Persist, addr, id};
    }

    static PmoOp barrier() { return {PmoEvent::Barrier, 0, 0}; }
    static PmoOp newStrand() { return {PmoEvent::NewStrand, 0, 0}; }
    static PmoOp joinStrand() { return {PmoEvent::JoinStrand, 0, 0}; }
};

/**
 * A multi-threaded program over persist events plus explicit VMO
 * edges between conflicting persists on different threads or
 * strands.
 */
struct PmoProgram
{
    std::vector<std::vector<PmoOp>> threads;
    /** (earlier id, later id) visibility edges for conflicts. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> vmoEdges;
};

/**
 * The computed persist memory order for one program.
 */
class PmoModel
{
  public:
    explicit PmoModel(const PmoProgram &program);

    /** @return true if persist @p a must persist before @p b. */
    bool orderedBefore(std::uint64_t a, std::uint64_t b) const;

    /** @return true if neither order is required. */
    bool
    concurrent(std::uint64_t a, std::uint64_t b) const
    {
        return !orderedBefore(a, b) && !orderedBefore(b, a);
    }

    /** A violation found while checking an observed trace. */
    struct Violation
    {
        std::uint64_t first;  ///< Must persist first...
        std::uint64_t second; ///< ...but was observed after this.
    };

    /**
     * Check that @p observed (persist ids in completion order; may
     * omit persists that never completed, e.g. due to a crash) is a
     * linear extension of PMO. A persist missing from the trace must
     * not have PMO successors in the trace.
     *
     * @return the first violation found, or nullopt.
     */
    std::optional<Violation>
    checkTrace(const std::vector<std::uint64_t> &observed) const;

  private:
    std::size_t indexOf(std::uint64_t id) const;

    std::vector<std::uint64_t> ids;
    /** orderedMatrix[a][b] == true means a <=p b (a before b). */
    std::vector<std::vector<bool>> ordered;
};

} // namespace strand

#endif // PERSIST_PMO_HH
