/**
 * @file
 * The coherent cache hierarchy: per-core L1 data caches, a shared
 * inclusive L2, MESI snooping between the L1s, MSHRs, write-back
 * buffers with persist interlocks, and routing to the PM and DRAM
 * controllers.
 *
 * Geometry and latencies default to Table I of the paper: 32 KiB
 * 2-way L1 (2 ns hit, 6 MSHRs), 28 MiB 16-way shared L2 (16 ns hit,
 * 16 MSHRs).
 *
 * The hierarchy is tag-only: functional data lives in the global
 * MemoryImage; a line's content is snapshotted from the image at the
 * moment it departs toward a memory controller (CLWB flush or dirty
 * eviction), which matches the content of the unique dirty copy.
 *
 * Persistency hooks (§IV of the paper):
 *  - Departing dirty L1 lines record a drain point in the owning
 *    core's persist engine and wait for it in the write-back buffer.
 *  - Read-exclusive snoops that hit a dirty remote L1 line stall
 *    until that core's persist engine drains past the point recorded
 *    when the snoop arrived.
 */

#ifndef CACHE_HIERARCHY_HH
#define CACHE_HIERARCHY_HH

#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/writeback_buffer.hh"
#include "core/observer.hh"
#include "mem/mem_controller.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"

namespace strand
{

class DrainAdversary;

/** Cache hierarchy parameters (Table I defaults). */
struct HierarchyParams
{
    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Ways = 2;
    unsigned l1Mshrs = 6;
    Tick l1Latency = nsToTicks(2);

    std::uint64_t l2Size = 28 * 1024 * 1024;
    unsigned l2Ways = 16;
    unsigned l2Mshrs = 16;
    Tick l2Latency = nsToTicks(16);

    /** Snoop/arbitration overhead for bus transactions. */
    Tick snoopLatency = nsToTicks(4);

    unsigned writebackEntries = 8;
    /** Pending dirty L2 evictions allowed before fills stall. */
    unsigned l2EvictEntries = 16;
    /**
     * Enable the §IV persist interlocks (write-back drain points and
     * read-exclusive snoop stalls). Disabling them is an ablation:
     * faster coherence, but inter-thread persist order (Fig. 2 i,j)
     * is no longer guaranteed.
     */
    bool persistInterlocks = true;
    /**
     * Fuzzing hook (non-owning): when set, the write-back drain path
     * consults the adversary before draining an eligible entry, so a
     * fuzz trial can delay write-backs within what the interlocks
     * already permit. Null leaves the drain path untouched.
     */
    DrainAdversary *adversary = nullptr;
};

/**
 * The hierarchy's volatile state: everything but the tag arrays,
 * which capture themselves (CacheArray::State). Hierarchy derives
 * from it privately, so this one struct is both the live state and
 * the value Hierarchy::saveState() captures (DESIGN.md §6). MSHR
 * waiters, packets, write-backs and pending evictions are plain data
 * (a waiter or a CLWB write names its reply port, a write-back or an
 * eviction the drain point it waits for); the one closure it still
 * holds, a parked attempt, references only the hierarchy and
 * immutable values, so a copy stays valid when restored into the
 * machine it came from.
 */
struct HierarchyState
{
    /** A coherence transaction parked on a busy resource. */
    struct Parked
    {
        std::function<bool()> attempt; ///< true = made progress, unpark
    };

    /** One core's L1 state besides its tags. */
    struct L1
    {
        explicit L1(unsigned writebackEntries)
            : writebacks(writebackEntries)
        {
        }

        WritebackBuffer writebacks;
        /** Adversarial hold on the write-back drain (fuzzing). */
        Tick wbHeldUntil = 0;
        /** Outstanding misses keyed by line address. */
        struct Mshr
        {
            /** One merged request, answered Done when the fill lands;
             * a store first retires into the filled line. */
            struct Waiter
            {
                Reply reply;
                bool store = false;
                Addr addr = 0;
                std::uint64_t value = 0;
            };
            static_assert(std::is_trivially_copyable_v<Waiter>);

            bool exclusive = false;
            std::vector<Waiter> waiters;
        };
        std::unordered_map<Addr, Mshr> mshrs;
    };

    /**
     * Per-line FIFO of flush writes awaiting controller admission.
     * At most one write per line is in the mail at a time (inFlight);
     * the next departs when its predecessor's Ack returns, a Nack
     * leaves the head queued for the next kick.
     */
    struct LineSendQueue
    {
        std::deque<PacketPtr> queue;
        bool inFlight = false;
    };

    /** A dirty line on its way to memory; it departs once @p owner's
     * persist engine drains past @p point (§IV). */
    struct PendingEvict
    {
        Addr lineAddr = 0;
        LineData data;
        CoreId owner = 0;
        DrainPoint point;
    };
    static_assert(std::is_trivially_copyable_v<PendingEvict>);

    std::vector<L1> cores;
    unsigned l2MissesInFlight = 0;

    /** Lines with an active coherence transaction. */
    std::unordered_set<Addr> busyLines;

    std::unordered_map<Addr, LineSendQueue> lineSendQueues;

    /** Memory reads a controller refused; each keeps its L2 MSHR
     * claim and is remailed when queue space frees. */
    std::vector<PacketPtr> nackedReads;
    /** When a controller last reported freed queue space. */
    Tick lastQueueFreed = 0;

    std::deque<PendingEvict> pendingL2Evicts;
    /** Head of pendingL2Evicts is in the mail, awaiting Ack/Nack. */
    bool evictInFlight = false;

    std::deque<Parked> parked;
    unsigned activeTransactions = 0;
    std::uint64_t nextPacketId = 1;
};

/**
 * The complete coherent cache subsystem for one simulated machine.
 *
 * CPU-side access is exclusively through MemPorts: cores and persist
 * engines mail Load/Store/Flush/Kick requests and receive
 * Ack/Nack/FlushStarted/Done responses one port leg later. The
 * hierarchy in turn owns one port per memory controller for its own
 * fills and persists, so every admission decision in the machine is
 * an explicit asynchronous response, never a same-tick return value.
 * It is both controllers' MemClient: a finished fill or CLWB write
 * comes back from the controller's own event and is routed by the
 * packet's fields, the flush by the reply the packet carries.
 */
class Hierarchy : public SimObject,
                  public MemResponder,
                  private MemClient,
                  private HierarchyState
{
  public:
    Hierarchy(std::string name, EventQueue &eq, MemoryImage &image,
              unsigned numCores, const HierarchyParams &params,
              MemController &pmCtrl, MemController &dramCtrl,
              stats::StatGroup *parent = nullptr);

    /** Install @p core's persist engine, whose drain points blocked
     * write-backs, evictions and snoops wait for (§IV). A core
     * without one never waits. */
    void
    setPersistDrain(CoreId core, const PersistDrain &drain)
    {
        drains.at(core) = &drain;
    }

    /** Attach the system's observer hub (VMO conflict edges). */
    void setObserverHub(ObserverHub *hub) { obsHub = hub; }

    /**
     * Install the lines covering [start, end) into the L2 as clean
     * copies. Models steady-state cache residency of long-lived
     * structures (log buffers, preloaded tables) without simulating
     * a warm-up phase.
     */
    void prewarmL2(Addr start, Addr end);

    /** Adopt @p tags as the L2 tag state, sharing their blocks
     * (machine seeds). */
    void
    adoptL2Tags(const CacheArray::State &tags)
    {
        l2.restoreState(tags);
    }

    /**
     * Service one mailed request, from the shared domain's event
     * stream:
     *  - Load: Nack if no MSHR is available (requester retries);
     *    otherwise Done(token) when data is available.
     *  - Store: Nack if no MSHR (retry), else Ack(token) at
     *    admission and Done(token) when the store is written into
     *    the (exclusively owned) L1 line; the architectural image is
     *    updated at that point.
     *  - Flush: always absorbed (internal queuing hides controller
     *    back-pressure); FlushStarted(token) when the cache read
     *    happens, then Done(token, wrotePm) — wrotePm true at the
     *    ADR ack of a dirty line, false after a clean lookup.
     *  - Kick: response-less doorbell; re-evaluates parked work.
     */
    void handleRequest(MemPort &port, const MemRequest &req) override;

    /**
     * Re-evaluate parked work (blocked write-backs, stalled snoops,
     * deferred fills). Persist engines ring it through a Kick when
     * their buffers drain; controllers schedule it when queue space
     * frees.
     */
    void kick();

    /** @return true when no transactions are in flight. */
    bool
    idle() const
    {
        return activeTransactions == 0 && parked.empty() &&
               pendingL2Evicts.empty() && writebacksPending() == 0;
    }

    /** A capture: the volatile state and every tag array's blocks. */
    struct Snapshot
    {
        HierarchyState state;
        std::vector<CacheArray::State> l1Tags;
        CacheArray::State l2Tags;
    };

    /** Capture / restore the whole hierarchy. Restore targets the
     * machine the capture was taken from. */
    Snapshot saveState() const;
    void restoreState(const Snapshot &snap);

    /**
     * The work still waiting, for the report when a run stalls: each
     * pending L2 eviction and each write-back head, with its owner
     * core and whether its drain point has passed, and the parked and
     * refused transactions.
     */
    std::string describeWaitingWork() const;

    /** @name Introspection for tests @{ */
    CoherenceState l1State(CoreId core, Addr addr) const;
    bool l1Dirty(CoreId core, Addr addr) const;
    CoherenceState l2State(Addr addr) const;
    bool l2Dirty(Addr addr) const;
    std::size_t writebacksPending() const;
    /** @} */

    /** @name Statistics @{ */
    stats::Scalar loadHits;
    stats::Scalar loadMisses;
    stats::Scalar storeHits;
    stats::Scalar storeMisses;
    stats::Scalar upgrades;
    stats::Scalar cacheToCache;
    stats::Scalar l1Writebacks;
    stats::Scalar l2Evictions;
    stats::Scalar flushesDirty;
    stats::Scalar flushesClean;
    stats::Scalar snoopStalls;
    stats::Scalar writebackStalls;
    /** @} */

  private:
    /** @name Port request servicing (one per MemRequestKind) @{ */

    /** @return false if no MSHR is available (the caller Nacks). */
    bool startLoad(CoreId core, Addr addr, Reply reply);

    /** @return false if no MSHR is available (the caller Nacks). */
    bool startStore(CoreId core, Addr addr, std::uint64_t value,
                    Reply reply);

    /** Always accepted; see handleRequest() for the response shape. */
    void startFlush(CoreId core, Addr addr, Reply reply);

    /** @} */

    /** A store retires into @p core's owned L1 line: the line turns
     * Modified and the architectural image takes the value. */
    void retireStore(CoreId core, Addr addr, std::uint64_t value);

    /** @name MemClient: controller completions @{ */

    /** A memory read parks its fill; a CLWB write answers its flush
     * Done(wrotePm); a write-back owes no reply. */
    void packetDone(const Packet &pkt) override;
    /** Remail every refused read and retry the parked work. */
    void queueFreed() override;

    /** @} */

    /** Begin a miss transaction; assumes MSHR already allocated. */
    void startMiss(CoreId core, Addr lineAddr, bool exclusive);

    /** Snoop remote L1s and the L2, fill, and complete the MSHR. */
    void serviceMiss(CoreId core, Addr lineAddr, bool exclusive);

    /** Complete an MSHR: install the line and run waiters. */
    void finishFill(CoreId core, Addr lineAddr, bool exclusive,
                    CoherenceState fillState);

    /** Install @p lineAddr into @p core's L1, evicting as needed.
     * @return false if the eviction is blocked (write-back full). */
    bool installLine(CoreId core, Addr lineAddr,
                     CoherenceState state);

    /** Move a dirty departing L1 line into its write-back buffer. */
    void pushWriteback(CoreId core, Addr lineAddr);

    /** Ensure the line exists in L2 (inclusive fill from memory). */
    bool installLineL2(Addr lineAddr);

    /** Evict a dirty L2 line toward the right controller once
     * @p owner drains past @p point. */
    void queueL2Evict(Addr lineAddr, CoreId owner = 0,
                      DrainPoint point = {});

    /** Try to send pending L2 evictions to the controllers. */
    void drainL2Evicts();

    /** Drain eligible write-backs from every L1 into the L2. */
    void drainWritebacks();

    /** Record a drain point with @p core's persist engine; the zero
     * point when the interlocks are off. */
    DrainPoint recordDrainPoint(CoreId core) const;

    /** @return true once @p core's persist engine has drained past
     * @p point. */
    bool drainedPast(CoreId core, const DrainPoint &point) const;

    /** The port toward the controller that owns @p addr. */
    MemPort &portFor(Addr addr);

    /** Mail @p pkt to its controller as a Packet request. */
    void sendToController(PacketPtr pkt);

    /** Route a controller Ack/Nack by the packet it carries. */
    void onControllerResponse(const MemResponse &resp);

    void park(std::function<bool()> attempt);
    void scheduleKick();

    /** Send one line's PM writes in snapshot order even across
     * controller back-pressure retries (strong persist atomicity:
     * a stale snapshot must never overwrite a fresher one). */
    void sendLineWrite(Addr lineAddr, PacketPtr pkt);
    void drainLineWrites(Addr lineAddr);
    /** Pump every line queue; kick() calls this on controller retry. */
    void drainAllLineWrites();

    MemoryImage &image;
    HierarchyParams params;
    MemController &pmCtrl;
    MemController &dramCtrl;

    /** Mailboxes toward the two memory controllers. */
    MemPort pmPort;
    MemPort dramPort;

    /** Per-core L1 tags and persist engines (null: never waits). */
    std::vector<CacheArray> l1Tags;
    std::vector<const PersistDrain *> drains;
    CacheArray l2;

    ObserverHub *obsHub = nullptr;
    /** Retry/drain pump; armed at most once per tick. */
    EventQueue::Recurring kickEvent;
    /** Prebuilt adversary-hold retry; built once, borrowed per query. */
    EventQueue::Callback retryKick;
};

} // namespace strand

#endif // CACHE_HIERARCHY_HH
