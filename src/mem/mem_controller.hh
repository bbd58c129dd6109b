/**
 * @file
 * Memory controllers for persistent memory and DRAM.
 *
 * Both controllers share a banked row-buffer timing model with
 * bounded read/write queues. The PM controller additionally models
 * the ADR (asynchronous data refresh) persist domain: a write is
 * durable — and is acknowledged — once it is admitted to the
 * controller, which is when its data is applied to the persisted view
 * of the memory image. Media writes drain asynchronously and only
 * affect back-pressure.
 *
 * Timing follows Table I of the paper (values from the Izraelevitz et
 * al. Optane characterization): 346 ns PM read, 96 ns write latency
 * to the controller, 500 ns write latency to the PM media, 1 KiB row
 * buffer, 64/32-entry write/read queues.
 */

#ifndef MEM_MEM_CONTROLLER_HH
#define MEM_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"

namespace strand
{

/** Timing and capacity parameters for a memory controller. */
struct MemControllerParams
{
    unsigned readQueueEntries = 32;
    unsigned writeQueueEntries = 64;
    /** Aggregate bank-level parallelism across the PM DIMMs. */
    unsigned banks = 24;
    Addr rowBytes = 1024;
    /** Device read access, row-buffer miss / hit. */
    Tick readLatency = nsToTicks(346);
    Tick readRowHitLatency = nsToTicks(170);
    /** Request transit + admission into the controller (ADR point). */
    Tick writeAcceptLatency = nsToTicks(96);
    /** Media program time, row-buffer miss / hit. */
    Tick mediaWriteLatency = nsToTicks(500);
    Tick mediaWriteRowHitLatency = nsToTicks(200);
    /**
     * How long an access keeps its bank busy (bandwidth), as opposed
     * to the end-to-end latency above, which includes controller and
     * transit time that pipelines across banks.
     */
    Tick readOccupancy = nsToTicks(60);
    /**
     * Sequential 64-byte writes to an open row coalesce in the
     * controller's write-combining buffers (Optane's 256-byte
     * XPLine), so the effective per-line occupancy of a row hit is
     * far below a full media program.
     */
    Tick writeOccupancy = nsToTicks(60);
    Tick writeRowHitOccupancy = nsToTicks(15);
};

/** DRAM-ish defaults for the volatile controller. */
MemControllerParams dramControllerParams();

/**
 * A controller's volatile state: the banks and the pooled in-flight
 * request slots. MemController derives from it privately (DESIGN.md
 * §6). Slots are named by index; each has one completion event,
 * bound at construction, that stays outside this struct. Each pool
 * holds exactly its queue's entry limit, so a request is in flight
 * exactly while it holds a slot. Packets are immutable once
 * submitted, so a copy shares them with the live run.
 */
struct MemControllerState
{
    struct Bank
    {
        Tick freeAt = 0;
        Addr openRow = ~static_cast<Addr>(0);
    };

    /** Write slots step through ADR admission, then media program. */
    struct WriteSlot
    {
        PacketPtr pkt;
        bool inMedia = false;
    };

    std::vector<Bank> banks;

    /** In-flight packet per read slot (null when free). */
    std::vector<PacketPtr> readSlots;
    std::vector<WriteSlot> writeSlots;
    /** Free slot indices; the back is acquired next. */
    std::vector<std::size_t> freeReadSlots;
    std::vector<std::size_t> freeWriteSlots;
};

/**
 * A banked memory controller with bounded queues.
 *
 * Transactions arrive as Packet-kind port requests. Admission is
 * answered explicitly: Ack when the packet entered its queue, Nack
 * (with the retry stat bumped) when the queue was full — the sender
 * retries after the controller's retry callback fires. Completion is
 * delivered separately through the packet's own onResponse.
 */
class MemController : public ClockedObject,
                      public MemResponder,
                      private MemControllerState
{
  public:
    /**
     * @param persistent When true, admitted writes are applied to the
     * persisted view of @p image (ADR semantics).
     */
    MemController(std::string name, EventQueue &eq, MemoryImage &image,
                  const MemControllerParams &params, bool persistent,
                  stats::StatGroup *parent = nullptr);

    /** Service one mailed Packet request: Ack or Nack its admission. */
    void handleRequest(MemPort &port, const MemRequest &req) override;

    /** Register a callback invoked whenever queue space frees up. */
    void
    addRetryCallback(std::function<void()> cb)
    {
        retryCallbacks.push_back(std::move(cb));
    }

    /** @return true once all queued work has drained. */
    bool
    idle() const
    {
        return freeReadSlots.size() == readSlots.size() &&
               freeWriteSlots.size() == writeSlots.size();
    }

    /** Observer hook fired at each persist (ADR admission). */
    void
    setPersistObserver(
        std::function<void(const Packet &, Tick)> observer)
    {
        persistObserver = std::move(observer);
    }

    /**
     * Capture / restore the banks and the pooled request slots;
     * completion timing lives in the event queue's own snapshot.
     * Restore targets the machine the capture was taken from.
     */
    MemControllerState
    saveState() const
    {
        return static_cast<const MemControllerState &>(*this);
    }

    void restoreState(const MemControllerState &state);

    /** @name Statistics @{ */
    stats::Scalar numReads;
    stats::Scalar numWrites;
    stats::Scalar numRowHits;
    stats::Scalar numRowMisses;
    stats::Scalar numRetries;
    stats::Histogram readLatencyHist;
    /** @} */

  private:
    /** Pop the next free slot index off @p free. Admission bounds
     * in-flight requests by the pool size, so one is always free. */
    std::size_t acquireSlot(std::vector<std::size_t> &free);

    /** Completion events: a read returns its data; a write steps
     * from ADR admission to media program, then frees its slot. */
    void completeRead(std::size_t slot);
    void advanceWrite(std::size_t slot);

    Bank &bankFor(Addr addr);

    /** @return the device access completion tick for @p addr. */
    Tick serviceOnBank(Addr addr, Tick earliest, Tick missLatency,
                       Tick hitLatency, Tick occupancy,
                       Tick hitOccupancy);

    void handleRead(const PacketPtr &pkt);
    void handleWrite(const PacketPtr &pkt);
    void notifyRetry();

    MemoryImage &image;
    MemControllerParams params;
    bool persistent;

    /**
     * One completion event per pooled slot, index for index. Each
     * callback is built once, at construction, so steady-state
     * request traffic schedules without allocating, and no recurring
     * event is ever bound after a capture (DESIGN.md §6 rule 2).
     */
    std::vector<EventQueue::Recurring> readEvents;
    std::vector<EventQueue::Recurring> writeEvents;

    std::vector<std::function<void()>> retryCallbacks;
    std::function<void(const Packet &, Tick)> persistObserver;
};

} // namespace strand

#endif // MEM_MEM_CONTROLLER_HH
