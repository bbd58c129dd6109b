/**
 * @file
 * Memory messages: the typed requests/responses exchanged over
 * MemPorts (core/engine <-> hierarchy, hierarchy <-> controller) and
 * the line-granular packets that carry fills and persists.
 */

#ifndef MEM_PACKET_HH
#define MEM_PACKET_HH

#include <functional>
#include <memory>

#include "mem/memory_image.hh"
#include "sim/types.hh"

namespace strand
{

/** Kind of memory transaction. */
enum class MemCmd
{
    /** Line fill (shared) on behalf of a load miss. */
    Read,
    /** Line fill with exclusive ownership (store miss / RFO). */
    ReadExclusive,
    /**
     * A persist: data leaving the cache domain for the PM (or DRAM)
     * controller, either from an explicit CLWB flush or a dirty
     * write-back.
     */
    Write,
};

/** What produced a Write packet; persists are attributed per source. */
enum class WriteOrigin
{
    Clwb,
    WriteBack,
    None,
};

/**
 * One memory transaction. Requests travel down the hierarchy; the
 * response is delivered by invoking onResponse at completion time.
 */
struct Packet
{
    MemCmd cmd = MemCmd::Read;
    Addr addr = 0;
    CoreId requester = 0;
    WriteOrigin origin = WriteOrigin::None;

    /** Data captured at flush time; meaningful for Write only. */
    LineData data;

    /** Monotonic id for debugging and persist-order tracing. */
    std::uint64_t id = 0;

    /** Tick at which the packet was created. */
    Tick created = 0;

    /** Completion callback, run when the transaction finishes. */
    std::function<void()> onResponse;
};

using PacketPtr = std::shared_ptr<Packet>;

/** Build a read request. */
inline PacketPtr
makeReadPacket(Addr addr, CoreId requester, bool exclusive,
               std::function<void()> onResponse)
{
    auto pkt = std::make_shared<Packet>();
    pkt->cmd = exclusive ? MemCmd::ReadExclusive : MemCmd::Read;
    pkt->addr = lineAlign(addr);
    pkt->requester = requester;
    pkt->onResponse = std::move(onResponse);
    return pkt;
}

/** Build a write (persist) request carrying a line snapshot. */
inline PacketPtr
makeWritePacket(LineData data, CoreId requester, WriteOrigin origin,
                std::function<void()> onResponse)
{
    auto pkt = std::make_shared<Packet>();
    pkt->cmd = MemCmd::Write;
    pkt->addr = data.lineAddr;
    pkt->requester = requester;
    pkt->origin = origin;
    pkt->data = data;
    pkt->onResponse = std::move(onResponse);
    return pkt;
}

/**
 * What a port request asks its responder to do. Load/Store/Flush are
 * the CPU-side operations the hierarchy services; Packet carries a
 * line-granular transaction from the hierarchy to a memory
 * controller; Kick is a response-less doorbell that re-evaluates the
 * responder's parked work (persist engines ring it when a drain
 * point clears).
 */
enum class MemRequestKind : std::uint8_t
{
    Load,
    Store,
    Flush,
    Packet,
    Kick,
};

/**
 * How a responder answered. Ack/Nack are the explicit admission
 * decision (Nack = back-pressure, retry later); FlushStarted marks
 * the point a flush performed its cache read; Done is the
 * completion.
 */
enum class MemResponseKind : std::uint8_t
{
    Ack,
    Nack,
    FlushStarted,
    Done,
};

/**
 * One mailed request. The token is an opaque requester-chosen id
 * echoed in every response to the request, so a requester with many
 * outstanding operations can route completions without side tables.
 */
struct MemRequest
{
    MemRequestKind kind = MemRequestKind::Load;
    CoreId core = 0;
    Addr addr = 0;
    /** Store data (Store kind only). */
    std::uint64_t value = 0;
    /** Requester-chosen id echoed in responses. */
    std::uint64_t token = 0;
    /** The transaction (Packet kind only). */
    PacketPtr pkt;
};

/**
 * One mailed response. @c req names the request kind being answered;
 * the token is echoed from the request. Packet-kind responses carry
 * the PacketPtr back so the requester can route on the packet's own
 * cmd/origin/addr.
 */
struct MemResponse
{
    MemRequestKind req = MemRequestKind::Load;
    MemResponseKind kind = MemResponseKind::Done;
    std::uint64_t token = 0;
    /** Flush Done only: the flush found dirty data and wrote PM. */
    bool wrotePm = false;
    /** Packet kind only. The empty initializer lets callers write
     * {req, kind, token} without a missing-initializer warning. */
    PacketPtr pkt{};
};

} // namespace strand

#endif // MEM_PACKET_HH
