/**
 * @file
 * Memory messages: the typed requests/responses exchanged over
 * MemPorts (core/engine <-> hierarchy, hierarchy <-> controller) and
 * the line-granular packets that carry fills and persists.
 */

#ifndef MEM_PACKET_HH
#define MEM_PACKET_HH

#include <cstdint>
#include <memory>
#include <type_traits>

#include "mem/memory_image.hh"
#include "sim/types.hh"

namespace strand
{

class MemPort;

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
 * Where a finished request is answered: the port it arrived on and
 * the requester's token. Ports are owned by permanent components, so
 * a reply may outlive the request that made it.
 */
struct Reply
{
    MemPort *port = nullptr;
    std::uint64_t token = 0;
};

/**
 * One memory transaction, immutable once built. Requests travel down
 * the hierarchy; the controller reports a finished packet to its
 * MemClient, which routes the completion by the packet's own fields.
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

    /** CLWB writes only: the flush answered at ADR admission. */
    Reply reply;
};

static_assert(std::is_trivially_copyable_v<Packet>,
              "a packet is plain data: no closure may ride it");

using PacketPtr = std::shared_ptr<const Packet>;

/** Build a read request. */
inline PacketPtr
makeReadPacket(std::uint64_t id, Addr addr, CoreId requester,
               bool exclusive)
{
    return std::make_shared<const Packet>(
        Packet{exclusive ? MemCmd::ReadExclusive : MemCmd::Read,
               lineAlign(addr), requester, WriteOrigin::None, {}, id,
               {}});
}

/** Build a write (persist) request carrying a line snapshot; a CLWB
 * write names the flush it answers. */
inline PacketPtr
makeWritePacket(std::uint64_t id, LineData data, CoreId requester,
                WriteOrigin origin, Reply reply = {})
{
    return std::make_shared<const Packet>(Packet{
        MemCmd::Write, data.lineAddr, requester, origin, data, id, reply});
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
