/**
 * @file
 * Port-based memory-access API: the mailbox between a requester
 * (core, persist engine, strand buffer unit) and a responder
 * (hierarchy, memory controller).
 *
 * A MemPort carries typed MemRequest messages toward its bound
 * MemResponder and delivers MemResponse messages back to the
 * requester's handler. Both legs are latency-carrying: a request
 * arrives at the responder requestLatency() ticks after send(), and
 * a response arrives at the requester responseLatency() ticks after
 * respond(). Same-tick replies are illegal by construction — init()
 * panics on a zero leg — so a responder's state never changes on the
 * requester's call stack, and every message between two components
 * is a scheduled event that passes through this class: the port is
 * the one place where mail can be held or reordered.
 *
 * Back-pressure is an explicit response: a responder that cannot
 * accept a request replies Nack and the requester retries on its own
 * schedule. Nothing about admission is decided on the sender's call
 * stack.
 *
 * The port itself is stateless (latencies and wiring are fixed at
 * init), so there is nothing to snapshot: in-flight messages live in
 * the EventQueue as scheduled closures that capture only the stable
 * port pointer and value copies of the message, which is exactly the
 * closure shape the queue's snapshot machinery supports.
 */

#ifndef MEM_PORT_HH
#define MEM_PORT_HH

#include <functional>
#include <string>
#include <utility>

#include "mem/packet.hh"
#include "sim/event_queue.hh"

namespace strand
{

class MemPort;

/** One-cycle (2 GHz) default for each port leg. */
constexpr Tick portLegLatency = coreClockPeriod;

/**
 * The service side of a port. Hierarchy and MemController implement
 * this; responses travel back through the same port the request
 * arrived on, so one responder can serve many requesters.
 */
class MemResponder
{
  public:
    virtual ~MemResponder() = default;

    /** Service @p req; reply (if the kind warrants one) via
     * @p port .respond(). Runs as its own event, requestLatency()
     * ticks after the send. */
    virtual void handleRequest(MemPort &port, const MemRequest &req) = 0;
};

/**
 * A requester-owned mailbox to one responder. The owning component
 * constructs it as a member, init()s it with its event queue and leg
 * latencies, bind()s the responder, and installs a response handler.
 */
class MemPort
{
  public:
    MemPort() = default;

    MemPort(const MemPort &) = delete;
    MemPort &operator=(const MemPort &) = delete;

    /**
     * Wire the port. Must run exactly once before the first send().
     * Panics if either leg is zero: a same-tick reply would put the
     * responder's state mutation back on the requester's call stack.
     */
    void
    init(EventQueue &eq, std::string name,
         Tick requestLatency = portLegLatency,
         Tick responseLatency = portLegLatency)
    {
        panicIf(queue != nullptr, "port {} already initialized", name);
        panicIf(requestLatency == 0 || responseLatency == 0,
                "port {}: zero-latency port legs are illegal "
                "(a same-tick reply would run on the requester's "
                "call stack)",
                name);
        queue = &eq;
        portName = std::move(name);
        reqLat = requestLatency;
        respLat = responseLatency;
    }

    /** Attach the responder that will service this port's requests. */
    void
    bind(MemResponder &responder)
    {
        peer = &responder;
    }

    /** Install the handler that receives this port's responses. */
    void
    setResponseHandler(std::function<void(const MemResponse &)> handler)
    {
        onResponse = std::move(handler);
    }

    /**
     * Mail @p req to the bound responder; it is serviced
     * requestLatency() ticks from now. Always succeeds — admission
     * is the responder's decision, delivered as an Ack/Nack/Done
     * response, never as a same-tick return value.
     */
    void
    send(MemRequest req)
    {
        panicIf(!queue || !peer, "send on unwired port {}", portName);
        queue->scheduleIn(
            reqLat,
            [this, req = std::move(req)] {
                peer->handleRequest(*this, req);
            },
            EventPriority::MemoryResponse);
    }

    /**
     * Mail @p resp back to the requester; its handler runs
     * responseLatency() ticks from now. Called by the responder
     * while servicing handleRequest().
     */
    void
    respond(MemResponse resp)
    {
        panicIf(!onResponse, "respond on port {} with no handler",
                portName);
        queue->scheduleIn(
            respLat,
            [this, resp = std::move(resp)] { onResponse(resp); },
            EventPriority::MemoryResponse);
    }

    /** @name Declared leg latencies @{ */
    Tick requestLatency() const { return reqLat; }
    Tick responseLatency() const { return respLat; }
    /** @} */

    const std::string &name() const { return portName; }

  private:
    EventQueue *queue = nullptr;
    MemResponder *peer = nullptr;
    std::function<void(const MemResponse &)> onResponse;
    std::string portName;
    Tick reqLat = 0;
    Tick respLat = 0;
};

} // namespace strand

#endif // MEM_PORT_HH
