/**
 * @file
 * Port-layer tests: the latency contract (same-tick replies are
 * illegal by construction), Nack/retry ordering through a bound
 * responder, and snapshot/restore of a full port-mailboxed machine
 * with port messages in flight.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "mem/port.hh"

namespace strand
{
namespace
{

// --- The latency contract --------------------------------------------

TEST(MemPortContract, ZeroLatencyLegsAreIllegal)
{
    EventQueue eq;
    MemPort a;
    EXPECT_THROW(a.init(eq, "a", 0, portLegLatency), std::logic_error);
    MemPort b;
    EXPECT_THROW(b.init(eq, "b", portLegLatency, 0), std::logic_error);
}

TEST(MemPortContract, DoubleInitIsIllegal)
{
    EventQueue eq;
    MemPort port;
    port.init(eq, "p");
    EXPECT_THROW(port.init(eq, "p"), std::logic_error);
}

TEST(MemPortContract, SendOnUnwiredPortIsIllegal)
{
    EventQueue eq;
    MemPort port;
    port.init(eq, "p");
    // Initialized but never bound: mail has nowhere to go.
    EXPECT_THROW(port.send(MemRequest{}), std::logic_error);
}

/** Records every delivery tick; replies to whatever it is told to. */
struct EchoResponder : MemResponder
{
    std::vector<std::pair<Tick, std::uint64_t>> deliveries;
    EventQueue &eq;

    explicit EchoResponder(EventQueue &eq) : eq(eq) {}

    void
    handleRequest(MemPort &port, const MemRequest &req) override
    {
        deliveries.emplace_back(eq.curTick(), req.token);
        MemResponse resp{req.kind, MemResponseKind::Done, req.token};
        port.respond(std::move(resp));
    }
};

TEST(MemPortContract, EachLegTakesItsDeclaredLatency)
{
    EventQueue eq;
    EchoResponder responder(eq);
    MemPort port;
    port.init(eq, "p", 700, 900);
    port.bind(responder);
    std::vector<Tick> responseTicks;
    port.setResponseHandler([&](const MemResponse &) {
        responseTicks.push_back(eq.curTick());
    });

    MemRequest req;
    req.kind = MemRequestKind::Kick;
    req.token = 42;
    port.send(std::move(req));
    eq.run();

    ASSERT_EQ(responder.deliveries.size(), 1u);
    EXPECT_EQ(responder.deliveries[0].first, 700u);
    ASSERT_EQ(responseTicks.size(), 1u);
    EXPECT_EQ(responseTicks[0], 700u + 900u);
    EXPECT_EQ(port.requestLatency(), 700u);
    EXPECT_EQ(port.responseLatency(), 900u);
}

// --- Nack/retry ordering ---------------------------------------------

/**
 * A single-slot responder: one request may be outstanding; further
 * requests are Nacked until the slot frees (a fixed service time
 * later). The shape the hierarchy and controller both present.
 */
struct SingleSlotResponder : MemResponder
{
    EventQueue &eq;
    bool busy = false;
    Tick serviceTime;
    std::vector<std::uint64_t> accepted; ///< service (admission) order

    SingleSlotResponder(EventQueue &eq, Tick serviceTime)
        : eq(eq), serviceTime(serviceTime)
    {
    }

    void
    handleRequest(MemPort &port, const MemRequest &req) override
    {
        if (busy) {
            port.respond({req.kind, MemResponseKind::Nack, req.token});
            return;
        }
        busy = true;
        accepted.push_back(req.token);
        const std::uint64_t token = req.token;
        const MemRequestKind kind = req.kind;
        eq.scheduleIn(serviceTime, [this, &port, token, kind] {
            busy = false;
            port.respond({kind, MemResponseKind::Done, token});
        });
    }
};

TEST(MemPortRetry, NackedRequestsRetryInOriginalSendOrder)
{
    EventQueue eq;
    SingleSlotResponder responder(eq, 4000);
    MemPort port;
    port.init(eq, "p");
    port.bind(responder);

    // The requester keeps a FIFO of rejected tokens and re-mails the
    // eldest on every Done, as Core does for its own store stream.
    std::vector<std::uint64_t> parked;
    std::vector<std::uint64_t> completed;
    port.setResponseHandler([&](const MemResponse &resp) {
        if (resp.kind == MemResponseKind::Nack) {
            parked.push_back(resp.token);
            return;
        }
        ASSERT_EQ(resp.kind, MemResponseKind::Done);
        completed.push_back(resp.token);
        if (!parked.empty()) {
            MemRequest retry;
            retry.kind = MemRequestKind::Store;
            retry.token = parked.front();
            parked.erase(parked.begin());
            port.send(std::move(retry));
        }
    });

    for (std::uint64_t token = 1; token <= 4; ++token) {
        MemRequest req;
        req.kind = MemRequestKind::Store;
        req.token = token;
        port.send(std::move(req));
    }
    eq.run();

    // Tokens 2..4 were each Nacked (the slot was busy), retried, and
    // admitted strictly in their original send order.
    EXPECT_EQ(responder.accepted,
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_TRUE(parked.empty());
}

// --- Full-machine snapshots ------------------------------------------

/** FNV-1a over the persist trace. */
std::uint64_t
traceHash(const std::vector<PersistRecord> &trace)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const PersistRecord &rec : trace) {
        mix(rec.lineAddr);
        mix(rec.when);
        mix(rec.requester);
        mix(static_cast<std::uint64_t>(rec.origin));
    }
    return h;
}

/** A small recorded workload lowered once, replayable on fresh machines. */
struct PortRig
{
    RecordedWorkload recorded;
    LoweredWorkload lowered;

    PortRig()
    {
        WorkloadParams params;
        params.numThreads = 2;
        params.opsPerThread = 12;
        params.seed = 17;
        recorded = recordWorkload(WorkloadKind::Queue, params);
        lowered = lowerWorkload(recorded, HwDesign::StrandWeaver,
                                PersistencyModel::Sfr, LogStyle::Undo);
    }

    std::unique_ptr<System>
    buildSystem()
    {
        return strand::buildSystem(recorded, lowered, {});
    }
};

TEST(MemPortMachine, InFlightPortRequestsSurviveSnapshotRestore)
{
    PortRig rig;
    auto reference = rig.buildSystem();
    reference->run();
    const std::uint64_t refHash = traceHash(reference->persistTrace());
    const Tick refFinish = reference->finishTick();
    ASSERT_GT(refFinish, 0u);

    // Capture mid-run at an odd tick, off the port-leg grid, while
    // the machine is demonstrably NOT quiesced — port mail is in
    // flight and rides the event-queue snapshot as scheduled
    // closures.
    const Tick mid = (refFinish / 2) | 1;
    auto sys = rig.buildSystem();
    ASSERT_FALSE(sys->runUntil(mid));
    ASSERT_FALSE(sys->hierarchy().idle())
        << "capture tick landed on a quiesced machine; pick a "
           "busier tick for this test to mean anything";
    SimSnapshot snap = sys->snapshot();

    // Finish the interrupted run: bit-identical to the reference.
    sys->run();
    EXPECT_EQ(traceHash(sys->persistTrace()), refHash);
    EXPECT_EQ(sys->finishTick(), refFinish);

    // Rewind into the captured mid-run state and replay the tail.
    sys->restore(snap);
    sys->run();
    EXPECT_EQ(traceHash(sys->persistTrace()), refHash);
    EXPECT_EQ(sys->finishTick(), refFinish);
}

} // namespace
} // namespace strand
