/**
 * @file
 * Focused tests for persist-order plumbing at the memory layer: the
 * PM controller admits writes in FIFO send order (the property
 * strong persist atomicity leans on), the persist observer sees
 * admission order, and the hierarchy's per-line send queues keep
 * same-line flushes in content order across back-pressure.
 *
 * All traffic is mailed through MemPorts, as in production.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/lock_table.hh"

namespace strand
{
namespace
{

/** Mail @p pkt to @p port as a Packet request. */
void
postPacket(MemPort &port, const PacketPtr &pkt)
{
    MemRequest req;
    req.kind = MemRequestKind::Packet;
    req.addr = pkt->addr;
    req.pkt = pkt;
    port.send(std::move(req));
}

/** Counts the completions a controller reports, standing in for the
 * hierarchy. */
struct CountingClient : MemClient
{
    void packetDone(const Packet &) override { ++done; }
    void queueFreed() override { ++freed; }

    unsigned done = 0;
    unsigned freed = 0;
};

/**
 * A core's-eye view of a hierarchy: one port plus blocking helpers
 * that retry Nacks, mirroring what Core does in production.
 */
struct HierClient
{
    struct Outcome
    {
        bool acked = false;
        bool nacked = false;
        bool done = false;
        bool wrotePm = false;
    };

    EventQueue &eq;
    MemPort port;
    std::unordered_map<std::uint64_t, Outcome> outcomes;
    std::uint64_t nextToken = 1;

    HierClient(EventQueue &eq, Hierarchy &hier) : eq(eq)
    {
        port.init(eq, "test.port");
        port.bind(hier);
        port.setResponseHandler([this](const MemResponse &resp) {
            Outcome &o = outcomes[resp.token];
            switch (resp.kind) {
              case MemResponseKind::Ack:
                o.acked = true;
                break;
              case MemResponseKind::Nack:
                o.nacked = true;
                break;
              case MemResponseKind::FlushStarted:
                break;
              case MemResponseKind::Done:
                o.done = true;
                o.wrotePm = resp.wrotePm;
                break;
            }
        });
    }

    std::uint64_t
    send(MemRequestKind kind, CoreId core, Addr addr,
         std::uint64_t value = 0)
    {
        MemRequest req;
        req.kind = kind;
        req.core = core;
        req.addr = addr;
        req.value = value;
        req.token = nextToken++;
        outcomes[req.token];
        port.send(std::move(req));
        return req.token;
    }

    const Outcome &
    out(std::uint64_t token)
    {
        return outcomes.at(token);
    }

    bool
    step()
    {
        const Tick next = eq.nextLiveTick();
        if (next == maxTick)
            return false;
        eq.runUntil(next);
        return true;
    }

    void
    store(CoreId core, Addr addr, std::uint64_t value)
    {
        std::uint64_t tok = 0;
        for (;;) {
            tok = send(MemRequestKind::Store, core, addr, value);
            while (!out(tok).acked && !out(tok).nacked)
                ASSERT_TRUE(step());
            if (out(tok).acked)
                break;
        }
        while (!out(tok).done)
            ASSERT_TRUE(step());
    }
};

TEST(PersistOrder, ControllerAdmitsWritesInSendOrder)
{
    EventQueue eq;
    MemoryImage img;
    MemController pm("pm", eq, img, MemControllerParams{}, true);
    CountingClient client;
    pm.setClient(client);
    MemPort port;
    port.init(eq, "test.port");
    port.bind(pm);
    int acks = 0;
    port.setResponseHandler([&](const MemResponse &resp) {
        if (resp.kind == MemResponseKind::Ack)
            ++acks;
    });
    std::vector<std::uint64_t> order;
    pm.setPersistObserver(
        [&](const Packet &pkt, Tick) { order.push_back(pkt.id); });

    for (std::uint64_t i = 0; i < 8; ++i) {
        img.writeArch(pmBase + i * 64, i);
        postPacket(port,
                   makeWritePacket(i, img.snapshotLine(pmBase + i * 64),
                                   0, WriteOrigin::Clwb));
    }
    eq.run();
    EXPECT_EQ(acks, 8);
    EXPECT_EQ(client.done, 8u);
    EXPECT_EQ(client.freed, 8u);
    ASSERT_EQ(order.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(PersistOrder, SameLineFlushesStayInContentOrderUnderPressure)
{
    // Choke the PM write queue so flush sends retry; two flushes of
    // one line must still persist oldest-content-first.
    EventQueue eq;
    MemoryImage img;
    MemControllerParams pmParams;
    pmParams.writeQueueEntries = 1;
    MemController pm("pm", eq, img, pmParams, true);
    MemController dram("dram", eq, img, dramControllerParams(), false);
    Hierarchy hier("caches", eq, img, 1, HierarchyParams{}, pm, dram);
    HierClient client(eq, hier);

    const Addr line = pmBase + 0x1000;
    // Fill the single write-queue slot with an unrelated line,
    // mailed straight to the controller. It goes as a write-back,
    // which owes no flush a reply, so the hierarchy (the controller's
    // client) has nothing to answer when it is admitted.
    MemPort pmPort;
    pmPort.init(eq, "test.pmPort");
    pmPort.bind(pm);
    pmPort.setResponseHandler([](const MemResponse &) {});
    img.writeArch(pmBase + 0x8000, 7);
    postPacket(pmPort,
               makeWritePacket(0, img.snapshotLine(pmBase + 0x8000), 0,
                               WriteOrigin::WriteBack));
    eq.runUntil(eq.curTick() + portLegLatency); // let it occupy the slot

    // Store + flush, then store + flush again, back to back.
    client.store(0, line, 1);
    auto flushA = client.send(MemRequestKind::Flush, 0, line);
    // Let the first flush reach its (blocked) send.
    eq.runUntil(eq.curTick() + nsToTicks(10));

    client.store(0, line, 2);
    auto flushB = client.send(MemRequestKind::Flush, 0, line);

    eq.run();
    EXPECT_TRUE(client.out(flushA).done);
    EXPECT_TRUE(client.out(flushB).done);
    // The final durable value must be the newest store: the delayed
    // first snapshot may carry value 1 or 2 depending on timing, but
    // it can never land after the second flush's fresher snapshot.
    EXPECT_EQ(img.readPersisted(line), 2u);
}

TEST(PersistOrder, LockReleaseObserversFire)
{
    LockTable locks;
    int fired = 0;
    locks.addReleaseObserver([&] { ++fired; });
    ASSERT_TRUE(locks.tryAcquire(1, 0));
    locks.release(1);
    ASSERT_TRUE(locks.tryAcquire(1, 1));
    locks.release(1);
    EXPECT_EQ(fired, 2);
}

TEST(PersistOrder, PrewarmInstallsCleanL2Lines)
{
    EventQueue eq;
    MemoryImage img;
    MemController pm("pm", eq, img, MemControllerParams{}, true);
    MemController dram("dram", eq, img, dramControllerParams(), false);
    Hierarchy hier("caches", eq, img, 1, HierarchyParams{}, pm, dram);
    HierClient client(eq, hier);

    hier.prewarmL2(pmBase, pmBase + 4 * lineBytes);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(hier.l2State(pmBase + i * lineBytes),
                  CoherenceState::Shared);
        EXPECT_FALSE(hier.l2Dirty(pmBase + i * lineBytes));
    }
    // A warm load costs an L2 hit, not a PM read.
    auto tok = client.send(MemRequestKind::Load, 0, pmBase);
    eq.run();
    EXPECT_TRUE(client.out(tok).done);
    EXPECT_EQ(pm.numReads.value(), 0.0);
}

TEST(PersistOrder, InterlockFlagDisablesDrainPoints)
{
    EventQueue eq;
    MemoryImage img;
    MemController pm("pm", eq, img, MemControllerParams{}, true);
    MemController dram("dram", eq, img, dramControllerParams(), false);
    HierarchyParams params;
    params.persistInterlocks = false;
    params.l1Size = 256; // force evictions
    Hierarchy hier("caches", eq, img, 1, params, pm, dram);
    HierClient client(eq, hier);

    /** A persist engine stand-in that notes any point recorded. */
    struct RecordingDrain : PersistDrain
    {
        DrainPoint
        recordDrainPoint() const override
        {
            recorded = true;
            return {};
        }
        bool drainedPast(const DrainPoint &) const override { return true; }
        mutable bool recorded = false;
    } drain;
    hier.setPersistDrain(0, drain);

    // Dirty three conflicting lines; the eviction would record a
    // drain point if interlocks were enabled.
    for (unsigned i = 0; i < 3; ++i)
        client.store(0, pmBase + i * 128, i);
    eq.run();
    EXPECT_FALSE(drain.recorded);
}

} // namespace
} // namespace strand
