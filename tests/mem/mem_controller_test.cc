/**
 * @file
 * Unit tests for the banked PM/DRAM controller: latencies, row-buffer
 * behaviour, ADR persist point, queue back-pressure, and retries.
 *
 * Transactions travel through a test-owned MemPort, exactly as the
 * cache hierarchy mails them in production: admission comes back as
 * an explicit Ack/Nack response one port leg later. Completions and
 * freed queue space go to a fake MemClient standing in for the
 * hierarchy.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mem/mem_controller.hh"

namespace strand
{
namespace
{

/** Records what a controller reports, as the hierarchy would hear
 * it; the optional hooks run after each report is recorded. */
struct FakeClient : MemClient
{
    explicit FakeClient(EventQueue &eq) : eq(eq) {}

    void
    packetDone(const Packet &pkt) override
    {
        doneIds.push_back(pkt.id);
        doneAt.push_back(eq.curTick());
        if (onDone)
            onDone(pkt);
    }

    void
    queueFreed() override
    {
        ++freed;
        if (onFreed)
            onFreed();
    }

    EventQueue &eq;
    std::vector<std::uint64_t> doneIds;
    std::vector<Tick> doneAt;
    unsigned freed = 0;
    std::function<void(const Packet &)> onDone;
    std::function<void()> onFreed;
};

struct ControllerFixture : public ::testing::Test
{
    EventQueue eq;
    MemoryImage img;
    MemControllerParams params;
    MemPort port;
    FakeClient client{eq};
    /** Admission decisions in arrival order (Ack=true, Nack=false). */
    std::deque<bool> decisions;

    /** One request leg of mail time before the controller sees it. */
    static constexpr Tick mailLatency = portLegLatency;

    void
    wire(MemController &ctrl)
    {
        ctrl.setClient(client);
        port.init(eq, "test.port");
        port.bind(ctrl);
        port.setResponseHandler([this](const MemResponse &resp) {
            decisions.push_back(resp.kind == MemResponseKind::Ack);
        });
    }

    std::unique_ptr<MemController>
    makePm()
    {
        auto ctrl = std::make_unique<MemController>("pmctrl", eq, img,
                                                    params, true);
        wire(*ctrl);
        return ctrl;
    }

    /** Mail a packet without waiting for its admission decision. */
    void
    post(const PacketPtr &pkt)
    {
        MemRequest req;
        req.kind = MemRequestKind::Packet;
        req.addr = pkt->addr;
        req.pkt = pkt;
        port.send(std::move(req));
    }

    /** Run the queue until the next admission decision arrives. */
    bool
    awaitDecision()
    {
        while (decisions.empty()) {
            const Tick next = eq.nextLiveTick();
            if (next == maxTick) {
                ADD_FAILURE() << "queue drained without a decision";
                return false;
            }
            eq.runUntil(next);
        }
        bool acked = decisions.front();
        decisions.pop_front();
        return acked;
    }

    /** Mail a packet and block on its admission decision. */
    bool
    submit(const PacketPtr &pkt)
    {
        post(pkt);
        return awaitDecision();
    }
};

TEST_F(ControllerFixture, ReadCompletesAfterDeviceLatency)
{
    auto ctrl = makePm();
    ASSERT_TRUE(submit(makeReadPacket(1, pmBase, 0, false)));
    eq.run();
    ASSERT_EQ(client.doneAt.size(), 1u);
    EXPECT_EQ(client.doneAt[0], mailLatency + params.readLatency);
    EXPECT_TRUE(ctrl->idle());
}

TEST_F(ControllerFixture, RowBufferHitIsFaster)
{
    auto ctrl = makePm();
    const std::vector<Tick> &done = client.doneAt;
    auto first = makeReadPacket(1, pmBase, 0, false);
    // Same 1 KiB row, different line. Mailed back to back, both
    // requests land on the controller in the same port-leg batch.
    auto second = makeReadPacket(2, pmBase + 64, 0, false);
    post(first);
    post(second);
    ASSERT_TRUE(awaitDecision());
    ASSERT_TRUE(awaitDecision());
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    // The row-hit read overtakes the opening read: it waits only for
    // the bank-occupancy window, then enjoys the open row, so it
    // completes first.
    EXPECT_EQ(client.doneIds, (std::vector<std::uint64_t>{2, 1}));
    EXPECT_EQ(done[0], mailLatency + params.readOccupancy +
                           params.readRowHitLatency);
    EXPECT_EQ(done[1], mailLatency + params.readLatency);
    EXPECT_EQ(ctrl->numRowHits.value(), 1.0);
    EXPECT_EQ(ctrl->numRowMisses.value(), 1.0);
}

TEST_F(ControllerFixture, BanksServiceDisjointRowsInParallel)
{
    auto ctrl = makePm();
    const std::vector<Tick> &done = client.doneAt;
    // Two different banks: addresses one row apart.
    auto a = makeReadPacket(1, pmBase, 0, false);
    auto b = makeReadPacket(2, pmBase + params.rowBytes, 0, false);
    post(a);
    post(b);
    ASSERT_TRUE(awaitDecision());
    ASSERT_TRUE(awaitDecision());
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], mailLatency + params.readLatency);
    EXPECT_EQ(done[1], mailLatency + params.readLatency); // parallel
}

TEST_F(ControllerFixture, WriteAckAtAdrAdmissionAppliesPersist)
{
    auto ctrl = makePm();
    img.writeArch(pmBase, 77);
    auto pkt = makeWritePacket(1, img.snapshotLine(pmBase), 0,
                               WriteOrigin::Clwb);
    ASSERT_TRUE(submit(pkt));

    // Before the queue drains, the ack must already have arrived and
    // the data must be durable: run just past the accept latency.
    eq.runUntil(mailLatency + params.writeAcceptLatency);
    ASSERT_EQ(client.doneAt.size(), 1u);
    EXPECT_EQ(client.doneAt[0], mailLatency + params.writeAcceptLatency);
    EXPECT_EQ(img.readPersisted(pmBase), 77u);
    EXPECT_FALSE(ctrl->idle()); // media write still draining

    eq.run();
    EXPECT_TRUE(ctrl->idle());
}

TEST_F(ControllerFixture, PersistObserverSeesEveryPersist)
{
    auto ctrl = makePm();
    std::vector<std::uint64_t> ids;
    ctrl->setPersistObserver(
        [&](const Packet &pkt, Tick) { ids.push_back(pkt.id); });
    for (int i = 0; i < 3; ++i) {
        img.writeArch(pmBase + 64 * i, i);
        ASSERT_TRUE(submit(makeWritePacket(
            100 + i, img.snapshotLine(pmBase + 64 * i), 0,
            WriteOrigin::Clwb)));
    }
    eq.run();
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{100, 101, 102}));
}

TEST_F(ControllerFixture, WriteQueueFullRejectsAndRetries)
{
    params.writeQueueEntries = 2;
    auto ctrl = makePm();
    auto mkWrite = [&](int i) {
        img.writeArch(pmBase + 64 * i, i);
        return makeWritePacket(i, img.snapshotLine(pmBase + 64 * i), 0,
                               WriteOrigin::Clwb);
    };
    ASSERT_TRUE(submit(mkWrite(0)));
    ASSERT_TRUE(submit(mkWrite(1)));
    auto third = mkWrite(2);
    EXPECT_FALSE(submit(third));
    EXPECT_EQ(ctrl->numRetries.value(), 1.0);

    // A Nacked packet is re-mailed when queue space frees up; the
    // fresh admission decision arrives like any other.
    bool resent = false;
    client.onFreed = [&] {
        if (!resent) {
            resent = true;
            post(third);
        }
    };
    eq.run();
    EXPECT_TRUE(resent);
    ASSERT_TRUE(awaitDecision()); // the re-mailed third write
    eq.run();
    EXPECT_EQ(client.doneIds.size(), 3u);
}

TEST_F(ControllerFixture, ReadQueueFullRejects)
{
    params.readQueueEntries = 1;
    auto ctrl = makePm();
    auto a = makeReadPacket(1, pmBase, 0, false);
    auto b = makeReadPacket(2, pmBase + 64, 0, false);
    ASSERT_TRUE(submit(a));
    EXPECT_FALSE(submit(b));
    eq.run();
    EXPECT_TRUE(submit(b));
    eq.run();
    EXPECT_EQ(ctrl->numReads.value(), 2.0);
}

TEST_F(ControllerFixture, DramControllerDoesNotPersist)
{
    auto dram = std::make_unique<MemController>(
        "dram", eq, img, dramControllerParams(), false);
    wire(*dram);
    img.writeArch(dramBase + 64, 5);
    LineData snap = img.snapshotLine(dramBase + 64);
    auto pkt = makeWritePacket(1, snap, 0, WriteOrigin::WriteBack);
    ASSERT_TRUE(submit(pkt));
    eq.run();
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST_F(ControllerFixture, WritesToSameBankSerializeOnMedia)
{
    params.banks = 1;
    auto ctrl = makePm();
    const unsigned &drained = client.freed;
    for (int i = 0; i < 2; ++i) {
        img.writeArch(pmBase + 64 * i, i);
        post(makeWritePacket(i, img.snapshotLine(pmBase + 64 * i), 0,
                             WriteOrigin::Clwb));
    }
    ASSERT_TRUE(awaitDecision());
    ASSERT_TRUE(awaitDecision());
    // Queue slots are held while the media writes retire: shortly
    // after both acks the controller still has work in flight.
    eq.runUntil(mailLatency + params.writeAcceptLatency +
                nsToTicks(10));
    EXPECT_FALSE(ctrl->idle());
    EXPECT_EQ(drained, 0u);
    eq.run();
    EXPECT_EQ(drained, 2u);
    EXPECT_TRUE(ctrl->idle());
}

TEST_F(ControllerFixture, ClientHearsAdmissionAfterPersistAndEachFreedSlot)
{
    auto ctrl = makePm();
    std::vector<std::string> reports;
    ctrl->setPersistObserver([&](const Packet &pkt, Tick) {
        reports.push_back("persist " + std::to_string(pkt.id));
    });
    client.onDone = [&](const Packet &pkt) {
        // The data is durable before the client hears of the write.
        if (pkt.cmd == MemCmd::Write) {
            EXPECT_EQ(img.readPersisted(pkt.addr), pkt.id);
        }
        reports.push_back("done " + std::to_string(pkt.id));
    };
    client.onFreed = [&] { reports.push_back("freed"); };

    post(makeReadPacket(1, pmBase + 0x8000, 0, false));
    post(makeReadPacket(2, pmBase + 0x10000, 0, false));
    for (std::uint64_t id : {3, 4}) {
        const Addr addr = pmBase + 64 * id;
        img.writeArch(addr, id);
        post(makeWritePacket(id, img.snapshotLine(addr), 0,
                             WriteOrigin::Clwb));
    }
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(awaitDecision());

    // ADR admission: each write is reported complete right after its
    // persist, and its slot is still held for the media program.
    eq.runUntil(mailLatency + params.writeAcceptLatency);
    EXPECT_EQ(reports, (std::vector<std::string>{
                           "persist 3", "done 3", "persist 4", "done 4"}));
    EXPECT_EQ(client.freed, 0u);

    // One freed report per read slot, right after its completion, and
    // one per retired media write.
    eq.run();
    EXPECT_TRUE(ctrl->idle());
    EXPECT_EQ(client.freed, 4u);
    EXPECT_EQ(reports, (std::vector<std::string>{
                           "persist 3", "done 3", "persist 4", "done 4",
                           "done 1", "freed", "done 2", "freed",
                           "freed", "freed"}));
}

} // namespace
} // namespace strand
