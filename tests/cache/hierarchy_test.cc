/**
 * @file
 * Integration-grade unit tests for the coherent cache hierarchy:
 * miss latencies, MESI transitions, cache-to-cache transfers,
 * write-backs with persist interlocks, CLWB flushes, and snoop
 * stalls (§IV mechanisms).
 *
 * Requests travel through a test-owned MemPort, exactly as cores and
 * persist engines mail them in production: loads answer Nack or Done,
 * stores answer Ack/Nack plus a later Done, flushes answer
 * FlushStarted and Done(wrotePm). Every quoted latency therefore
 * includes the port legs (one request leg in, one response leg out,
 * plus one more request leg for paths that reach a controller).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"

namespace strand
{
namespace
{

constexpr Addr lineA = pmBase + 0x0000;
constexpr Addr lineB = pmBase + 0x4000;

/**
 * Stands in for a core's persist engine: the n-th recorded drain
 * point is position n, and it passes once the test releases it.
 */
class FakeDrain : public PersistDrain
{
  public:
    DrainPoint recordDrainPoint() const override { return {++recorded, 0}; }

    bool
    drainedPast(const DrainPoint &point) const override
    {
        ++evaluations;
        return point.buffered == 0 || released.contains(point.buffered);
    }

    void release(std::uint64_t position) { released.insert(position); }

    mutable std::uint64_t recorded = 0;
    mutable unsigned evaluations = 0;
    std::set<std::uint64_t> released;
};

class HierarchyFixture : public ::testing::Test
{
  protected:
    /** Per-request response bookkeeping, keyed by token. */
    struct Outcome
    {
        bool acked = false;
        bool nacked = false;
        bool started = false;
        bool done = false;
        /** Done responses received; a request is owed exactly one. */
        unsigned dones = 0;
        bool wrotePm = false;
        Tick doneAt = 0;
    };

    void
    build(unsigned cores = 2, HierarchyParams p = HierarchyParams{})
    {
        params = p;
        pm = std::make_unique<MemController>("pm", eq, img, pmParams,
                                             true);
        dram = std::make_unique<MemController>(
            "dram", eq, img, dramControllerParams(), false);
        hier = std::make_unique<Hierarchy>("caches", eq, img, cores,
                                           params, *pm, *dram);
        port.init(eq, "test.port");
        port.bind(*hier);
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
                o.started = true;
                break;
              case MemResponseKind::Done:
                o.done = true;
                ++o.dones;
                o.doneAt = eq.curTick();
                o.wrotePm = resp.wrotePm;
                doneOrder.push_back(resp.token);
                break;
            }
        });
    }

    /** Mail one request; @return its token. */
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

    /** Service everything scheduled at the next live tick. */
    bool
    step()
    {
        const Tick next = eq.nextLiveTick();
        if (next == maxTick)
            return false;
        eq.runUntil(next);
        return true;
    }

    /** Blocking store helper: retry Nacks, run until completion. */
    void
    store(CoreId core, Addr addr, std::uint64_t value)
    {
        std::uint64_t tok = 0;
        for (;;) {
            tok = send(MemRequestKind::Store, core, addr, value);
            while (!out(tok).acked && !out(tok).nacked)
                ASSERT_TRUE(step());
            if (out(tok).acked)
                break; // Nack: the next send is the retry
        }
        while (!out(tok).done)
            ASSERT_TRUE(step());
    }

    /** Blocking load helper: retry Nacks, run until completion. */
    void
    load(CoreId core, Addr addr)
    {
        for (;;) {
            std::uint64_t tok = send(MemRequestKind::Load, core, addr);
            while (!out(tok).done && !out(tok).nacked)
                ASSERT_TRUE(step());
            if (out(tok).done)
                return;
        }
    }

    /** Flush and report whether PM was written. */
    bool
    flush(CoreId core, Addr addr)
    {
        std::uint64_t tok = send(MemRequestKind::Flush, core, addr);
        while (!out(tok).done)
            EXPECT_TRUE(step());
        return out(tok).wrotePm;
    }

    /** Core-to-hierarchy mail time, there and back. */
    static constexpr Tick mailRoundTrip = 2 * portLegLatency;

    EventQueue eq;
    MemoryImage img;
    HierarchyParams params;
    /** The PM controller's parameters; set before build(). */
    MemControllerParams pmParams;
    std::unique_ptr<MemController> pm;
    std::unique_ptr<MemController> dram;
    std::unique_ptr<Hierarchy> hier;
    MemPort port;
    std::unordered_map<std::uint64_t, Outcome> outcomes;
    /** Tokens in the order their Done responses arrived. */
    std::vector<std::uint64_t> doneOrder;
    std::uint64_t nextToken = 1;
};

TEST_F(HierarchyFixture, ColdLoadMissFillsExclusiveFromMemory)
{
    build();
    auto tok = send(MemRequestKind::Load, 0, lineA);
    eq.run();
    ASSERT_TRUE(out(tok).done);
    // Mail legs + l1 lookup + snoop + l2 lookup + one more mail leg
    // to the PM controller + PM row-miss read.
    Tick expected = mailRoundTrip + params.l1Latency +
                    params.snoopLatency + params.l2Latency +
                    portLegLatency + nsToTicks(346);
    EXPECT_EQ(out(tok).doneAt, expected);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Exclusive);
    EXPECT_NE(hier->l2State(lineA), CoherenceState::Invalid);
    EXPECT_EQ(hier->loadMisses.value(), 1.0);
}

TEST_F(HierarchyFixture, WarmLoadHitsInL1)
{
    build();
    load(0, lineA);
    Tick before = eq.curTick();
    auto tok = send(MemRequestKind::Load, 0, lineA);
    eq.run();
    ASSERT_TRUE(out(tok).done);
    EXPECT_EQ(out(tok).doneAt - before, mailRoundTrip + params.l1Latency);
    EXPECT_EQ(hier->loadHits.value(), 1.0);
}

TEST_F(HierarchyFixture, StoreMissInstallsModifiedAndUpdatesImage)
{
    build();
    store(0, lineA + 8, 1234);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Modified);
    EXPECT_TRUE(hier->l1Dirty(0, lineA));
    EXPECT_EQ(img.readArch(lineA + 8), 1234u);
    EXPECT_EQ(hier->storeMisses.value(), 1.0);
    // Nothing persisted yet.
    EXPECT_FALSE(img.persistedContains(lineA + 8));
}

TEST_F(HierarchyFixture, StoreHitOnOwnedLineIsFast)
{
    build();
    store(0, lineA, 1);
    Tick before = eq.curTick();
    auto tok = send(MemRequestKind::Store, 0, lineA + 8, 2);
    eq.run();
    ASSERT_TRUE(out(tok).done);
    EXPECT_EQ(out(tok).doneAt - before, mailRoundTrip + params.l1Latency);
    EXPECT_EQ(hier->storeHits.value(), 1.0);
}

TEST_F(HierarchyFixture, ReadSharingDemotesOwnerAndDirtiesL2)
{
    build();
    store(0, lineA, 7);
    load(1, lineA);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Shared);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Shared);
    EXPECT_TRUE(hier->l2Dirty(lineA));
    EXPECT_EQ(hier->cacheToCache.value(), 1.0);
}

TEST_F(HierarchyFixture, UpgradeInvalidatesSharers)
{
    build();
    load(0, lineA);
    load(1, lineA); // both shared now
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Shared);
    store(1, lineA, 5);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Invalid);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Modified);
    EXPECT_EQ(hier->upgrades.value(), 1.0);
}

TEST_F(HierarchyFixture, RfoStealsDirtyLineFromRemoteOwner)
{
    build();
    store(0, lineA, 1);
    store(1, lineA, 2);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Invalid);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Modified);
    EXPECT_EQ(img.readArch(lineA), 2u);
    EXPECT_EQ(hier->cacheToCache.value(), 1.0);
}

TEST_F(HierarchyFixture, RfoStallsOnOwnersPersistDrain)
{
    build();
    FakeDrain drain;
    hier->setPersistDrain(0, drain);

    store(0, lineA, 1);
    EXPECT_EQ(drain.recorded, 0u); // stores alone record nothing

    auto tok = send(MemRequestKind::Store, 1, lineA, 2);
    while (!out(tok).acked && !out(tok).nacked)
        ASSERT_TRUE(step());
    ASSERT_TRUE(out(tok).acked);
    // Run a generous amount of simulated time: the RFO must not
    // complete while the owner's persist engine has not drained.
    eq.runUntil(eq.curTick() + nsToTicks(10000));
    EXPECT_FALSE(out(tok).done);
    EXPECT_EQ(drain.recorded, 1u);
    EXPECT_EQ(hier->snoopStalls.value(), 1.0);

    drain.release(1);
    hier->kick();
    eq.run();
    EXPECT_TRUE(out(tok).done);
    EXPECT_EQ(hier->l1State(1, lineA), CoherenceState::Modified);
}

TEST_F(HierarchyFixture, FlushDirtyLinePersistsData)
{
    build();
    store(0, lineA, 42);
    EXPECT_TRUE(flush(0, lineA));
    EXPECT_EQ(img.readPersisted(lineA), 42u);
    // CLWB retains a clean copy.
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Exclusive);
    EXPECT_FALSE(hier->l1Dirty(0, lineA));
    EXPECT_EQ(hier->flushesDirty.value(), 1.0);
}

TEST_F(HierarchyFixture, FlushCleanLineDoesNotWritePm)
{
    build();
    load(0, lineA);
    EXPECT_FALSE(flush(0, lineA));
    EXPECT_EQ(hier->flushesClean.value(), 1.0);
    EXPECT_FALSE(img.persistedContains(lineA));
}

TEST_F(HierarchyFixture, FlushAbsentLineCompletesClean)
{
    build();
    EXPECT_FALSE(flush(0, lineB));
}

TEST_F(HierarchyFixture, FlushFindsDirtyLineInRemoteL1)
{
    build();
    store(1, lineA, 9);
    EXPECT_TRUE(flush(0, lineA));
    EXPECT_EQ(img.readPersisted(lineA), 9u);
    EXPECT_FALSE(hier->l1Dirty(1, lineA));
}

TEST_F(HierarchyFixture, FlushSnapshotExcludesLaterStores)
{
    build();
    store(0, lineA, 1);
    auto flushTok = send(MemRequestKind::Flush, 0, lineA);
    // Let the flush pass its lookup point (one mail leg plus the L1
    // read, plus the response leg of the FlushStarted notification),
    // then store again before the PM ack arrives.
    eq.runUntil(eq.curTick() + 2 * portLegLatency + params.l1Latency);
    EXPECT_TRUE(out(flushTok).started);
    auto storeTok = send(MemRequestKind::Store, 0, lineA, 2);
    eq.run();
    EXPECT_TRUE(out(flushTok).done);
    EXPECT_TRUE(out(storeTok).done);
    EXPECT_EQ(img.readPersisted(lineA), 1u);
    EXPECT_EQ(img.readArch(lineA), 2u);
}

TEST_F(HierarchyFixture, MshrLimitBoundsOutstandingMisses)
{
    build();
    // Mail more loads than there are MSHRs, back to back: they all
    // reach the hierarchy in one batch, and the overflow is Nacked.
    std::vector<std::uint64_t> toks;
    for (unsigned i = 0; i < params.l1Mshrs + 2; ++i) {
        Addr addr = pmBase + 0x10000 + i * 0x1000;
        toks.push_back(send(MemRequestKind::Load, 0, addr));
    }
    eq.run();
    unsigned accepted = 0;
    unsigned nacked = 0;
    for (auto tok : toks) {
        if (out(tok).done)
            ++accepted;
        if (out(tok).nacked)
            ++nacked;
    }
    EXPECT_EQ(accepted, params.l1Mshrs);
    EXPECT_EQ(nacked, 2u);
    // After draining, new misses are accepted again.
    auto tok = send(MemRequestKind::Load, 0, pmBase + 0x80000);
    eq.run();
    EXPECT_TRUE(out(tok).done);
}

TEST_F(HierarchyFixture, MissesToSameLineMergeInOneMshr)
{
    build();
    auto a = send(MemRequestKind::Load, 0, lineA);
    auto b = send(MemRequestKind::Load, 0, lineA + 8);
    eq.run();
    EXPECT_TRUE(out(a).done);
    EXPECT_TRUE(out(b).done);
    EXPECT_EQ(hier->loadMisses.value(), 2.0);
    // Only one memory read should have been issued.
    EXPECT_EQ(pm->numReads.value(), 1.0);
}

TEST_F(HierarchyFixture, StoresAndLoadMergeOntoOneRfo)
{
    build();
    // Mailed back to back, all three reach the hierarchy in one
    // batch: the first store opens an RFO, and the load and the second
    // store wait on its MSHR.
    auto first = send(MemRequestKind::Store, 0, lineA, 1);
    auto merged = send(MemRequestKind::Load, 0, lineA + 8);
    auto second = send(MemRequestKind::Store, 0, lineA, 2);
    eq.run();
    EXPECT_TRUE(out(first).acked);
    EXPECT_TRUE(out(second).acked);
    // One Done each, in arrival order, under each request's own token.
    for (auto tok : {first, merged, second})
        EXPECT_EQ(out(tok).dones, 1u);
    EXPECT_EQ(doneOrder, (std::vector<std::uint64_t>{first, merged, second}));
    // Both stores retired into the filled line, the later one last.
    EXPECT_EQ(img.readArch(lineA), 2u);
    EXPECT_EQ(hier->l1State(0, lineA), CoherenceState::Modified);
    EXPECT_EQ(hier->storeMisses.value(), 2.0);
    EXPECT_EQ(hier->loadMisses.value(), 1.0);
    EXPECT_EQ(pm->numReads.value(), 1.0);
}

TEST_F(HierarchyFixture, StoreDuringSharedFillIsNacked)
{
    build();
    auto fill = send(MemRequestKind::Load, 0, lineA);
    auto refused = send(MemRequestKind::Store, 0, lineA, 5);
    eq.run();
    EXPECT_TRUE(out(fill).done);
    // A shared fill cannot grant ownership: the store is refused, not
    // merged, and never writes.
    EXPECT_TRUE(out(refused).nacked);
    EXPECT_FALSE(out(refused).acked);
    EXPECT_EQ(out(refused).dones, 0u);
    EXPECT_EQ(img.readArch(lineA), 0u);
    EXPECT_EQ(pm->numReads.value(), 1.0);
}

TEST_F(HierarchyFixture, CapacityEvictionWritesBackThroughL2)
{
    // Shrink both levels so evictions happen quickly.
    HierarchyParams p;
    p.l1Size = 256;  // 2 sets x 2 ways
    p.l2Size = 2048; // 2 sets x 16 ways
    build(1, p);

    // Dirty three conflicting L1 lines (same L1 set: stride 128).
    // With 2 ways the third store evicts a dirty victim.
    store(0, pmBase + 0, 1);
    store(0, pmBase + 128, 2);
    store(0, pmBase + 256, 3);
    eq.run();
    EXPECT_GE(hier->l1Writebacks.value(), 1.0);
    // The write-back landed in the L2 and marked it dirty.
    EXPECT_TRUE(hier->l2Dirty(pmBase + 0));
}

TEST_F(HierarchyFixture, WritebackWaitsForPersistClearance)
{
    HierarchyParams p;
    p.l1Size = 256;
    build(1, p);
    FakeDrain drain;
    hier->setPersistDrain(0, drain);

    store(0, pmBase + 0, 1);
    store(0, pmBase + 128, 2);
    store(0, pmBase + 256, 3); // evicts a dirty line into the WB buffer
    eq.run();
    EXPECT_EQ(hier->writebacksPending(), 1u);
    EXPECT_EQ(drain.recorded, 1u);

    // Each drain attempt asks the live engine again; until the point
    // passes the write-back stays.
    const unsigned asked = drain.evaluations;
    hier->kick();
    EXPECT_GT(drain.evaluations, asked);
    EXPECT_EQ(hier->writebacksPending(), 1u);

    // The point passing alone moves nothing: the engine's progress
    // reaches the buffer when the next drain attempt asks.
    drain.release(1);
    EXPECT_EQ(hier->writebacksPending(), 1u);
    hier->kick();
    eq.run();
    EXPECT_EQ(hier->writebacksPending(), 0u);
    EXPECT_TRUE(hier->l2Dirty(pmBase + 0));
}

TEST_F(HierarchyFixture, BlockedWritebackHoldsYoungerOnes)
{
    HierarchyParams p;
    p.l1Size = 256; // 2 sets x 2 ways: stride 128 shares a set
    build(1, p);
    FakeDrain drain;
    hier->setPersistDrain(0, drain);

    for (unsigned i = 0; i < 4; ++i)
        store(0, pmBase + i * 128, i + 1);
    eq.run();
    // The third and fourth stores each evicted one dirty line.
    ASSERT_EQ(hier->writebacksPending(), 2u);

    // The younger write-back's point passes first; it still waits
    // behind the older one.
    drain.release(2);
    hier->kick();
    eq.run();
    EXPECT_EQ(hier->writebacksPending(), 2u);

    drain.release(1);
    hier->kick();
    eq.run();
    EXPECT_EQ(hier->writebacksPending(), 0u);
    EXPECT_TRUE(hier->l2Dirty(pmBase + 0));
    EXPECT_TRUE(hier->l2Dirty(pmBase + 128));
}

TEST_F(HierarchyFixture, FillWaitsForFullWritebackBuffer)
{
    HierarchyParams p;
    p.l1Size = 256;
    p.writebackEntries = 1;
    build(1, p);
    FakeDrain drain;
    hier->setPersistDrain(0, drain);

    store(0, pmBase + 0, 1);
    store(0, pmBase + 128, 2);
    store(0, pmBase + 256, 3); // its victim fills the one WB entry
    ASSERT_EQ(hier->writebacksPending(), 1u);

    // This fill's dirty victim meets the full buffer, so the store
    // cannot retire until the head's drain point passes.
    auto tok = send(MemRequestKind::Store, 0, pmBase + 384, 4);
    eq.runUntil(eq.curTick() + nsToTicks(10000));
    EXPECT_TRUE(out(tok).acked);
    EXPECT_FALSE(out(tok).done);
    EXPECT_EQ(hier->writebackStalls.value(), 1.0);

    drain.release(1);
    hier->kick();
    eq.run();
    EXPECT_TRUE(out(tok).done);
    EXPECT_EQ(img.readArch(pmBase + 384), 4u);
    EXPECT_EQ(hier->writebackStalls.value(), 1.0);
    // The new victim waits in the buffer for its own point.
    EXPECT_EQ(hier->writebacksPending(), 1u);
}

TEST_F(HierarchyFixture, NackedReadWaitsForFreedSpace)
{
    pmParams.readQueueEntries = 1;
    build();
    // Two misses to different PM lines: the controller admits one
    // read and Nacks the other.
    auto a = send(MemRequestKind::Load, 0, lineA);
    auto b = send(MemRequestKind::Load, 1, lineB);
    eq.run();
    EXPECT_TRUE(out(a).done);
    EXPECT_TRUE(out(b).done);
    EXPECT_EQ(pm->numReads.value(), 2.0);
    // The refused read is re-mailed once, when the first read frees
    // its slot, not on every port round trip until then.
    EXPECT_EQ(pm->numRetries.value(), 1.0);
}

TEST_F(HierarchyFixture, ReadNackedAsSpaceFreesIsRemailed)
{
    pmParams.readQueueEntries = 1;
    build();
    // Time the second miss so the controller refuses it just before
    // the first read returns: the slot frees while the Nack is still
    // in the mail, so no later freed report will come for it.
    auto a = send(MemRequestKind::Load, 0, lineA);
    eq.runUntil(eq.curTick() + pmParams.readLatency - portLegLatency / 2);
    auto b = send(MemRequestKind::Load, 1, lineB);
    eq.run();
    EXPECT_TRUE(out(a).done);
    EXPECT_TRUE(out(b).done);
    EXPECT_EQ(pm->numReads.value(), 2.0);
    EXPECT_EQ(pm->numRetries.value(), 1.0);
}

TEST_F(HierarchyFixture, WaitingWorkNamesUnpassedDrainPoints)
{
    HierarchyParams p;
    p.l1Size = 256;  // 2 sets x 2 ways
    p.l2Size = 1024; // 1 set x 16 ways
    build(1, p);
    FakeDrain drain; // no point passes until released
    hier->setPersistDrain(0, drain);

    // Three dirty lines in L1 set 0: the third store sends the first
    // line to the write-back buffer, waiting on point 1.
    const Addr x = pmBase + 0;
    const Addr y = pmBase + 128;
    store(0, x, 1);
    store(0, y, 2);
    store(0, pmBase + 256, 3);
    // Clean loads through L1 set 1 fill the L2 until it victimizes
    // the second line: its dirty L1 copy leaves as an L2 eviction
    // waiting on point 2.
    for (unsigned i = 0; i < 15; ++i)
        load(0, pmBase + (2 * i + 1) * 64);
    eq.run();
    ASSERT_EQ(hier->writebacksPending(), 1u);

    auto line = [](Addr addr) {
        std::ostringstream os;
        os << "of line 0x" << std::hex << addr;
        return os.str();
    };
    const std::string report = hier->describeWaitingWork();
    EXPECT_EQ(report,
              "0 parked transactions, 0 refused reads\n"
              "  L2 eviction " + line(y) + " waits for core 0's drain "
              "point (position 2, seq 0): not passed\n"
              "  write-back head (1 of 1) " + line(x) + " waits for "
              "core 0's drain point (position 1, seq 0): not passed");

    // Once the points pass, the report says so and the work drains.
    drain.release(1);
    drain.release(2);
    EXPECT_EQ(hier->describeWaitingWork().find("not passed"),
              std::string::npos);
    hier->kick();
    eq.run();
    EXPECT_TRUE(hier->idle());
    EXPECT_EQ(img.readPersisted(x), 1u);
    EXPECT_EQ(img.readPersisted(y), 2u);
}

TEST_F(HierarchyFixture, L2CapacityEvictionPersistsDirtyData)
{
    HierarchyParams p;
    p.l1Size = 256;
    p.l2Size = 1024; // 1 set x 16 ways: 16 lines total
    p.l2Ways = 16;
    build(1, p);

    // Dirty more lines than the L2 can hold; evictions must reach PM.
    for (unsigned i = 0; i < 24; ++i)
        store(0, pmBase + i * 64, i + 1);
    eq.run();
    EXPECT_GE(hier->l2Evictions.value(), 1.0);
    EXPECT_GE(pm->numWrites.value(), 1.0);
    EXPECT_GT(img.persistedWords(), 0u);
}

TEST_F(HierarchyFixture, DramTrafficDoesNotPersist)
{
    build();
    store(0, dramBase + 0x100, 5);
    EXPECT_TRUE(flush(0, dramBase + 0x100) == true ||
                img.persistedWords() == 0u);
    eq.run();
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST_F(HierarchyFixture, ConcurrentMissesToDistinctLinesOverlap)
{
    build();
    auto a = send(MemRequestKind::Load, 0, pmBase + 0x100000);
    auto b = send(MemRequestKind::Load, 0, pmBase + 0x200000);
    eq.run();
    ASSERT_TRUE(out(a).done);
    ASSERT_TRUE(out(b).done);
    // Different banks: the two fills overlap almost entirely.
    Tick serial = 2 * (params.l1Latency + params.snoopLatency +
                       params.l2Latency + nsToTicks(346));
    EXPECT_LT(std::max(out(a).doneAt, out(b).doneAt), serial);
}

TEST_F(HierarchyFixture, HierarchyReportsIdleAfterDraining)
{
    build();
    store(0, lineA, 1);
    flush(0, lineA);
    eq.run();
    EXPECT_TRUE(hier->idle());
}

} // namespace
} // namespace strand
