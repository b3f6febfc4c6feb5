// Chaos harness tests: seeded fault schedules against the Troxy cluster
// with safety (linearizability of voted replies) and liveness (every
// request completes once faults heal) checking, plus crash-recovery
// rejoin and bit-identical replay.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/chaos.hpp"
#include "bench_support/cluster.hpp"

namespace troxy {
namespace {

using apps::EchoService;

std::string report_summary(const bench::ChaosReport& report) {
    std::string out = "completed " + std::to_string(report.completed) + "/" +
                      std::to_string(report.issued) + ", violations " +
                      std::to_string(report.violations);
    for (const std::string& error : report.errors) out += "\n  " + error;
    out += "\nplan:\n" + report.plan_trace;
    return out;
}

// The ISSUE scenario as an explicit plan: crash one replica mid-load,
// partition the surviving Troxies for 2 simulated seconds, heal. Must
// hold safety and complete every request for several distinct seeds
// (the seed still drives workload timing and network jitter).
TEST(Chaos, CrashPlusPartitionScenarioAcrossSeeds) {
    for (const std::uint64_t seed : {7u, 11u, 13u, 17u, 19u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        // Replica r lives on server node r+1 (ids are assigned in
        // construction order starting at 1); clients are unlisted and
        // keep their links.
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
        EXPECT_EQ(report.restarts, 1u) << "seed " << seed;
    }
}

// Randomized schedules (crash + partition + link flap + loss window, all
// derived from the seed) across several seeds: the invariants must hold
// no matter what the generator draws.
TEST(Chaos, RandomSchedulesAcrossSeeds) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }
}

// Replaying the same seed yields the same fault schedule, the same
// message interleaving and the same drop decisions — bit-identical
// counters. A different seed diverges.
TEST(Chaos, SameSeedReplaysIdentically) {
    bench::ChaosOptions options;
    options.cluster.seed = 3;
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);

    EXPECT_EQ(a.plan_trace, b.plan_trace);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.drops.by_loss, b.drops.by_loss);
    EXPECT_EQ(a.drops.by_link_down, b.drops.by_link_down);
    EXPECT_EQ(a.drops.by_partition, b.drops.by_partition);
    EXPECT_EQ(a.drops.bytes, b.drops.bytes);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.view_changes, b.view_changes);
    EXPECT_EQ(a.state_transfers, b.state_transfers);

    bench::ChaosOptions other = options;
    other.cluster.seed = 4;
    const bench::ChaosReport c = bench::run_chaos(other);
    EXPECT_NE(a.plan_trace, c.plan_trace);
}

// The batching pipeline under fire: a leader crash lands while batches
// are in flight (some prepared but not committed, some still pending in
// the leader's uncut batch), followed by a restart. View change must
// repropose the prepared batches and forwarding must rescue the rest —
// safety and liveness hold for several distinct seeds.
TEST(Chaos, LeaderCrashWithBatchingInFlight) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        options.cluster.batch_size_max = 8;
        options.cluster.batch_delay = sim::milliseconds(5);
        // Short think time keeps several requests in flight so batches
        // actually form around the crash instant.
        options.think_time = sim::milliseconds(20);
        // Replica 0 (the view-0 leader) lives on server node 1.
        options.plan.crash(sim::milliseconds(1500), 1)
            .restart(sim::milliseconds(4500), 1);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
        EXPECT_GE(report.view_changes, 1u) << "seed " << seed;
        EXPECT_EQ(report.restarts, 1u) << "seed " << seed;
    }
}

// Determinism survives batching: with batch cuts driven by both the size
// and delay boundaries, replaying a seed still reproduces bit-identical
// network counters.
TEST(Chaos, BatchedSameSeedReplaysIdentically) {
    bench::ChaosOptions options;
    options.cluster.seed = 3;
    options.cluster.batch_size_max = 8;
    options.cluster.batch_delay = sim::milliseconds(5);
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);

    EXPECT_EQ(a.plan_trace, b.plan_trace);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.drops.by_loss, b.drops.by_loss);
    EXPECT_EQ(a.drops.by_link_down, b.drops.by_link_down);
    EXPECT_EQ(a.drops.by_partition, b.drops.by_partition);
    EXPECT_EQ(a.drops.bytes, b.drops.bytes);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.view_changes, b.view_changes);
    EXPECT_EQ(a.state_transfers, b.state_transfers);

    // Batching changes the message flow relative to the unbatched run of
    // the same seed — fewer agreement messages for the same workload.
    bench::ChaosOptions unbatched = options;
    unbatched.cluster.batch_size_max = 1;
    unbatched.cluster.batch_delay = 0;
    const bench::ChaosReport c = bench::run_chaos(unbatched);
    EXPECT_EQ(c.completed, a.completed);
    EXPECT_NE(a.messages_sent, c.messages_sent);
}

// Parallel execution lanes under fire: with execution_lanes > 1 the
// replicas charge conflict-aware makespans instead of serial sums for
// every committed batch — through crashes, partitions and view changes
// the linearizability checker and the wire counters must behave exactly
// like a (slower) serial run, because lanes change modeled time only.
TEST(Chaos, ExecutionLanesStayLinearizableAndDeterministic) {
    for (const std::uint64_t seed : {7u, 11u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        options.cluster.batch_size_max = 8;
        options.cluster.batch_delay = sim::milliseconds(5);
        options.cluster.execution_lanes = 4;
        options.think_time = sim::milliseconds(20);
        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }

    // Same-seed replay stays bit-identical with lanes on.
    bench::ChaosOptions options;
    options.cluster.seed = 3;
    options.cluster.batch_size_max = 8;
    options.cluster.batch_delay = sim::milliseconds(5);
    options.cluster.execution_lanes = 4;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);
    EXPECT_TRUE(a.ok()) << report_summary(a);
    EXPECT_EQ(a.plan_trace, b.plan_trace);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.view_changes, b.view_changes);
}

// Batched voting plus wire coalescing under fire: replies cross the wire
// as Bundle frames, enter the enclave in handle_replies batches, and the
// ordering pipeline batches too — through a crash, a partition and the
// random fault mix, linearizability of every voted reply and completion
// of every request must still hold.
TEST(Chaos, BatchedVotingWithCoalescingStaysLinearizable) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        options.cluster.batch_size_max = 8;
        options.cluster.batch_delay = sim::milliseconds(5);
        options.host.voter_batch_max = 8;
        options.cluster.coalesce_wire = true;
        options.host.coalesce_wire = true;
        options.think_time = sim::milliseconds(20);
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }
    // Coalescing is observable on the wire (fewer records for the same
    // workload) while remaining deterministic per seed.
    bench::ChaosOptions options;
    options.cluster.seed = 3;
    options.host.voter_batch_max = 8;
    options.cluster.coalesce_wire = true;
    options.host.coalesce_wire = true;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);
    EXPECT_TRUE(a.ok()) << report_summary(a);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.completed, b.completed);

    bench::ChaosOptions plain = options;
    plain.host.voter_batch_max = 1;
    plain.cluster.coalesce_wire = false;
    plain.host.coalesce_wire = false;
    const bench::ChaosReport c = bench::run_chaos(plain);
    EXPECT_EQ(c.completed, a.completed);
    EXPECT_LT(a.messages_sent, c.messages_sent);
}

// The scatter-gather wire path under fire: coalesced bursts travel as
// fragment chains over a kernel-bypass transport (per-peer credit
// window armed) through crashes and partitions. Safety and liveness
// must hold, the wire bytes must match the flattened-Bundle flow
// exactly, and the report's pool/wire counters must surface the
// zero-copy traffic.
TEST(Chaos, ZeroCopyWirePathStaysLinearizable) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        options.cluster.batch_size_max = 8;
        options.cluster.batch_delay = sim::milliseconds(5);
        options.host.voter_batch_max = 8;
        options.cluster.coalesce_wire = true;
        options.host.coalesce_wire = true;
        options.cluster.wire_zero_copy = true;
        options.cluster.transport = sim::TransportProfile::bypass();
        options.think_time = sim::milliseconds(20);
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
        EXPECT_GT(report.wire.frames_zero_copy, 0u);
        EXPECT_GT(report.wire.bytes_referenced, report.wire.bytes_copied);
        EXPECT_GT(report.pool_hit_rate, 0.5);
    }
    // Zero-copy changes how frames are carried, not what is on the wire:
    // the same seed under the flattened-Bundle flow ships the identical
    // message and byte totals.
    bench::ChaosOptions options;
    options.cluster.seed = 3;
    options.host.voter_batch_max = 8;
    options.cluster.coalesce_wire = true;
    options.host.coalesce_wire = true;
    options.cluster.wire_zero_copy = true;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport zc = bench::run_chaos(options);
    bench::ChaosOptions copying = options;
    copying.cluster.wire_zero_copy = false;
    const bench::ChaosReport flat = bench::run_chaos(copying);
    EXPECT_TRUE(zc.ok()) << report_summary(zc);
    EXPECT_EQ(zc.messages_sent, flat.messages_sent);
    EXPECT_EQ(zc.bytes_sent, flat.bytes_sent);
    EXPECT_EQ(zc.completed, flat.completed);
}

// The batched fast-read pipeline under fire: a read-heavy workload keeps
// the cache-quorum path hot, cache queries cross the wire as
// CacheQueryBatch bursts, responses apply in handle_cache_responses
// bursts and executed batches are certified via authenticate_replies —
// through a crash, a partition and the random fault mix, every voted or
// fast-read reply must stay linearizable and every request complete.
// (Crashes also exercise the flush-timer generation guard: buffered
// queries die with the host and the timer must not fire into the
// restarted Troxy.)
TEST(Chaos, BatchedFastReadsStayLinearizable) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        options.write_fraction = 0.2;  // read-heavy: fast reads dominate
        options.host.fastread_batch_max = 16;
        options.host.voter_batch_max = 8;
        options.host.batch_reply_auth = true;
        options.cluster.coalesce_wire = true;
        options.host.coalesce_wire = true;
        options.cluster.batch_size_max = 8;
        options.cluster.batch_delay = sim::milliseconds(5);
        options.think_time = sim::milliseconds(20);
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }
    // Same-seed replay stays bit-identical with the read pipeline on, and
    // batching is observable as fewer wire messages than the seed flow.
    bench::ChaosOptions options;
    options.cluster.seed = 3;
    options.write_fraction = 0.2;
    options.host.fastread_batch_max = 16;
    options.host.voter_batch_max = 8;
    options.host.batch_reply_auth = true;
    options.cluster.coalesce_wire = true;
    options.host.coalesce_wire = true;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);
    EXPECT_TRUE(a.ok()) << report_summary(a);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.completed, b.completed);

    bench::ChaosOptions plain = options;
    plain.host.fastread_batch_max = 1;
    plain.host.voter_batch_max = 1;
    plain.host.batch_reply_auth = false;
    plain.cluster.coalesce_wire = false;
    plain.host.coalesce_wire = false;
    const bench::ChaosReport c = bench::run_chaos(plain);
    EXPECT_EQ(c.completed, a.completed);
    EXPECT_LT(a.messages_sent, c.messages_sent);
}

// A crashed-and-restarted replica provably rejoins: it comes back empty,
// fetches the latest stable checkpoint via state transfer and catches up
// to the quorum's execution point.
TEST(Chaos, RestartedReplicaRejoinsViaStateTransfer) {
    bench::TroxyCluster::Params params;
    params.base.seed = 21;
    params.base.checkpoint_interval = 8;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.host.vote_timeout = sim::milliseconds(300);
    params.client.connection_timeout = sim::milliseconds(500);
    bench::TroxyCluster cluster(params);

    auto& client = cluster.add_client(0);
    int done = 0;
    std::function<void(int)> write_loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(EchoService::make_write(1, 64), [&, remaining](Bytes) {
            ++done;
            write_loop(remaining - 1);
        });
    };
    client.start([&]() { write_loop(12); });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(done, 12);

    cluster.crash_host(2);
    ASSERT_TRUE(cluster.host(2).crashed());

    // Enough writes while replica 2 is down that the survivors stabilize
    // checkpoints past its last execution point.
    write_loop(24);
    cluster.simulator().run_until(sim::seconds(15));
    ASSERT_EQ(done, 36);
    const auto quorum_executed = cluster.host(0).replica().last_executed();
    ASSERT_GT(quorum_executed, cluster.host(2).replica().last_executed());

    cluster.restart_host(2);
    EXPECT_FALSE(cluster.host(2).crashed());
    EXPECT_EQ(cluster.host(2).restarts(), 1u);

    // A little traffic after the restart lets the rejoiner finish its
    // forced view change and execute the reproposed tail.
    write_loop(6);
    cluster.simulator().run_until(sim::seconds(30));
    ASSERT_EQ(done, 42);

    auto& rejoined = cluster.host(2).replica();
    EXPECT_FALSE(rejoined.rejoining());
    EXPECT_GE(rejoined.state_transfers(), 1u);
    EXPECT_GE(rejoined.last_executed(), quorum_executed);
    EXPECT_EQ(rejoined.service().checkpoint(),
              cluster.host(0).replica().service().checkpoint());
}


// Engine A/B under chaos and ASan: the calendar scheduler must replay
// full fault-injection runs — crashes, partitions, loss, view changes,
// state transfer — with byte-for-byte the verdicts and counters of the
// binary-heap reference engine, for several seeds. This is the
// end-to-end determinism guarantee the microscopic (time, seq) storm
// test cannot give on its own.
TEST(Chaos, CalendarAndBinaryHeapSchedulersAgree) {
    for (const std::uint64_t seed : {3u, 9u, 21u}) {
        bench::ChaosOptions options;
        options.cluster.seed = seed;
        options.requests_per_client = 25;
        options.horizon = sim::seconds(20);

        options.cluster.scheduler = sim::Simulator::Scheduler::BinaryHeap;
        const bench::ChaosReport heap = bench::run_chaos(options);
        options.cluster.scheduler = sim::Simulator::Scheduler::Calendar;
        const bench::ChaosReport calendar = bench::run_chaos(options);

        EXPECT_TRUE(heap.ok()) << report_summary(heap);
        EXPECT_EQ(heap.ok(), calendar.ok()) << "seed " << seed;
        EXPECT_EQ(heap.violations, calendar.violations) << "seed " << seed;
        EXPECT_EQ(heap.completed, calendar.completed) << "seed " << seed;
        EXPECT_EQ(heap.plan_trace, calendar.plan_trace) << "seed " << seed;
        EXPECT_EQ(heap.messages_sent, calendar.messages_sent)
            << "seed " << seed;
        EXPECT_EQ(heap.bytes_sent, calendar.bytes_sent) << "seed " << seed;
        EXPECT_EQ(heap.failovers, calendar.failovers) << "seed " << seed;
        EXPECT_EQ(heap.view_changes, calendar.view_changes)
            << "seed " << seed;
        EXPECT_EQ(heap.state_transfers, calendar.state_transfers)
            << "seed " << seed;
        EXPECT_EQ(heap.drops.by_loss, calendar.drops.by_loss)
            << "seed " << seed;
        EXPECT_EQ(heap.drops.bytes, calendar.drops.bytes)
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace troxy
