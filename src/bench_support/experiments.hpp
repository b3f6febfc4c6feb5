// Experiment runner shared by the figure benchmarks.
//
// Each paper experiment is a (system, workload, network) triple; this
// module builds the matching cluster, drives the workload for a warmup
// plus measurement window, and returns throughput/latency/behaviour
// counters. Benchmarks stay thin: they sweep parameters and print the
// paper's rows.
#pragma once

#include <string>

#include "bench_support/cluster.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/workload.hpp"

namespace troxy::bench {

enum class SystemKind {
    Baseline,  // original Hybster + client-side library ("BL")
    CTroxy,    // Troxy outside the enclave (JNI-only costs)
    ETroxy,    // Troxy inside the simulated enclave
};

[[nodiscard]] std::string system_name(SystemKind kind);

struct MicroParams {
    // --- workload ---
    bool read_workload = false;  // reads (10 B req / reply_size) instead of
                                 // writes (request_size / 10 B ack)
    std::size_t request_size = 256;
    std::size_t reply_size = 10;
    double write_fraction = 0.0;  // mixed workload share of writes
    int key_count = 16;

    // --- load ---
    int clients = 40;
    int pipeline = 4;
    sim::SimTime warmup = sim::milliseconds(300);
    sim::Duration window = sim::seconds(1);

    // --- system ---
    /// The deployment: wan_clients, lan_jitter, seed and the ordering
    /// knobs (batching, coalesce_wire, execution lanes). cluster.seed
    /// also seeds the workload.
    ClusterOptions cluster{.seed = 42};
    /// Troxy host knobs: the fast-read cache, its miss-rate monitor,
    /// enclave costs, voter and fast-read batching, batched reply
    /// certification. Remote cache queries cross the replica LAN, but
    /// under heavy load their processing queues behind the enclave's
    /// thread budget; the fast-read timeout is a liveness backstop, not a
    /// performance path, so it sits well above worst-case queueing (WAN
    /// experiments raise it to 500 ms).
    troxy_core::TroxyReplicaHost::Options host{
        .fast_read_timeout = sim::milliseconds(100)};
    /// Legacy-client knobs of the Troxy systems (e.g. coalesce_sends).
    troxy_core::LegacyClient::Options client;
    /// BL only: PBFT-like read optimization.
    bool baseline_optimistic_reads = false;
};

struct MicroResult {
    Row row;
    /// Troxy enclave counters summed over replicas, spanning enclave
    /// recoveries (zero for the baseline; gauges are not summed).
    troxy_core::TroxyEnclave::Status troxy;
    // Baseline read-optimization counters.
    std::uint64_t optimistic_attempts = 0;
    std::uint64_t read_conflicts = 0;
    // Simulated wire totals of the Troxy systems (records after
    // coalescing).
    std::uint64_t wire_messages = 0;
    std::uint64_t wire_bytes = 0;

    /// Fraction of read attempts that ended in a *conflict*: for BL,
    /// optimistic reads whose replies disagreed and had to be re-ordered;
    /// for Troxy, fast reads whose remote cache comparison failed. Local
    /// cache misses are not conflicts — they are the conservative
    /// invalidation at work (the read is simply ordered).
    [[nodiscard]] double conflict_rate() const;
};

/// Runs one microbenchmark configuration (§VI-C).
MicroResult run_micro(SystemKind system, const MicroParams& params);

// ----------------------------------------------------------- HTTP service

enum class HttpSystem { Standalone, Baseline, Prophecy, Troxy };

[[nodiscard]] std::string http_system_name(HttpSystem system);

struct HttpParams {
    int clients = 100;
    double total_rate_per_sec = 500.0;  // across all clients (§VI-D)
    double post_fraction = 0.1;
    int page_count = 32;
    sim::SimTime warmup = sim::milliseconds(500);
    sim::Duration window = sim::seconds(4);
    /// The deployment of every compared system (wan_clients, seed, ...).
    /// cluster.seed also seeds the workload.
    ClusterOptions cluster{.seed = 7};
};

/// Runs the §VI-D HTTP latency experiment for one system.
Row run_http(HttpSystem system, const HttpParams& params);

}  // namespace troxy::bench
