// The benchmark's named workloads and the code that runs one of them.
//
// Every workload runs an open-loop Poisson arrival chain over a fixed set
// of simulated connections against a ShardedTroxyCluster (S = 1 is the
// plain Troxy deployment) serving EchoService. Links are LAN links with
// no jitter, so modeled latency is processing and queueing only. Each
// request is timed from the instant it was due, and every reply passes
// the EchoChecker.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace perfbench {

class Tracer;

struct WorkloadSpec {
    const char* name = "";
    const char* why = "";

    // Deployment.
    int shards = 1;
    int fronts = 1;
    /// The production knobs: leader batching, coalesced zero-copy wire,
    /// batched vote, fast-read and reply-authentication ecalls. Off means
    /// every knob at its seed default.
    bool production_knobs = false;
    /// Failure-detection timeouts short enough for a crash to resolve
    /// inside one run (only the fault workload sets this).
    bool fast_failover = false;

    // Traffic.
    int connections = 32;
    std::uint64_t virtual_clients = 1024;
    std::uint64_t keys = 65536;
    double zipf_s = 0.0;
    double read_fraction = 0.0;
    double cross_fraction = 0.0;  // share of writes that are two-key
    double churn_per_sec = 0.0;

    /// Independent deployments (seeds derived from the run's seed) whose
    /// requests are pooled into one nominal measurement; more than one
    /// averages out the randomness of a single fault episode.
    int deployments = 1;

    // Offered load: the nominal rate and the ascending ladder slo_rps is
    // read from.
    double nominal_rate = 0.0;
    std::vector<double> ladder;

    // Simulated time. The windows scale with the --seconds argument.
    double window_per_second = 0.0;         // nominal-run window, sim s
    double ladder_window_per_second = 0.0;  // per ladder rung, sim s
    troxy::sim::Duration drain = 0;         // after the nominal window

    // Fault: the view-0 primary of shard 0 crashes crash_after the
    // warmup and restarts `downtime` later.
    bool leader_crash = false;
    troxy::sim::Duration crash_after = 0;
    troxy::sim::Duration downtime = 0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

struct RunConfig {
    double rate = 0.0;
    std::uint64_t seed = 1;
    troxy::sim::Duration window = 0;
    troxy::sim::Duration drain = 0;
    bool crash = false;             // apply the spec's leader crash
    bool check_convergence = true;  // quorum agreement at the end
    bool setup_only = false;        // stop after the warmup
    Tracer* tracer = nullptr;       // non-null: the traced run
};

/// Counters of one run, taken from public Status/*Stats/busy_time
/// accessors over the measured section (end of warmup to end of drain).
struct LayerCounters {
    std::uint64_t events = 0;
    std::uint64_t allocations = 0;
    std::uint64_t heap_callbacks = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    double leader_busy_frac = 0.0;
    double follower_busy_frac = 0.0;
    double front_busy_frac = 0.0;
    double client_busy_frac = 0.0;

    std::uint64_t wire_msgs = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t bytes_referenced = 0;
    std::uint64_t materializations = 0;
    std::uint64_t drops = 0;
    std::uint64_t credit_stalls = 0;

    std::uint64_t enclave_transitions = 0;

    std::uint64_t ordered_requests = 0;
    std::uint64_t batches_cut = 0;
    std::uint64_t exec_conflict_stalls = 0;
    std::uint64_t view_changes = 0;
    std::uint64_t state_transfers = 0;
    std::uint64_t st_bytes_sent = 0;
    std::uint64_t st_chunks_reused = 0;

    std::uint64_t fast_read_hits = 0;
    std::uint64_t fast_read_misses = 0;
    std::uint64_t fast_read_conflicts = 0;
    std::uint64_t reply_batches = 0;
    std::uint64_t batched_replies = 0;
    std::uint64_t cache_invalidations = 0;
    std::uint64_t front_cross_commits = 0;
    std::uint64_t front_cross_lock_waits = 0;
    double front_cross_p99_ms = 0.0;
    std::uint64_t front_inflight_peak = 0;
    std::uint64_t client_failovers = 0;
};

struct RunResult {
    // Modeled (deterministic per seed).
    std::uint64_t issued = 0;          // every request the run sent
    std::uint64_t incomplete = 0;      // no reply by the end of the drain
    std::uint64_t writes_issued = 0;   // inside the window
    std::uint64_t window_issued = 0;   // due inside the window
    std::uint64_t window_completed = 0;  // completions inside the window
    std::uint64_t window_finished = 0;   // window-issued with a reply
    double throughput_rps = 0.0;
    /// Over window-issued requests; one never answered counts with its
    /// age at the end of the run.
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double unavailable_ms = 0.0;
    double lag_ms = 0.0;
    /// Latencies of the window-issued requests (as above), sorted.
    std::vector<troxy::sim::Duration> latencies;
    std::uint64_t violations = 0;
    std::vector<std::string> errors;
    /// Hash over every latency, completion time and wire counter: equal
    /// fingerprints mean bit-identical modeled runs.
    std::uint64_t fingerprint = 0;
    LayerCounters layers;
    /// Index of the first span recorded after the warmup (traced run).
    std::size_t trace_mark = 0;

    // Host (wall clock).
    double setup_s = 0.0;
    double window_wall_s = 0.0;    // the window alone
    double measured_wall_s = 0.0;  // warmup end to drain end
    [[nodiscard]] double host_us_per_req() const {
        return window_issued == 0
                   ? 0.0
                   : window_wall_s * 1e6 / static_cast<double>(window_issued);
    }
};

/// Builds the deployment, runs warmup, window and drain, and checks every
/// reply (and, if asked, replica convergence).
[[nodiscard]] RunResult run_workload(const WorkloadSpec& spec,
                                     const RunConfig& config);

/// Runs the spec's deployments for one nominal measurement (seeds derived
/// from config.seed; the first uses it unchanged) and pools them:
/// percentiles over every pooled request, throughput over the summed
/// windows, counts and wall times summed, the worst gap and lag. Layer
/// counters and the setup time come from the first deployment; every
/// deployment's setup time is appended to `setups` if given.
[[nodiscard]] RunResult run_pooled(const WorkloadSpec& spec,
                                   const RunConfig& config,
                                   std::vector<double>* setups = nullptr);

/// Simulated length of a window of `per_second` × `seconds`.
[[nodiscard]] troxy::sim::Duration scaled_window(double per_second,
                                                 double seconds);

}  // namespace perfbench
