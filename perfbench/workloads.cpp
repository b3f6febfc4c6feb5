#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "alloc_hook.hpp"
#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/workload.hpp"
#include "checker.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace troxy;
using bench::OpenLoopArrival;
using bench::ShardedTroxyCluster;
using bench::ZipfianSampler;
using SteadyClock = std::chrono::steady_clock;

// Request shapes shared by every workload: 256 B writes acked with 10 B,
// reads asking for 1 KiB replies.
constexpr std::size_t kWriteSize = 256;
constexpr std::size_t kReadRequestSize = 64;
constexpr std::size_t kReadReplySize = 1024;
/// Warmup before every window: connection handshakes, then traffic.
constexpr sim::Duration kWarmup = sim::milliseconds(100);

// Why each workload exists is recorded in `why`; the rates were chosen
// from measurement so the nominal rate sits well below each knee and the
// ladder brackets it.
const std::vector<WorkloadSpec>& table() {
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> out;

        WorkloadSpec ordered;
        ordered.name = "ordered-seed";
        ordered.why =
            "every request an ordered 256 B write with all knobs at seed "
            "defaults: the most protocol, ecall and crypto work per "
            "request (paper Fig. 6)";
        ordered.connections = 32;
        ordered.virtual_clients = 4096;
        ordered.read_fraction = 0.0;
        ordered.nominal_rate = 20000.0;
        ordered.ladder = {85000.0, 100000.0};
        ordered.window_per_second = 0.08;
        ordered.ladder_window_per_second = 0.01;
        ordered.drain = sim::milliseconds(200);
        out.push_back(ordered);

        WorkloadSpec reads;
        reads.name = "reads-zipf-batched";
        reads.why =
            "90% Zipf reads under the production knobs: fast-read quorum, "
            "batched ecalls and zero-copy wire do the work, ordering little";
        reads.production_knobs = true;
        reads.connections = 64;
        reads.virtual_clients = 1000000;
        reads.zipf_s = 0.99;
        reads.read_fraction = 0.9;
        reads.churn_per_sec = 20.0;
        reads.nominal_rate = 30000.0;
        reads.ladder = {60000.0, 75000.0, 90000.0};
        reads.window_per_second = 0.08;
        reads.ladder_window_per_second = 0.01;
        reads.drain = sim::milliseconds(200);
        out.push_back(reads);

        WorkloadSpec shard;
        shard.name = "shard-cross";
        shard.why =
            "4 shards behind 2 fronts, half reads, a fifth of writes "
            "cross-shard: the only workload driving routing, the "
            "cross-lock table and batched zero-copy paths";
        shard.shards = 4;
        shard.fronts = 2;
        shard.production_knobs = true;
        shard.connections = 64;
        shard.virtual_clients = 65536;
        shard.keys = 4096;
        shard.read_fraction = 0.5;
        shard.cross_fraction = 0.2;
        shard.nominal_rate = 50000.0;
        shard.ladder = {245000.0, 260000.0};
        shard.window_per_second = 0.12;
        shard.ladder_window_per_second = 0.004;
        shard.drain = sim::milliseconds(100);
        out.push_back(shard);

        WorkloadSpec crash = ordered;
        crash.name = "leader-crash";
        crash.why =
            "ordered-seed with 50% reads while the view-0 primary crashes "
            "and rejoins: the only workload running view change, client "
            "failover and state transfer";
        crash.read_fraction = 0.5;
        crash.fast_failover = true;
        crash.nominal_rate = 10000.0;
        crash.ladder = {80000.0, 100000.0};
        crash.deployments = 4;
        crash.window_per_second = 0.15;
        crash.drain = sim::seconds(2);
        crash.leader_crash = true;
        // Down long enough for the new view to move the stable checkpoint
        // on, so the rejoin ships Merkle chunks instead of reusing its own.
        crash.crash_after = sim::milliseconds(300);
        crash.downtime = sim::milliseconds(1000);
        out.push_back(crash);
        return out;
    }();
    return specs;
}

/// The cluster plus access to its client nodes (protected in the base).
class Deployment : public ShardedTroxyCluster {
  public:
    using ShardedTroxyCluster::ShardedTroxyCluster;

    [[nodiscard]] std::vector<sim::Node*> client_nodes() const {
        std::vector<sim::Node*> out;
        for (const auto& node : nodes_) {
            if (node->name().rfind("client", 0) == 0) out.push_back(node.get());
        }
        return out;
    }
};

std::unique_ptr<Deployment> build(const WorkloadSpec& spec,
                                  std::uint64_t seed, Tracer* tracer) {
    ShardedTroxyCluster::Params params;
    params.base.seed = seed;
    params.base.shard_count = spec.shards;
    params.base.front_count = spec.fronts;
    if (spec.production_knobs) {
        params.base.batch_size_max = 16;
        params.base.batch_delay = sim::microseconds(200);
        params.base.coalesce_wire = true;
        params.base.wire_zero_copy = true;
        params.host.coalesce_wire = true;
        params.host.voter_batch_max = 16;
        params.host.fastread_batch_max = 16;
        params.host.batch_reply_auth = true;
    }
    if (spec.fast_failover) {
        params.host.vote_timeout = sim::milliseconds(300);
        params.host.fast_read_timeout = sim::milliseconds(30);
        params.client.connection_timeout = sim::milliseconds(500);
        params.client.backoff_cap = sim::milliseconds(2000);
    }
    params.service = [tracer]() -> hybster::ServicePtr {
        auto echo = std::make_unique<apps::EchoService>();
        if (tracer == nullptr) return echo;
        return std::make_unique<TracedService>(std::move(echo), *tracer);
    };
    troxy_core::Classifier classifier = [](ByteView request) {
        return apps::EchoService().classify(request);
    };
    params.classifier = tracer == nullptr
                            ? std::move(classifier)
                            : traced_classifier(std::move(classifier), *tracer);
    if (spec.shards > 1) {
        std::vector<std::string> universe;
        universe.reserve(spec.keys);
        for (std::uint64_t k = 0; k < spec.keys; ++k) {
            universe.emplace_back("k");
            universe.back() += std::to_string(k);  // EchoService key names
        }
        params.map = troxy_core::ShardMap::split_evenly(std::move(universe),
                                                        spec.shards);
        params.front.upstream = params.client;
        params.front.cross_pipeline_depth = 0;  // unbounded pipelining
    }
    return std::make_unique<Deployment>(std::move(params));
}

/// Open-loop Poisson arrivals over a fixed connection set, one chain for
/// the whole virtual-client population (the OpenLoopSuite model, with the
/// reply bytes kept so every one can be checked).
class OpenLoop {
  public:
    OpenLoop(sim::Simulator& simulator, const WorkloadSpec& spec,
             const RunConfig& config, sim::SimTime window_end,
             EchoChecker& checker)
        : sim_(simulator),
          spec_(spec),
          rate_(config.rate),
          window_end_(window_end),
          checker_(checker),
          tracer_(config.tracer),
          zipf_(spec.keys, spec.zipf_s),
          rng_(config.seed ^ 0x6f70656eULL),
          churn_rng_(config.seed ^ 0x63687572ULL) {}

    struct Op {
        sim::SimTime due = 0;
        sim::SimTime done = 0;  // 0 = no reply yet
        std::uint64_t key = 0;
        std::uint64_t floor = 0;
        bool is_read = false;
    };

    void add_connection(troxy_core::LegacyClient& client) {
        connections_.push_back(&client);
    }

    /// Handshakes every connection, then starts the arrival (and churn)
    /// chains, so warmup carries steady traffic rather than a connect
    /// storm.
    void start() {
        auto remaining = std::make_shared<std::size_t>(connections_.size());
        for (troxy_core::LegacyClient* client : connections_) {
            client->start([this, remaining]() {
                if (--*remaining > 0) return;
                schedule_arrival();
                if (spec_.churn_per_sec > 0.0) schedule_churn();
            });
        }
    }

    [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }
    [[nodiscard]] std::uint64_t issued() const noexcept { return ops_.size(); }
    [[nodiscard]] const std::vector<sim::SimTime>& completions()
        const noexcept {
        return completions_;
    }
    [[nodiscard]] sim::Duration max_lag() const noexcept { return max_lag_; }

  private:
    void schedule_arrival() {
        const double gap_s = rng_.next_exponential(1.0 / rate_);
        const sim::SimTime due =
            sim_.now() + static_cast<sim::Duration>(gap_s * 1e9);
        if (due >= window_end_) return;
        sim_.at(due, [this, due]() { arrive(due); });
    }

    void arrive(sim::SimTime due) {
        max_lag_ = std::max(max_lag_, sim_.now() - due);
        OpenLoopArrival arrival;
        arrival.vclient = rng_.next_below(spec_.virtual_clients);
        arrival.key = zipf_.sample(rng_);
        arrival.is_read = spec_.read_fraction > 0.0 &&
                          rng_.next_double() < spec_.read_fraction;
        const auto id = static_cast<std::uint64_t>(ops_.size());
        Op op;
        op.due = due;
        op.key = arrival.key;
        op.is_read = arrival.is_read;
        Request request;
        {
            Tracer::Scope span(tracer_, "workload.build", id + 1);
            request = build(arrival);
        }
        op.floor = checker_.on_issue(op.key, !op.is_read, request.partner);
        ops_.push_back(op);
        troxy_core::LegacyClient& conn = *connections_[static_cast<std::size_t>(
            arrival.vclient % connections_.size())];
        conn.send(std::move(request.payload),
                  [this, id](Bytes reply) { on_reply(id, reply); });
        schedule_arrival();
    }

    struct Request {
        Bytes payload;
        std::uint64_t partner = 0;  // second key written, or the key itself
    };

    /// The request builder: a read, a write or (for a share of writes) a
    /// two-key multiwrite whose partner usually lives on another shard.
    Request build(const OpenLoopArrival& arrival) {
        Request request;
        request.partner = arrival.key;
        if (arrival.is_read) {
            request.payload = apps::EchoService::make_read(
                arrival.key, kReadRequestSize, kReadReplySize);
        } else if (spec_.cross_fraction > 0.0 &&
                   rng_.next_double() < spec_.cross_fraction) {
            request.partner = (arrival.key + spec_.keys / 2) % spec_.keys;
            request.payload = apps::EchoService::make_multi_write(
                arrival.key, request.partner, kWriteSize);
        } else {
            request.payload =
                apps::EchoService::make_write(arrival.key, kWriteSize);
        }
        return request;
    }

    void on_reply(std::uint64_t id, const Bytes& reply) {
        Tracer::Scope span(tracer_, "workload.reply", id + 1);
        Op& op = ops_[id];
        op.done = sim_.now();
        completions_.push_back(op.done);
        if (tracer_ != nullptr) {
            tracer_->sim_span("request", id + 1,
                              static_cast<std::int64_t>(op.due),
                              static_cast<std::int64_t>(op.done));
        }
        if (op.is_read) {
            checker_.check_read(op.key, op.floor, kReadReplySize,
                                reply, op.due, op.done);
        } else {
            checker_.check_write(op.key, op.floor, reply, op.due, op.done);
        }
    }

    void schedule_churn() {
        const double gap_s =
            churn_rng_.next_exponential(1.0 / spec_.churn_per_sec);
        sim_.after(static_cast<sim::Duration>(gap_s * 1e9), [this]() {
            if (sim_.now() >= window_end_) return;
            // One session departs and a new one takes its place: a full
            // handshake and a cold Troxy connection.
            connections_[static_cast<std::size_t>(
                             churn_rng_.next_below(connections_.size()))]
                ->reconnect();
            schedule_churn();
        });
    }

    sim::Simulator& sim_;
    const WorkloadSpec& spec_;
    double rate_;
    sim::SimTime window_end_;
    EchoChecker& checker_;
    Tracer* tracer_;
    ZipfianSampler zipf_;
    Rng rng_;
    Rng churn_rng_;
    std::vector<troxy_core::LegacyClient*> connections_;
    std::vector<Op> ops_;
    std::vector<sim::SimTime> completions_;
    sim::Duration max_lag_ = 0;
};

/// Cumulative counters at one instant; deltas give the measured section.
struct Snapshot {
    LayerCounters c;
    sim::Duration leader_busy = 0;
    sim::Duration follower_busy = 0;
    sim::Duration front_busy = 0;
    sim::Duration client_busy = 0;
};

std::uint64_t minus(std::uint64_t after, std::uint64_t before) {
    return after > before ? after - before : 0;
}

/// Nearest-rank percentile of a sorted sample.
double percentile_ms(const std::vector<sim::Duration>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sim::to_millis(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

Snapshot snapshot(Deployment& d, const std::vector<std::uint32_t>& leaders) {
    Snapshot s;
    LayerCounters& c = s.c;
    sim::Simulator& simulator = d.simulator();
    c.events = simulator.executed_events();
    c.allocations = allocations();
    c.heap_callbacks = simulator.scheduler_stats().heap_callbacks;
    const auto pool = d.network().pool().stats();
    c.pool_hits = pool.hits;
    c.pool_misses = pool.misses;
    c.wire_msgs = d.network().messages_sent();
    c.wire_bytes = d.network().bytes_sent();
    const sim::WireStats& wire = d.network().wire_stats();
    c.bytes_copied = wire.bytes_copied;
    c.bytes_referenced = wire.bytes_referenced;
    c.materializations = wire.materializations;
    c.credit_stalls = wire.credit_stalls;
    c.drops = d.network().drops().total();

    const int n = 2 * d.options().f + 1;
    for (int shard = 0; shard < d.shards(); ++shard) {
        std::uint64_t shard_view_changes = 0;
        for (int r = 0; r < n; ++r) {
            auto& host = d.host(shard, r);
            const auto status = host.status();
            const bool leader =
                host.replica().id() ==
                leaders[static_cast<std::size_t>(shard)];
            (leader ? s.leader_busy : s.follower_busy) +=
                host.node().busy_time();
            c.enclave_transitions += status.troxy.enclave_transitions;
            c.ordered_requests += status.troxy.ordered_requests;
            c.batches_cut += status.exec.batches_cut;
            c.exec_conflict_stalls += status.exec.conflict_stalls;
            shard_view_changes = std::max(shard_view_changes,
                                          host.replica().view_changes());
            c.state_transfers += host.replica().state_transfers();
            c.st_bytes_sent += status.state.bytes_sent;
            c.st_chunks_reused += status.state.chunks_reused;
            c.fast_read_hits += status.troxy.fast_read_hits;
            c.fast_read_misses += status.troxy.fast_read_misses;
            c.fast_read_conflicts += status.troxy.fast_read_conflicts;
            c.reply_batches += status.troxy.reply_batches;
            c.batched_replies += status.troxy.batched_replies;
            c.cache_invalidations += status.troxy.cache_invalidations;
        }
        c.view_changes += shard_view_changes;
    }
    std::vector<sim::Duration> cross;
    for (int f = 0; f < d.front_count(); ++f) {
        auto& front = d.front(f);
        const auto status = front.status();
        s.front_busy += front.node().busy_time();
        c.front_cross_commits += status.cross_shard_commits;
        c.front_cross_lock_waits += status.cross_lock_waits;
        c.front_inflight_peak =
            std::max(c.front_inflight_peak, status.cross_inflight_peak);
        cross.insert(cross.end(), front.cross_latencies().begin(),
                     front.cross_latencies().end());
    }
    std::sort(cross.begin(), cross.end());
    c.front_cross_p99_ms = percentile_ms(cross, 0.99);
    for (sim::Node* node : d.client_nodes()) s.client_busy += node->busy_time();
    for (auto* client : d.clients()) c.client_failovers += client->failovers();
    return s;
}

/// Counter deltas from `before` (window start) to `after` (end of the
/// drain); busy shares over the window alone, up to `window_end`.
LayerCounters delta(const Snapshot& before, const Snapshot& window_end,
                    const Snapshot& after, Deployment& d,
                    sim::Duration window) {
    const LayerCounters& a = after.c;
    const LayerCounters& b = before.c;
    LayerCounters c = a;  // peaks and percentiles keep their end value
    c.events = minus(a.events, b.events);
    c.allocations = minus(a.allocations, b.allocations);
    c.heap_callbacks = minus(a.heap_callbacks, b.heap_callbacks);
    c.pool_hits = minus(a.pool_hits, b.pool_hits);
    c.pool_misses = minus(a.pool_misses, b.pool_misses);
    c.wire_msgs = minus(a.wire_msgs, b.wire_msgs);
    c.wire_bytes = minus(a.wire_bytes, b.wire_bytes);
    c.bytes_copied = minus(a.bytes_copied, b.bytes_copied);
    c.bytes_referenced = minus(a.bytes_referenced, b.bytes_referenced);
    c.materializations = minus(a.materializations, b.materializations);
    c.credit_stalls = minus(a.credit_stalls, b.credit_stalls);
    c.drops = minus(a.drops, b.drops);
    c.enclave_transitions =
        minus(a.enclave_transitions, b.enclave_transitions);
    c.ordered_requests = minus(a.ordered_requests, b.ordered_requests);
    c.batches_cut = minus(a.batches_cut, b.batches_cut);
    c.exec_conflict_stalls =
        minus(a.exec_conflict_stalls, b.exec_conflict_stalls);
    c.view_changes = minus(a.view_changes, b.view_changes);
    c.state_transfers = minus(a.state_transfers, b.state_transfers);
    c.st_bytes_sent = minus(a.st_bytes_sent, b.st_bytes_sent);
    c.st_chunks_reused = minus(a.st_chunks_reused, b.st_chunks_reused);
    c.fast_read_hits = minus(a.fast_read_hits, b.fast_read_hits);
    c.fast_read_misses = minus(a.fast_read_misses, b.fast_read_misses);
    c.fast_read_conflicts =
        minus(a.fast_read_conflicts, b.fast_read_conflicts);
    c.reply_batches = minus(a.reply_batches, b.reply_batches);
    c.batched_replies = minus(a.batched_replies, b.batched_replies);
    c.cache_invalidations =
        minus(a.cache_invalidations, b.cache_invalidations);
    c.front_cross_commits =
        minus(a.front_cross_commits, b.front_cross_commits);
    c.front_cross_lock_waits =
        minus(a.front_cross_lock_waits, b.front_cross_lock_waits);
    c.client_failovers = minus(a.client_failovers, b.client_failovers);

    // Modeled CPU share over the window: busy time ÷ (cores × window).
    const auto share = [window](sim::Duration busy, int nodes, int cores) {
        if (nodes == 0 || cores == 0 || window == 0) return 0.0;
        return static_cast<double>(busy) /
               (static_cast<double>(nodes) * cores *
                static_cast<double>(window));
    };
    const int replica_cores = d.options().replica_cores;
    const int n = 2 * d.options().f + 1;
    c.leader_busy_frac =
        share(window_end.leader_busy - before.leader_busy,
              d.shards(), replica_cores);
    c.follower_busy_frac =
        share(window_end.follower_busy - before.follower_busy,
              d.shards() * (n - 1), replica_cores);
    c.front_busy_frac =
        share(window_end.front_busy - before.front_busy,
              d.front_count(), replica_cores);
    c.client_busy_frac = share(
        window_end.client_busy - before.client_busy,
        static_cast<int>(d.client_nodes().size()), d.options().client_cores);
    return c;
}

double wall_s(SteadyClock::time_point since) {
    return std::chrono::duration<double>(SteadyClock::now() - since).count();
}

/// run_until under the root span of the traced run.
void advance(sim::Simulator& simulator, sim::SimTime until, Tracer* tracer) {
    Tracer::Scope span(tracer, "sim.run_until", 0);
    simulator.run_until(until);
}

void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void check_convergence(Deployment& d, EchoChecker& checker) {
    const int n = 2 * d.options().f + 1;
    for (int shard = 0; shard < d.shards(); ++shard) {
        hybster::SequenceNumber tip = 0;
        for (int r = 0; r < n; ++r) {
            tip = std::max(tip, d.host(shard, r).replica().last_executed());
        }
        int at_tip = 0;
        bool diverged = false;
        Bytes tip_state;
        for (int r = 0; r < n; ++r) {
            auto& replica = d.host(shard, r).replica();
            if (replica.last_executed() != tip) continue;
            Bytes state = replica.service().checkpoint();
            if (at_tip == 0) {
                tip_state = std::move(state);
            } else if (state != tip_state) {
                diverged = true;
            }
            ++at_tip;
        }
        const std::string where = " in shard " + std::to_string(shard);
        if (at_tip < d.config(shard).quorum()) {
            checker.fail("only " + std::to_string(at_tip) +
                         " replicas reached sequence " + std::to_string(tip) +
                         where);
        }
        if (diverged) {
            checker.fail("replicas at sequence " + std::to_string(tip) +
                         where + " disagree on the service checkpoint");
        }
    }
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return table(); }

const WorkloadSpec* find_workload(std::string_view name) {
    for (const WorkloadSpec& spec : table()) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

RunResult run_pooled(const WorkloadSpec& spec, const RunConfig& config,
                     std::vector<double>* setups) {
    RunResult pooled;
    std::uint64_t window_completed = 0;
    for (int i = 0; i < spec.deployments; ++i) {
        RunConfig one = config;
        one.seed = config.seed + static_cast<std::uint64_t>(i) *
                                     0x9e3779b97f4a7c15ULL;
        RunResult r = run_workload(spec, one);
        if (setups != nullptr) setups->push_back(r.setup_s);
        if (i == 0) {
            pooled = r;
            pooled.latencies.clear();
        } else {
            pooled.issued += r.issued;
            pooled.incomplete += r.incomplete;
            pooled.writes_issued += r.writes_issued;
            pooled.window_issued += r.window_issued;
            pooled.window_finished += r.window_finished;
            pooled.unavailable_ms = std::max(pooled.unavailable_ms,
                                             r.unavailable_ms);
            pooled.lag_ms = std::max(pooled.lag_ms, r.lag_ms);
            pooled.violations += r.violations;
            pooled.errors.insert(pooled.errors.end(), r.errors.begin(),
                                 r.errors.end());
            mix(pooled.fingerprint, r.fingerprint);
            pooled.window_wall_s += r.window_wall_s;
            pooled.measured_wall_s += r.measured_wall_s;
        }
        window_completed += r.window_completed;
        pooled.latencies.insert(pooled.latencies.end(), r.latencies.begin(),
                                r.latencies.end());
    }
    std::sort(pooled.latencies.begin(), pooled.latencies.end());
    pooled.window_completed = window_completed;
    pooled.throughput_rps =
        static_cast<double>(window_completed) /
        (sim::to_seconds(config.window) * spec.deployments);
    pooled.p50_ms = percentile_ms(pooled.latencies, 0.50);
    pooled.p99_ms = percentile_ms(pooled.latencies, 0.99);
    pooled.p999_ms = percentile_ms(pooled.latencies, 0.999);
    return pooled;
}

sim::Duration scaled_window(double per_second, double seconds) {
    return static_cast<sim::Duration>(per_second * seconds * 1e9);
}

RunResult run_workload(const WorkloadSpec& spec, const RunConfig& config) {
    RunResult result;
    const auto setup_start = SteadyClock::now();
    std::unique_ptr<Deployment> d = build(spec, config.seed, config.tracer);
    std::vector<troxy_core::LegacyClient*> connections;
    for (int i = 0; i < spec.connections; ++i) {
        connections.push_back(&d->add_client());
    }
    const sim::SimTime window_start = kWarmup;
    const sim::SimTime window_end = window_start + config.window;
    const sim::SimTime end = window_end + config.drain;
    sim::Simulator& simulator = d->simulator();

    EchoChecker checker;
    OpenLoop loop(simulator, spec, config, window_end, checker);
    for (auto* conn : connections) loop.add_connection(*conn);
    loop.start();

    advance(simulator, window_start, config.tracer);
    result.setup_s = wall_s(setup_start);
    if (config.setup_only) return result;

    std::vector<std::uint32_t> leaders;
    for (int shard = 0; shard < d->shards(); ++shard) {
        for (int r = 0; r < 2 * d->options().f + 1; ++r) {
            if (d->host(shard, r).replica().is_leader()) {
                leaders.push_back(d->host(shard, r).replica().id());
            }
        }
        if (leaders.size() < static_cast<std::size_t>(shard + 1)) {
            leaders.push_back(0);
        }
    }
    if (config.crash && spec.leader_crash) {
        const int leader = static_cast<int>(leaders[0]);
        Deployment* deployment = d.get();
        simulator.at(window_start + spec.crash_after, [deployment, leader]() {
            deployment->crash_host(0, leader);
        });
        simulator.at(window_start + spec.crash_after + spec.downtime,
                     [deployment, leader]() {
                         deployment->restart_host(0, leader);
                     });
    }

    const Snapshot before = snapshot(*d, leaders);
    if (config.tracer != nullptr) {
        result.trace_mark = config.tracer->spans().size();
    }
    const auto measured_start = SteadyClock::now();
    advance(simulator, window_end, config.tracer);
    result.window_wall_s = wall_s(measured_start);
    const Snapshot at_window_end = snapshot(*d, leaders);
    advance(simulator, end, config.tracer);
    result.measured_wall_s = wall_s(measured_start);
    const Snapshot after = snapshot(*d, leaders);
    result.layers =
        delta(before, at_window_end, after, *d, config.window);

    if (config.check_convergence) check_convergence(*d, checker);

    // Modeled results.
    std::vector<sim::Duration>& latencies = result.latencies;
    std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
    for (const OpenLoop::Op& op : loop.ops()) {
        mix(fingerprint, op.due);
        mix(fingerprint, op.done);
        if (op.done == 0) ++result.incomplete;
        if (op.due < window_start || op.due >= window_end) continue;
        ++result.window_issued;
        if (!op.is_read) ++result.writes_issued;
        // A request still open at the end counts with the age it reached,
        // at least the drain: a lower bound that already misses the limit.
        if (op.done != 0) ++result.window_finished;
        latencies.push_back((op.done != 0 ? op.done : end) - op.due);
    }
    mix(fingerprint, result.layers.events);
    mix(fingerprint, result.layers.wire_msgs);
    mix(fingerprint, result.layers.wire_bytes);
    result.fingerprint = fingerprint;
    result.issued = loop.issued();
    std::sort(latencies.begin(), latencies.end());
    result.p50_ms = percentile_ms(latencies, 0.50);
    result.p99_ms = percentile_ms(latencies, 0.99);
    result.p999_ms = percentile_ms(latencies, 0.999);

    sim::SimTime last = window_start;
    sim::Duration longest_gap = 0;
    for (const sim::SimTime t : loop.completions()) {
        if (t < window_start || t >= window_end) continue;
        ++result.window_completed;
        longest_gap = std::max(longest_gap, t - last);
        last = t;
    }
    longest_gap = std::max(longest_gap, window_end - last);
    result.unavailable_ms = sim::to_millis(longest_gap);
    result.throughput_rps = static_cast<double>(result.window_completed) /
                            sim::to_seconds(config.window);
    result.lag_ms = sim::to_millis(loop.max_lag());
    result.violations = checker.violations();
    result.errors = checker.errors();
    return result;
}

}  // namespace perfbench
