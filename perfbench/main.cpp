// Seeded Troxy benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics: the nominal-rate run
// (modeled throughput and latency percentiles), set-up time (median over
// the nominal deployments and four more set-ups), an offered-rate ladder
// for slo_rps, and peak RSS.
// --trace 1 runs the nominal run untraced and then traced, requires the
// two to model the same run bit for bit, runs the host probes and prints
// the per-layer metrics; the spans go to DIR/<workload>.spans.tsv (if DIR
// is given) at exit.
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check exits with status 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/fastmode.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr double kSloP99Ms = 10.0;  // the limit bench_scale's knee uses
/// Set-ups on top of the nominal run's own; setup_s is the median of all.
constexpr int kExtraSetups = 4;
/// Drain after a ladder rung: a request still open this long after the
/// window closed has missed the latency limit anyway.
constexpr troxy::sim::Duration kLadderDrain = 20'000'000;

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string trace_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            have_seed = end != value && *end == '\0';
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0') return false;
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "1") == 0   ? 1
                         : std::strcmp(value, "0") == 0 ? 0
                                                        : -1;
        } else if (flag == "--trace-dir") {
            args.trace_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() && have_seed &&
           args.seconds > 0.0 && args.seconds <= 600.0 && args.trace >= 0;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void print_run(const char* label, const RunResult& r) {
    std::printf(
        "%-10s issued %llu (window %llu, finished %llu), throughput %.1f "
        "req/s, p50 %.4f ms, p99 %.4f ms, p999 %.4f ms (%llu samples), "
        "longest gap %.3f ms, host %.2f us/req, %llu violations\n",
        label, static_cast<unsigned long long>(r.issued),
        static_cast<unsigned long long>(r.window_issued),
        static_cast<unsigned long long>(r.window_finished), r.throughput_rps,
        r.p50_ms, r.p99_ms, r.p999_ms,
        static_cast<unsigned long long>(r.window_issued), r.unavailable_ms,
        r.host_us_per_req(), static_cast<unsigned long long>(r.violations));
    for (const std::string& error : r.errors) {
        std::printf("  violation: %s\n", error.c_str());
    }
}

/// Per-layer metrics of a traced nominal run; `plain` is the same run
/// untraced (host ratios come from it, tracing would distort them).
std::vector<Metric> per_layer(const RunResult& plain, const RunResult& traced,
                              const Tracer& tracer,
                              const std::vector<ProbeResult>& probes) {
    const LayerCounters& c = traced.layers;
    const auto reqs = static_cast<double>(traced.window_issued);
    const auto per_req = [reqs](double v) { return ratio(v, reqs); };
    const auto totals = tracer.host_totals(traced.trace_mark);
    const auto total_ns = [&totals](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_ns;
    };
    const auto count = [&totals](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0
                                  : static_cast<double>(it->second.count);
    };
    const double fast_reads = static_cast<double>(
        c.fast_read_hits + c.fast_read_misses + c.fast_read_conflicts);
    const double run_ns = total_ns("sim.run_until");

    std::vector<Metric> m = {
        {"sim.events_per_req", "count", per_req(static_cast<double>(c.events))},
        {"sim.ns_per_event", "ns",
         ratio(plain.measured_wall_s * 1e9,
               static_cast<double>(plain.layers.events))},
        {"sim.allocs_per_event", "count",
         ratio(static_cast<double>(plain.layers.allocations),
               static_cast<double>(plain.layers.events))},
        {"sim.pool_hit_rate", "ratio",
         ratio(static_cast<double>(c.pool_hits),
               static_cast<double>(c.pool_hits + c.pool_misses))},
        {"sim.heap_callbacks", "count", static_cast<double>(c.heap_callbacks)},
        {"sim.leader_busy_frac", "ratio", c.leader_busy_frac},
        {"sim.follower_busy_frac", "ratio", c.follower_busy_frac},
        {"sim.front_busy_frac", "ratio", c.front_busy_frac},
        {"sim.client_busy_frac", "ratio", c.client_busy_frac},
        {"net.wire_msgs_per_req", "count",
         per_req(static_cast<double>(c.wire_msgs))},
        {"net.wire_bytes_per_req", "B", per_req(static_cast<double>(c.wire_bytes))},
        {"net.bytes_copied_per_req", "B",
         per_req(static_cast<double>(c.bytes_copied))},
        {"net.bytes_referenced_per_req", "B",
         per_req(static_cast<double>(c.bytes_referenced))},
        {"net.materializations", "count",
         static_cast<double>(c.materializations)},
        {"net.drops", "count", static_cast<double>(c.drops)},
        {"net.credit_stalls", "count", static_cast<double>(c.credit_stalls)},
        {"enclave.transitions_per_req", "count",
         per_req(static_cast<double>(c.enclave_transitions))},
        {"hybster.reqs_per_batch", "count",
         ratio(static_cast<double>(c.ordered_requests),
               static_cast<double>(c.batches_cut))},
        {"hybster.exec_conflict_stalls", "count",
         static_cast<double>(c.exec_conflict_stalls)},
        {"hybster.view_changes", "count", static_cast<double>(c.view_changes)},
        {"hybster.state_transfers", "count",
         static_cast<double>(c.state_transfers)},
        {"hybster.st_bytes_sent", "B", static_cast<double>(c.st_bytes_sent)},
        {"hybster.st_chunks_reused", "count",
         static_cast<double>(c.st_chunks_reused)},
        {"troxy.fast_read_hit_rate", "ratio",
         ratio(static_cast<double>(c.fast_read_hits), fast_reads)},
        {"troxy.fast_read_conflict_rate", "ratio",
         ratio(static_cast<double>(c.fast_read_conflicts), fast_reads)},
        {"troxy.ordered_frac", "ratio",
         per_req(static_cast<double>(c.ordered_requests))},
        // Voter batching off means one handle_reply ecall per reply.
        {"troxy.replies_per_vote_ecall", "count",
         c.reply_batches == 0
             ? 1.0
             : ratio(static_cast<double>(c.batched_replies),
                     static_cast<double>(c.reply_batches))},
        {"troxy.invalidations_per_write", "count",
         ratio(static_cast<double>(c.cache_invalidations),
               static_cast<double>(traced.writes_issued))},
        {"troxy.front_cross_commits", "count",
         static_cast<double>(c.front_cross_commits)},
        {"troxy.front_cross_lock_waits", "count",
         static_cast<double>(c.front_cross_lock_waits)},
        {"troxy.front_cross_p99_ms", "ms", c.front_cross_p99_ms},
        {"troxy.front_inflight_peak", "count",
         static_cast<double>(c.front_inflight_peak)},
        {"troxy.client_failovers", "count",
         static_cast<double>(c.client_failovers)},
        {"apps.execute_per_req", "count", per_req(count("apps.execute"))},
        {"apps.classify_per_req", "count",
         per_req(count("apps.classify") + count("troxy.classify"))},
        {"apps.execute_host_frac", "ratio",
         ratio(total_ns("apps.execute"), run_ns)},
        {"workload.build_host_frac", "ratio",
         ratio(total_ns("workload.build"), run_ns)},
        {"workload.lag_ms", "ms", traced.lag_ms},
        {"trace.overhead_frac", "ratio",
         ratio(traced.host_us_per_req(), plain.host_us_per_req()) - 1.0},
        {"host_us_per_req", "us", plain.host_us_per_req()},
        {"unavailable_ms", "ms", traced.unavailable_ms},
    };
    for (const ProbeResult& probe : probes) {
        m.push_back({probe.name, "ns", probe.ns});
    }
    return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-dir DIR]\n",
                     argv[0]);
        return 2;
    }
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'; known:",
                     args.workload.c_str());
        for (const WorkloadSpec& w : workloads()) {
            std::fprintf(stderr, " %s", w.name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }
    // Every bench in the repository models crypto cost in fast mode; the
    // probes below also time real mode.
    troxy::crypto::set_fast_crypto(true);

    RunConfig nominal;
    nominal.rate = spec->nominal_rate;
    nominal.seed = args.seed;
    nominal.window = scaled_window(spec->window_per_second, args.seconds);
    nominal.drain = spec->drain;
    nominal.crash = spec->leader_crash;
    std::printf("workload %s (seed %llu): %s\n", spec->name,
                static_cast<unsigned long long>(args.seed), spec->why);

    bool correct = true;
    std::vector<Metric> metrics;
    RunResult result;
    if (args.trace == 0) {
        std::vector<double> setups;
        result = run_pooled(*spec, nominal, &setups);
        print_run("nominal", result);
        // Read before the ladder: memory is the nominal workload's.
        const double rss_mb = peak_rss_mb();
        RunConfig setup_only = nominal;
        setup_only.setup_only = true;
        for (int i = 0; i < kExtraSetups; ++i) {
            setups.push_back(run_workload(*spec, setup_only).setup_s);
        }

        // slo_rps: where p99 crosses the limit, interpolated linearly
        // between the highest ladder rate that meets it and the first that
        // does not (the highest rate when all do; 0 when none does).
        // Rungs run fault-free.
        double slo_rps = 0.0;
        double pass_p99 = 0.0;
        for (const double rate : spec->ladder) {
            RunConfig rung;
            rung.rate = rate;
            rung.seed = args.seed;
            rung.window =
                scaled_window(spec->ladder_window_per_second, args.seconds);
            rung.drain = kLadderDrain;
            rung.check_convergence = false;
            const RunResult r = run_workload(*spec, rung);
            char label[32];
            std::snprintf(label, sizeof label, "@%.0f", rate);
            print_run(label, r);
            if (r.violations > 0) correct = false;
            if (r.p99_ms > kSloP99Ms) {
                if (slo_rps > 0.0) {
                    slo_rps += (rate - slo_rps) * (kSloP99Ms - pass_p99) /
                               (r.p99_ms - pass_p99);
                }
                break;
            }
            slo_rps = rate;
            pass_p99 = r.p99_ms;
        }
        metrics = {
            {"throughput_rps", "1/s", result.throughput_rps},
            {"p50_ms", "ms", result.p50_ms},
            {"p99_ms", "ms", result.p99_ms},
            {"p999_ms", "ms", result.p999_ms},
            {"slo_rps", "1/s", slo_rps},
            {"peak_rss_mb", "MB", rss_mb},
            {"setup_s", "s", median(setups)},
        };
    } else {
        const RunResult plain = run_workload(*spec, nominal);
        print_run("untraced", plain);
        Tracer tracer;
        RunConfig traced = nominal;
        traced.tracer = &tracer;
        result = run_workload(*spec, traced);
        print_run("traced", result);
        if (result.fingerprint != plain.fingerprint ||
            result.p99_ms != plain.p99_ms ||
            result.throughput_rps != plain.throughput_rps) {
            std::printf("traced run diverged from the untraced run\n");
            correct = false;
        }
        const std::vector<ProbeResult> probes = run_probes(&tracer);
        metrics = per_layer(plain, result, tracer, probes);
        std::printf("%-28s %10s %14s %14s\n", "span", "count", "total_ms",
                    "self_ms");
        for (const auto& [name, t] : tracer.host_totals(result.trace_mark)) {
            std::printf("%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.total_ns / 1e6, t.self_ns / 1e6);
        }
        if (!args.trace_dir.empty()) {
            // One file per workload, so repeated traced runs reuse it.
            const std::string path =
                args.trace_dir + "/" + spec->name + ".spans.tsv";
            if (!tracer.write(path)) {
                std::printf("could not write %s\n", path.c_str());
            }
        }
    }

    if (result.violations > 0) correct = false;
    const std::uint64_t failed = result.incomplete + result.violations;
    std::printf("failed_frac %.6f (%llu of %llu issued)\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(result.issued)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(result.issued));
    for (const Metric& m : metrics) {
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    print_json(correct, result.issued, failed, metrics);
    return correct ? 0 : 1;
}
