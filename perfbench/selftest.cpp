// Self-test of the benchmark: determinism of the modeled results, the
// traced run's equivalence, and the checker's teeth.
//
//   - Every workload run twice on one seed yields identical modeled
//     metrics (fingerprint, percentiles, throughput, violations) and an
//     identical allocation count per simulated event.
//   - Another seed changes the modeled metrics.
//   - The traced run models exactly the untraced run.
//   - The echo checker rejects a stale read and a malformed write ack.
// Wall-clock metrics are never compared. Exit status 0 means all passed.
#include <cstdio>
#include <string>

#include "apps/echo_service.hpp"
#include "checker.hpp"
#include "common/serialize.hpp"
#include "crypto/fastmode.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

bool same_model(const RunResult& a, const RunResult& b) {
    return a.fingerprint == b.fingerprint && a.p50_ms == b.p50_ms &&
           a.p99_ms == b.p99_ms && a.p999_ms == b.p999_ms &&
           a.throughput_rps == b.throughput_rps &&
           a.unavailable_ms == b.unavailable_ms && a.issued == b.issued &&
           a.violations == b.violations &&
           a.layers.events == b.layers.events;
}

double allocs_per_event(const RunResult& r) {
    return static_cast<double>(r.layers.allocations) /
           static_cast<double>(r.layers.events);
}

void check_workload(const WorkloadSpec& spec) {
    RunConfig config;
    config.rate = spec.nominal_rate;
    config.seed = 7;
    config.window = scaled_window(spec.window_per_second, 2.0);
    config.drain = spec.drain;
    config.crash = spec.leader_crash;
    const std::string name = spec.name;

    const RunResult first = run_workload(spec, config);
    const RunResult again = run_workload(spec, config);
    expect(same_model(first, again), name + ": same seed, same modeled run");
    expect(allocs_per_event(first) == allocs_per_event(again),
           name + ": same seed, same allocs per event (" +
               std::to_string(allocs_per_event(first)) + " vs " +
               std::to_string(allocs_per_event(again)) + ")");

    RunConfig other = config;
    other.seed = 8;
    const RunResult different = run_workload(spec, other);
    expect(different.fingerprint != first.fingerprint &&
               different.p50_ms != first.p50_ms,
           name + ": another seed, another modeled run");

    Tracer tracer;
    RunConfig traced = config;
    traced.tracer = &tracer;
    const RunResult with_spans = run_workload(spec, traced);
    expect(same_model(first, with_spans) && !tracer.spans().empty(),
           name + ": traced run models the untraced run bit for bit");
}

void check_checker() {
    using troxy::apps::EchoService;
    EchoChecker checker;
    // Version 2 of key 5 becomes visible through a write ack...
    checker.on_issue(5, true, 5);
    checker.on_issue(5, true, 5);
    troxy::Writer ack;
    ack.u8(1);
    ack.u64(2);
    ack.u8(0);
    troxy::Bytes reply = std::move(ack).take();
    reply.resize(10, 0);
    expect(checker.check_write(5, 0, reply, 0, 1), "checker: fresh ack");
    // ...so a later read returning version 1 is stale.
    const std::uint64_t floor = checker.on_issue(5, false, 5);
    expect(!checker.check_read(5, floor, 64,
                               EchoService::expected_read_reply(5, 1, 64), 2,
                               3),
           "checker: stale read rejected");
    expect(checker.check_read(5, floor, 64,
                              EchoService::expected_read_reply(5, 2, 64), 2,
                              3),
           "checker: current read accepted");
    expect(!checker.check_write(5, floor, troxy::Bytes(10, 0), 4, 5),
           "checker: malformed ack rejected");
    expect(checker.violations() == 2, "checker: violations counted");
}

}  // namespace

int main() {
    troxy::crypto::set_fast_crypto(true);
    check_checker();
    for (const WorkloadSpec& spec : workloads()) check_workload(spec);
    std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
    return g_failures == 0 ? 0 : 1;
}
