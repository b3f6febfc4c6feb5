// Figure 7 (§VI-C1): totally ordered write requests with a simulated
// wide-area network (100 ± 20 ms on the client links).
//
// Paper shape: the server-side reply voter lets a Troxy client wait for a
// single WAN reply instead of f+1, giving Troxy up to 60-70% higher
// throughput. Our transport model reproduces the single-reply effect
// (order statistics of reply arrivals) but not the TCP-under-jitter
// retransmission dynamics of the testbed, so the measured gap is smaller;
// see EXPERIMENTS.md for the discussion.
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    std::printf("Figure 7: totally ordered requests, WAN clients\n");
    std::printf("(writes of varying size, 10 B replies, closed loop,\n");
    std::printf(" 100±20 ms client links)\n");

    for (const std::size_t size : {256u, 1024u, 4096u, 8192u}) {
        MicroParams params;
        params.read_workload = false;
        params.request_size = size;
        params.cluster.wan_clients = true;
        // Fast-read liveness backstop above WAN round trips.
        params.host.fast_read_timeout = troxy::sim::milliseconds(500);
        params.clients = 100;
        params.pipeline = 96;
        params.warmup = troxy::sim::milliseconds(1000);
        params.window = troxy::sim::seconds(2);

        std::vector<Row> rows;
        for (const SystemKind system :
             {SystemKind::Baseline, SystemKind::CTroxy,
              SystemKind::ETroxy}) {
            rows.push_back(run_micro(system, params).row);
        }
        print_table("request size " + std::to_string(size) + " B (WAN)",
                    rows);
    }
    return 0;
}
