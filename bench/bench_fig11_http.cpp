// Figure 11 (§VI-D): HTTP service latency.
//
// A replicated page store (GET/POST, 200 B POST bodies, 4–18 KB
// responses) measured with an open-loop JMeter-style workload: 100
// clients, 500 req/s total — deliberately below saturation, so the figure
// shows *latency*, not throughput. Four deployments:
//
//   Jetty      — unreplicated standalone server (the latency floor)
//   BL         — Hybster with the client-side library doing the voting
//   Prophecy   — PBFT (3f+1) behind a trusted middlebox with a sketch
//                cache (weak consistency)
//   Troxy      — Troxy-backed Hybster (strong consistency)
//
// Paper shape, local network: BL and Troxy within ~1.8 ms of Jetty;
// Prophecy ≈ 2× (two socket hops). WAN: BL's latency explodes (the voter
// sits behind the WAN and waits for f+1 replies), while Prophecy and
// Troxy track the standalone server (their voters sit next to the
// replicas).
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    std::printf("Figure 11: HTTP service mean latency\n");
    std::printf("(100 clients, 500 req/s open loop, GET/POST page store,\n");
    std::printf(" responses 4-18 KB)\n");

    for (const bool wan : {false, true}) {
        HttpParams params;
        params.cluster.wan_clients = wan;
        if (wan) {
            params.warmup = troxy::sim::milliseconds(1000);
        }

        std::vector<Row> rows;
        for (const HttpSystem system :
             {HttpSystem::Standalone, HttpSystem::Baseline,
              HttpSystem::Prophecy, HttpSystem::Troxy}) {
            rows.push_back(run_http(system, params));
        }
        print_table(wan ? "WAN clients (100±20 ms)" : "local network", rows,
                    /*ratio_vs_first=*/false);
    }
    return 0;
}
