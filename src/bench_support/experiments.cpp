#include "bench_support/experiments.hpp"

#include "apps/echo_service.hpp"
#include "http/http.hpp"
#include "http/page_service.hpp"

namespace troxy::bench {

using apps::EchoService;

std::string system_name(SystemKind kind) {
    switch (kind) {
        case SystemKind::Baseline: return "BL";
        case SystemKind::CTroxy: return "ctroxy";
        case SystemKind::ETroxy: return "etroxy";
    }
    return "?";
}

double MicroResult::conflict_rate() const {
    if (optimistic_attempts > 0) {  // baseline read optimization
        return static_cast<double>(read_conflicts) /
               static_cast<double>(optimistic_attempts);
    }
    // Per all reads that entered the fast-read logic: hits, conservative
    // misses (ordered without conflict), and actual conflicts.
    const std::uint64_t reads = troxy.fast_read_hits +
                                troxy.fast_read_misses +
                                troxy.fast_read_conflicts;
    if (reads == 0) return 0.0;
    return static_cast<double>(troxy.fast_read_conflicts) /
           static_cast<double>(reads);
}

namespace {

Generator make_generator(const MicroParams& params) {
    return [params](Rng& rng) {
        GeneratedRequest request;
        const std::uint64_t key = rng.next_below(
            static_cast<std::uint64_t>(params.key_count));
        const bool is_write =
            !params.read_workload ||
            rng.next_double() < params.write_fraction;
        if (is_write) {
            request.is_read = false;
            request.payload =
                EchoService::make_write(key, params.request_size);
        } else {
            request.is_read = true;
            request.payload = EchoService::make_read(
                key, params.read_workload ? 10 : params.request_size,
                params.reply_size);
        }
        return request;
    };
}

MicroResult run_baseline(const MicroParams& params) {
    BaselineCluster::Params cluster_params;
    cluster_params.base = params.cluster;
    cluster_params.service = []() {
        return std::make_unique<EchoService>();
    };
    cluster_params.optimistic_reads = params.baseline_optimistic_reads;
    BaselineCluster cluster(cluster_params);

    Recorder recorder(params.warmup, params.window);
    Workload workload(cluster.simulator(), recorder, make_generator(params),
                      params.cluster.seed);
    // Stagger client ramp-up across the warmup so measurement starts from
    // steady state instead of a connection/cold-cache stampede.
    const sim::Duration stagger =
        params.warmup / (2 * static_cast<unsigned>(params.clients) + 2);
    for (int i = 0; i < params.clients; ++i) {
        auto& client = cluster.add_client();
        cluster.simulator().after(
            stagger * static_cast<unsigned>(i),
            [&workload, &client, pipeline = params.pipeline]() {
                workload.drive_bft(client, pipeline);
            });
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));

    MicroResult result;
    result.row.label = "BL";
    result.row.throughput = recorder.throughput_per_sec();
    result.row.mean_ms = recorder.mean_latency_ms();
    result.row.p50_ms = recorder.percentile_latency_ms(50);
    result.row.p99_ms = recorder.percentile_latency_ms(99);
    for (auto* client : cluster.clients()) {
        result.optimistic_attempts += client->optimistic_attempts();
        result.read_conflicts += client->read_conflicts();
    }
    return result;
}

MicroResult run_troxy(SystemKind kind, const MicroParams& params) {
    TroxyCluster::Params cluster_params;
    cluster_params.base = params.cluster;
    cluster_params.service = []() {
        return std::make_unique<EchoService>();
    };
    cluster_params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    cluster_params.ctroxy = (kind == SystemKind::CTroxy);
    cluster_params.host = params.host;
    cluster_params.client = params.client;
    TroxyCluster cluster(std::move(cluster_params));

    Recorder recorder(params.warmup, params.window);
    Workload workload(cluster.simulator(), recorder, make_generator(params),
                      params.cluster.seed);
    const sim::Duration stagger =
        params.warmup / (2 * static_cast<unsigned>(params.clients) + 2);
    for (int i = 0; i < params.clients; ++i) {
        auto& client = cluster.add_client();
        cluster.simulator().after(
            stagger * static_cast<unsigned>(i),
            [&workload, &client, pipeline = params.pipeline]() {
                workload.drive_legacy(client, pipeline);
            });
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));

    MicroResult result;
    result.row.label = system_name(kind);
    result.row.throughput = recorder.throughput_per_sec();
    result.row.mean_ms = recorder.mean_latency_ms();
    result.row.p50_ms = recorder.percentile_latency_ms(50);
    result.row.p99_ms = recorder.percentile_latency_ms(99);
    for (int r = 0; r < cluster.n(); ++r) {
        result.troxy.add_counters(cluster.host(r).status().troxy);
    }
    result.wire_messages = cluster.network().messages_sent();
    result.wire_bytes = cluster.network().bytes_sent();
    return result;
}

}  // namespace

MicroResult run_micro(SystemKind system, const MicroParams& params) {
    if (system == SystemKind::Baseline) return run_baseline(params);
    return run_troxy(system, params);
}

// --------------------------------------------------------------- HTTP

std::string http_system_name(HttpSystem system) {
    switch (system) {
        case HttpSystem::Standalone: return "Jetty (standalone)";
        case HttpSystem::Baseline: return "BL";
        case HttpSystem::Prophecy: return "Prophecy";
        case HttpSystem::Troxy: return "Troxy";
    }
    return "?";
}

namespace {

Generator http_generator(const HttpParams& params) {
    return [params](Rng& rng) {
        GeneratedRequest request;
        const int page = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(params.page_count)));
        if (rng.next_double() < params.post_fraction) {
            request.is_read = false;
            // ~200 B POST payload (§VI-D).
            Bytes body(200, 0);
            for (std::size_t i = 0; i < body.size(); ++i) {
                body[i] = static_cast<std::uint8_t>('a' + (i + rng.next_below(26)) % 26);
            }
            request.payload = http::PageService::make_post(page, body);
        } else {
            request.is_read = true;
            request.payload = http::PageService::make_get(page);
        }
        return request;
    };
}

Row finish_row(HttpSystem system, const Recorder& recorder) {
    Row row;
    row.label = http_system_name(system);
    row.throughput = recorder.throughput_per_sec();
    row.mean_ms = recorder.mean_latency_ms();
    row.p50_ms = recorder.percentile_latency_ms(50);
    row.p99_ms = recorder.percentile_latency_ms(99);
    return row;
}

}  // namespace

Row run_http(HttpSystem system, const HttpParams& params) {
    const ClusterOptions& base = params.cluster;

    const double per_client_rate =
        params.total_rate_per_sec / params.clients;
    const int pages = params.page_count;
    auto service = [pages]() {
        return std::make_unique<http::PageService>(pages);
    };

    Recorder recorder(params.warmup, params.window);

    switch (system) {
        case HttpSystem::Standalone: {
            StandaloneCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            StandaloneCluster cluster(cluster_params);
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), base.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_legacy_open(cluster.add_client(),
                                           per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
        case HttpSystem::Baseline: {
            BaselineCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            // Same read optimization as in the microbenchmarks: GETs are
            // executed optimistically and the client-side voter needs all
            // 2f+1 replies to match — under WAN jitter the client waits
            // for the slowest reply (§V-B), which is what separates BL
            // from the server-side voters here.
            cluster_params.optimistic_reads = true;
            BaselineCluster cluster(cluster_params);
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), base.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_bft_open(cluster.add_client(),
                                        per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
        case HttpSystem::Prophecy: {
            ProphecyCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            cluster_params.classifier = http::PageService::classifier();
            ProphecyCluster cluster(cluster_params);
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), base.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_legacy_open(cluster.add_client(),
                                           per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
        case HttpSystem::Troxy: {
            TroxyCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            cluster_params.classifier = http::PageService::classifier();
            TroxyCluster cluster(std::move(cluster_params));
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), base.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_legacy_open(cluster.add_client(),
                                           per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
    }
    return Row{};
}

}  // namespace troxy::bench
