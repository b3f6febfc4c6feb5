#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "crypto/aead.hpp"
#include "crypto/fastmode.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "enclave/gate.hpp"
#include "enclave/trinx.hpp"
#include "hybster/messages.hpp"
#include "net/secure_channel.hpp"
#include "sim/cost.hpp"
#include "trace.hpp"
#include "troxy/cache.hpp"
#include "troxy/shard_router.hpp"

namespace perfbench {

namespace {

using namespace troxy;
using SteadyClock = std::chrono::steady_clock;

constexpr int kRepetitions = 5;
constexpr double kRepetitionNs = 8e6;  // target length of one repetition

// Results are folded into this sink so no probe body is optimized away.
volatile std::uint64_t g_sink = 0;

Bytes pattern(std::size_t size, std::uint8_t salt) {
    Bytes data(size);
    for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 131 + salt);
    }
    return data;
}

/// A probe body runs `n` calls and returns a value derived from them; a
/// factory builds its inputs once, outside the timed region.
using Body = std::function<std::uint64_t(std::uint64_t n)>;
using Factory = std::function<Body()>;

/// Times `body` in repetitions of a calibrated call count; returns the
/// median ns per call.
double time_probe(const char* span_name, Tracer* tracer, const Body& body) {
    std::uint64_t n = 1;
    for (;;) {  // calibrate: grow n until one repetition is long enough
        const auto start = SteadyClock::now();
        g_sink = g_sink + body(n);
        const double ns = std::chrono::duration<double, std::nano>(
                              SteadyClock::now() - start)
                              .count();
        if (ns >= kRepetitionNs / 4 || n >= (1u << 24)) {
            n = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(static_cast<double>(n) *
                                              kRepetitionNs /
                                              std::max(ns, 1.0)));
            break;
        }
        n *= 4;
    }
    std::vector<double> per_call;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        Tracer::Scope span(tracer, span_name, 0);
        const auto start = SteadyClock::now();
        g_sink = g_sink + body(n);
        per_call.push_back(
            std::chrono::duration<double, std::nano>(SteadyClock::now() - start)
                .count() /
            static_cast<double>(n));
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[per_call.size() / 2];
}

struct Probe {
    const char* name;
    Factory make;
};

std::vector<std::string> key_names(int count) {
    std::vector<std::string> keys;
    for (int k = 0; k < count; ++k) {
        keys.emplace_back("k");
        keys.back() += std::to_string(k);  // EchoService's state-key names
    }
    return keys;
}

/// Cycles through a table of 4096 inputs in a scattered order.
std::size_t scatter(std::uint64_t i) {
    return static_cast<std::size_t>((i * 2654435761u) % 4096);
}

std::vector<Probe> make_probes() {
    std::vector<Probe> probes;

    // crypto
    probes.push_back({"crypto.sha256_1KiB_ns", [] {
        return Body([data = pattern(1024, 1)](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) acc += crypto::sha256(data)[0];
            return acc;
        });
    }});
    probes.push_back({"crypto.hmac_256B_ns", [] {
        return Body([key = pattern(32, 2), data = pattern(256, 3)](
                        std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += crypto::hmac_sha256(key, data)[0];
            }
            return acc;
        });
    }});
    probes.push_back({"crypto.aead_4KiB_ns", [] {
        return Body([aad = pattern(13, 4), data = pattern(4096, 5)](
                        std::uint64_t n) {
            crypto::ChaChaKey key{};
            key[0] = 7;
            crypto::ChaChaNonce nonce{};
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                nonce[0] = static_cast<std::uint8_t>(i);
                acc += crypto::aead_seal(key, nonce, aad, data).back();
            }
            return acc;
        });
    }});
    probes.push_back({"crypto.x25519_ns", [] {
        const auto alice = crypto::x25519_keypair_from_seed(pattern(32, 6));
        const auto bob = crypto::x25519_keypair_from_seed(pattern(32, 7));
        return Body([alice, bob](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += crypto::x25519(alice.private_key, bob.public_key)[0];
            }
            return acc;
        });
    }});

    // net: record protection on the secure channel.
    probes.push_back({"net.protect_256B_ns", [] {
        crypto::ChaChaKey key{};
        key[1] = 9;
        auto send = std::make_shared<net::RecordProtection>(
            key, crypto::ChaChaNonce{});
        return Body([send, data = pattern(256, 8)](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += send->protect(data).size();
            }
            return acc;
        });
    }});
    probes.push_back({"net.unprotect_256B_ns", [] {
        // One window's worth of records sealed up front; each pass over
        // them opens them in order on a fresh receiver.
        crypto::ChaChaKey key{};
        key[1] = 9;
        net::RecordProtection send(key, crypto::ChaChaNonce{});
        const Bytes data = pattern(256, 8);
        std::vector<Bytes> records;
        for (int i = 0; i < 4096; ++i) records.push_back(send.protect(data));
        return Body([key, records = std::move(records)](std::uint64_t n) {
            std::uint64_t acc = 0;
            net::RecordProtection recv;
            for (std::uint64_t i = 0; i < n; ++i) {
                const std::size_t slot = i % records.size();
                if (slot == 0) recv = net::RecordProtection(key, {});
                acc += recv.unprotect(records[slot]).size();
            }
            return acc;
        });
    }});
    probes.push_back({"net.protect_many_16x1KiB_ns", [] {
        crypto::ChaChaKey key{};
        key[2] = 3;
        auto send = std::make_shared<net::RecordProtection>(
            key, crypto::ChaChaNonce{});
        auto messages = std::make_shared<std::vector<Bytes>>();
        for (int m = 0; m < 16; ++m) {
            messages->push_back(pattern(1024, static_cast<std::uint8_t>(m)));
        }
        return Body([send, messages](std::uint64_t n) {
            const std::vector<ByteView> views(messages->begin(),
                                              messages->end());
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += send->protect_many(views).size();
            }
            return acc;
        });
    }});

    // enclave: the trusted counter.
    probes.push_back({"enclave.trinx_certify_ns", [] {
        auto trinx = std::make_shared<enclave::TrinX>(0, pattern(32, 10));
        return Body([trinx, message = pattern(256, 11)](std::uint64_t n) {
            enclave::CostMeter meter;
            enclave::CostedCrypto costed(sim::CostProfile::native(), meter);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += trinx->certify_continuing(costed, 0, message)
                           .certificate[0];
            }
            return acc;
        });
    }});
    probes.push_back({"enclave.trinx_verify_ns", [] {
        auto trinx = std::make_shared<enclave::TrinX>(0, pattern(32, 10));
        const Bytes message = pattern(256, 11);
        enclave::CostMeter meter;
        enclave::CostedCrypto costed(sim::CostProfile::native(), meter);
        const auto certified = trinx->certify_continuing(costed, 0, message);
        return Body([trinx, message, certified](std::uint64_t n) {
            enclave::CostMeter meter;
            enclave::CostedCrypto costed(sim::CostProfile::native(), meter);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += trinx->verify_continuing(costed, 0, 0, certified.value,
                                                message,
                                                certified.certificate);
            }
            return acc;
        });
    }});

    // hybster: message codec and certified views.
    probes.push_back({"hybster.prepare_codec_ns", [] {
        hybster::Prepare prepare;
        prepare.view = 3;
        prepare.seq = 12345;
        for (int r = 0; r < 16; ++r) {
            hybster::Request request;
            request.id = {static_cast<sim::NodeId>(1000 + r),
                          static_cast<std::uint64_t>(r)};
            request.payload = pattern(256, static_cast<std::uint8_t>(r));
            request.auth.push_back(enclave::Certificate{});
            prepare.batch.requests.push_back(std::move(request));
        }
        return Body([message = hybster::Message(std::move(prepare))](
                        std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                const Bytes wire = hybster::encode_message(message);
                acc += hybster::decode_message(wire).has_value();
            }
            return acc;
        });
    }});
    probes.push_back({"hybster.reply_certified_view_ns", [] {
        hybster::Reply reply;
        reply.view = 1;
        reply.seq = 777;
        reply.request_id = {1001, 42};
        reply.result = pattern(1024, 12);
        return Body([reply = std::move(reply)](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += reply.certified_view().size();
            }
            return acc;
        });
    }});

    // troxy: the fast-read cache and the shard router.
    probes.push_back({"troxy.cache_get_ns", [] {
        auto gate = std::make_shared<enclave::EnclaveGate>(
            "probe", sim::EnclaveCosts::sgx_v1(), 16);
        auto cache =
            std::make_shared<troxy_core::FastReadCache>(*gate, 64u << 20);
        const std::vector<std::string> keys = key_names(4096);
        for (const std::string& key : keys) {
            troxy_core::CacheEntry entry;
            entry.result = pattern(64, 13);
            cache->put(key, std::move(entry));
        }
        return Body([gate, cache, keys](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += cache->get(keys[scatter(i)]) != nullptr;
            }
            return acc;
        });
    }});
    probes.push_back({"troxy.shard_of_ns", [] {
        const std::vector<std::string> keys = key_names(4096);
        return Body([keys, map = troxy_core::ShardMap::split_evenly(keys, 4)](
                        std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                acc += static_cast<std::uint64_t>(
                    map.shard_of(keys[scatter(i)]));
            }
            return acc;
        });
    }});
    return probes;
}

}  // namespace

std::vector<ProbeResult> run_probes(Tracer* tracer) {
    std::vector<ProbeResult> out;
    const std::vector<Probe> probes = make_probes();
    for (const bool real : {false, true}) {
        crypto::set_fast_crypto(!real);
        for (const Probe& probe : probes) {
            const std::string name =
                std::string(probe.name) + (real ? ".real" : ".fast");
            const Body body = probe.make();
            out.push_back({name, time_probe(probe.name, tracer, body)});
        }
    }
    crypto::set_fast_crypto(true);
    return out;
}

}  // namespace perfbench
