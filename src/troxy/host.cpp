#include "troxy/host.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/fragment.hpp"
#include "net/outbox.hpp"

namespace troxy::troxy_core {

TroxyReplicaHost::TroxyReplicaHost(
    net::Fabric& fabric, sim::Node& node, hybster::Config config,
    std::uint32_t replica_id, hybster::ServicePtr service,
    std::shared_ptr<enclave::TrinX> trinx,
    crypto::X25519Keypair channel_identity, Classifier classifier,
    const sim::CostProfile& replica_profile,
    const sim::CostProfile& troxy_profile, Options options,
    std::uint64_t seed)
    : fabric_(fabric),
      node_(node),
      config_(config),
      troxy_profile_(troxy_profile),
      options_(options),
      replica_id_(replica_id),
      trinx_(trinx),
      channel_identity_(channel_identity),
      classifier_(std::move(classifier)),
      seed_(seed) {
    troxy_ = std::make_unique<TroxyEnclave>(
        node.id(), replica_id, config, trinx, channel_identity, classifier_,
        troxy_profile, options.troxy, seed);

    hybster::Replica::Hooks hooks;
    // Requests in a Troxy deployment carry a single trusted-subsystem
    // certificate from the issuing Troxy (identified by its host replica).
    hooks.verify_request = [this, trinx](enclave::CostedCrypto& crypto,
                                         const hybster::Request& request) {
        if (request.auth.size() != 1) return false;
        const int issuer = config_.replica_of(request.id.client);
        if (issuer < 0) return false;
        return trinx->verify_independent(crypto,
                                         static_cast<std::uint32_t>(issuer),
                                         request.signed_view(),
                                         request.auth[0]);
    };
    // Replies are authenticated by the local Troxy (which uses the moment
    // to keep its fast-read cache coherent), then sent to the contact
    // replica hosting the issuing Troxy. An executed batch's replies
    // enter the enclave through ONE authenticate_replies transition when
    // batch_reply_auth is on; otherwise, and for retransmissions and
    // optimistic reads, each reply is a batch of one.
    // The enclave writes each certificate into its reply in place.
    using ReplyAuth = TroxyEnclave::ReplyAuth;
    auto certify_and_send = [this](enclave::CostedCrypto& crypto,
                                   net::Outbox& outbox,
                                   std::span<const ReplyAuth> batch) {
        troxy_->authenticate_replies(crypto.meter(), batch);
        for (const ReplyAuth& item : batch) {
            outbox.send(item.request->id.client,
                        net::wrap(net::Channel::Hybster,
                                  encode_message(
                                      hybster::Message(*item.reply))));
        }
    };
    hooks.deliver_reply = [certify_and_send](enclave::CostedCrypto& crypto,
                                             net::Outbox& outbox,
                                             const hybster::Request& request,
                                             hybster::Reply reply) {
        const ReplyAuth item{&request, &reply};
        certify_and_send(crypto, outbox, std::span(&item, 1));
    };
    if (options.batch_reply_auth) {
        using ExecutedReply = hybster::Replica::Hooks::ExecutedReply;
        hooks.deliver_replies = [certify_and_send](
                                    enclave::CostedCrypto& crypto,
                                    net::Outbox& outbox,
                                    std::vector<ExecutedReply>&& batch) {
            std::vector<ReplyAuth> items;
            items.reserve(batch.size());
            for (ExecutedReply& member : batch) {
                items.push_back(ReplyAuth{member.request, &member.reply});
            }
            certify_and_send(crypto, outbox, items);
        };
    }

    replica_ = std::make_unique<hybster::Replica>(
        fabric, node, config, replica_id, std::move(service),
        std::move(trinx), replica_profile, std::move(hooks));
}

void TroxyReplicaHost::crash() {
    hybster::FaultProfile profile;
    profile.crashed = true;
    faults_ = profile;
    replica_->set_faults(profile);
    // Volatile host bookkeeping dies with the process; pending timer
    // callbacks find their ids gone and become no-ops.
    votes_in_flight_.clear();
    fast_reads_in_flight_.clear();
    // Buffered replies die with the untrusted process; the vote timers'
    // retransmit path (re-armed post-restart) covers the gap.
    reply_buffer_.clear();
    ++voter_flush_generation_;
    voter_timer_armed_ = false;
    // Buffered cache queries die too; the enclave's fast-read timeout
    // would have fallen the reads back, but the enclave state is wiped on
    // restart anyway.
    fastread_buffer_.clear();
    fastread_buffered_ = 0;
    ++fastread_flush_generation_;
    fastread_timer_armed_ = false;
    // An in-flight enclave recovery dies with the host; the periodic
    // schedule (if any) re-triggers one after restart.
    enclave_recovering_ = false;
    ++recovery_generation_;
    recovery_buffer_.clear();
}

void TroxyReplicaHost::restart(hybster::ServicePtr fresh_service) {
    faults_ = hybster::FaultProfile{};
    ++restarts_;
    troxy_->restart();
    enclave_busy_until_ = 0;
    // Clears the replica's fault profile, resets its volatile state and
    // kicks off the rejoin protocol.
    replica_->restart(std::move(fresh_service));
}

void TroxyReplicaHost::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
    fabric_.attach_chain(
        node_.id(), [this](sim::NodeId from, sim::FragmentChain chain) {
            on_chain(from, std::move(chain));
        });
    if (options_.enclave_recovery_period > 0 && options_.authority) {
        // Stagger the group: replica i of n first recovers i/n of a
        // period late, so one enclave at a time is down instead of all of
        // them in lockstep.
        const sim::Duration stagger =
            options_.enclave_recovery_period * replica_id_ /
            static_cast<std::uint64_t>(config_.n());
        arm_recovery_timer(options_.enclave_recovery_period + stagger);
    }
}

void TroxyReplicaHost::arm_recovery_timer(sim::Duration delay) {
    fabric_.simulator().after(delay, [this]() {
        if (options_.enclave_recovery_period <= 0) return;
        // A crashed host skips the firing but keeps the schedule: the
        // recovery cycle resumes once the host restarts.
        if (!faults_.crashed) recover_enclave();
        arm_recovery_timer(options_.enclave_recovery_period);
    });
}

bool TroxyReplicaHost::recover_enclave() {
    if (!options_.authority || faults_.crashed || enclave_recovering_) {
        return false;
    }
    enclave_recovering_ = true;
    const std::uint64_t generation = ++recovery_generation_;

    // Teardown: the trusted subsystem exports a certified record of its
    // counters first (the handover only an attested instance can accept),
    // then the old enclave instance is gone for the downtime window.
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(troxy_profile_, meter);
    Bytes handover = trinx_->export_handover(crypto);

    fabric_.simulator().after(
        kEnclaveRecoveryDowntime,
        [this, generation, handover = std::move(handover)]() mutable {
            if (generation != recovery_generation_) return;
            if (faults_.crashed) return;  // crash() aborted the recovery
            finish_enclave_recovery(std::move(handover));
        });
    return true;
}

void TroxyReplicaHost::finish_enclave_recovery(Bytes handover) {
    // Attestation re-handshake: a fresh nonce, a fresh report, and the
    // authority's verdict gate the replacement instance — exactly the
    // initial provisioning flow, re-run.
    const std::uint64_t nonce = seed_ * 1000003 + ++recovery_nonce_;
    const enclave::AttestationReport report =
        options_.authority->issue(options_.measurement, nonce);
    if (!options_.authority->verify(report, options_.measurement, nonce)) {
        // The authority refused the re-handshake: stay down rather than
        // run unattested (cannot happen with a well-configured authority).
        enclave_recovering_ = false;
        recovery_buffer_.clear();
        return;
    }

    // Retire the outgoing instance's counters into the host accumulator
    // so observability spans the swap.
    retired_troxy_stats_.add_counters(troxy_->status());

    // Fresh instance: empty cache, empty voter, no sessions — every
    // secure-channel session key rotates because clients must re-
    // handshake, against the SAME pinned channel identity. The varied
    // seed re-keys the instance's internal randomness.
    troxy_ = std::make_unique<TroxyEnclave>(
        node_.id(), replica_id_, config_, trinx_, channel_identity_,
        classifier_, troxy_profile_, options_.troxy,
        seed_ + 7919 * (enclave_recoveries_ + 1));
    enclave_busy_until_ = 0;

    // Trusted-counter re-binding: the certified handover verifies under
    // the provisioned group key and never lowers a counter, so the
    // recovered subsystem cannot re-certify any (counter, value) slot —
    // e.g. an old view's ordering counter — the old instance used.
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(troxy_profile_, meter);
    const bool rebound = trinx_->import_handover(crypto, handover);
    TROXY_ASSERT(rebound, "counter handover must verify under the group key");

    ++enclave_recoveries_;
    enclave_recovering_ = false;

    // Replay what the host buffered while the enclave was down: hellos
    // re-handshake against the new instance; records under a dead session
    // are rejected by the channel and covered by the client's ordinary
    // reconnect logic — either way the legacy client never notices more
    // than added latency.
    std::vector<std::pair<sim::NodeId, Bytes>> buffered =
        std::move(recovery_buffer_);
    recovery_buffer_.clear();
    for (auto& [from, frame] : buffered) {
        on_message(from, std::move(frame));
    }
}

void TroxyReplicaHost::on_message(sim::NodeId from, Bytes message) {
    if (faults_.crashed) return;

    // During a recovery downtime window the enclave is gone: traffic that
    // would enter it through client-facing ecalls is buffered and
    // replayed once the recovered instance is attested. Agreement traffic
    // keeps flowing — the replica is untrusted host-side code and runs
    // through an enclave recovery (its trusted counters are exactly what
    // the handover preserves).
    if (enclave_recovering_) {
        // Peek at the channel byte without detaching the payload.
        auto peeked = net::unwrap_view(message);
        if (peeked && (peeked->first == net::Channel::Client ||
                       peeked->first == net::Channel::TroxyCache)) {
            ++recovery_buffered_frames_;
            if (recovery_buffer_.size() < 4096) {
                recovery_buffer_.emplace_back(from, std::move(message));
            } else {
                fabric_.network().recycle(std::move(message));
            }
            return;
        }
    }

    dispatch_message(from, message);
    // Every dispatch path decodes out of the frame synchronously, so the
    // wire buffer can rejoin the pool for the next sender.
    fabric_.network().recycle(std::move(message));
}

void TroxyReplicaHost::on_chain(sim::NodeId from, sim::FragmentChain chain) {
    sim::Network& network = fabric_.network();
    if (faults_.crashed) {
        network.recycle_chain(std::move(chain));
        return;
    }
    // Recovery-window traffic goes through the ordinary buffering logic,
    // which needs an owning flat frame anyway.
    if (!enclave_recovering_) {
        auto messages = net::take_bundle_messages(std::move(chain));
        if (messages) {
            network.recycle_chain(std::move(chain));
            dispatch_burst(from, std::move(*messages));
            return;
        }
    }
    network.count_materialization();
    Bytes flat = chain.materialize(&network.pool());
    network.recycle_chain(std::move(chain));
    on_message(from, std::move(flat));
}

void TroxyReplicaHost::dispatch_message(sim::NodeId from, ByteView message) {
    auto unwrapped = net::unwrap_view(message);
    if (!unwrapped) return;
    auto& [channel, payload] = *unwrapped;

    switch (channel) {
        case net::Channel::Hybster: {
            // Replies addressed to this node feed the local Troxy's voter;
            // everything else is agreement traffic for the replica.
            auto decoded = hybster::decode_message(payload);
            if (!decoded) return;
            if (auto* reply = std::get_if<hybster::Reply>(&*decoded)) {
                if (reply->request_id.client == node_.id()) {
                    enqueue_reply(std::move(*reply));
                    return;
                }
                return;  // misrouted reply
            }
            replica_->on_message(from, payload);
            return;
        }
        case net::Channel::Bundle: {
            // A coalesced flush burst from a peer: unpack and dispatch
            // each inner message.
            auto inner = net::unbundle(payload);
            if (!inner) return;
            dispatch_burst(from, std::move(*inner));
            return;
        }
        case net::Channel::Client: {
            auto frame = net::unframe_client(payload);
            if (!frame) return;
            enclave::CostMeter meter;
            switch (frame->first) {
                case net::ClientFrame::Hello:
                    apply(meter, troxy_->accept_connection(meter, from,
                                                           frame->second));
                    return;
                case net::ClientFrame::Record:
                    apply(meter, troxy_->handle_request(meter, from,
                                                        frame->second));
                    return;
                case net::ClientFrame::ServerHello:
                    return;  // servers never receive server hellos
            }
            return;
        }
        case net::Channel::TroxyCache: {
            auto decoded = decode_cache_message(payload);
            if (!decoded) return;
            enclave::CostMeter meter;
            if (auto* query = std::get_if<CacheQuery>(&*decoded)) {
                // A lone query is a burst of one.
                apply(meter, troxy_->handle_cache_queries(
                                 meter, std::span(query, 1)));
            } else if (auto* response =
                           std::get_if<CacheResponse>(&*decoded)) {
                apply(meter,
                      troxy_->handle_cache_response(meter, *response));
            } else if (auto* queries =
                           std::get_if<CacheQueryBatch>(&*decoded)) {
                // A whole query burst from a contact Troxy: answered in
                // ONE handle_cache_queries transition.
                apply(meter, troxy_->handle_cache_queries(meter,
                                                          queries->queries));
            } else {
                // A whole response burst from a remote: applied in ONE
                // handle_cache_responses transition.
                apply(meter,
                      troxy_->handle_cache_responses(
                          meter,
                          std::get<CacheResponseBatch>(*decoded).responses));
            }
            return;
        }
        default:
            return;  // not for this host
    }
}

void TroxyReplicaHost::dispatch_burst(sim::NodeId from,
                                      std::vector<Bytes> messages) {
    std::vector<hybster::Reply> replies;
    for (Bytes& message : messages) {
        auto unwrapped_inner = net::unwrap_view(message);
        if (!unwrapped_inner) continue;
        if (unwrapped_inner->first == net::Channel::Hybster) {
            auto decoded = hybster::decode_message(unwrapped_inner->second);
            if (!decoded) continue;
            if (auto* reply = std::get_if<hybster::Reply>(&*decoded)) {
                if (reply->request_id.client == node_.id()) {
                    replies.push_back(std::move(*reply));
                }
                continue;
            }
            replica_->on_message(from, unwrapped_inner->second);
            continue;
        }
        on_message(from, std::move(message));
    }
    ingest_replies(std::move(replies));
}

void TroxyReplicaHost::enqueue_reply(hybster::Reply&& reply) {
    if (options_.voter_batch_max <= 1) {
        // Unbatched voter: one ecall transition per reply, exactly the
        // pre-batching flow.
        enclave::CostMeter meter;
        apply(meter, troxy_->handle_reply(meter, std::move(reply)));
        return;
    }
    reply_buffer_.push_back(std::move(reply));
    if (reply_buffer_.size() >= options_.voter_batch_max) {
        flush_reply_buffer();
    } else {
        arm_voter_flush_timer();
    }
}

void TroxyReplicaHost::ingest_replies(std::vector<hybster::Reply> replies) {
    if (replies.empty()) return;
    if (options_.voter_batch_max <= 1) {
        for (hybster::Reply& reply : replies) {
            enqueue_reply(std::move(reply));
        }
        return;
    }
    for (hybster::Reply& reply : replies) {
        reply_buffer_.push_back(std::move(reply));
        if (reply_buffer_.size() >= options_.voter_batch_max) {
            flush_reply_buffer();
        }
    }
    // The arrival burst is complete — flush the remainder now instead of
    // waiting for the delay timer (no added latency for bundled bursts).
    flush_reply_buffer();
}

void TroxyReplicaHost::flush_reply_buffer() {
    if (reply_buffer_.empty()) return;
    ++voter_flush_generation_;  // cancel any armed delay timer
    voter_timer_armed_ = false;
    std::vector<hybster::Reply> batch = std::move(reply_buffer_);
    reply_buffer_.clear();
    enclave::CostMeter meter;
    apply(meter, troxy_->handle_replies(meter, std::move(batch)));
}

void TroxyReplicaHost::arm_voter_flush_timer() {
    if (voter_timer_armed_) return;
    voter_timer_armed_ = true;
    const std::uint64_t generation = voter_flush_generation_;
    fabric_.simulator().after(kVoterBatchDelay,
                              [this, generation]() {
                                  if (faults_.crashed) return;
                                  if (generation != voter_flush_generation_) {
                                      return;
                                  }
                                  voter_timer_armed_ = false;
                                  flush_reply_buffer();
                              });
}

void TroxyReplicaHost::apply(enclave::CostMeter& meter,
                             TroxyActions&& actions) {
    // All ecalls mutate shared trusted state (voter tables, cache,
    // session keys), so their work serializes on one enclave thread — for
    // etroxy the single TCS, for ctroxy the same library lock without
    // SGX. A call arriving while the thread is busy has its effects wait;
    // the wait delays completion but burns no CPU.
    sim::SimTime enclave_done = 0;
    if (meter.total() > 0) {
        const sim::SimTime start =
            std::max(fabric_.simulator().now(), enclave_busy_until_);
        enclave_done = start + meter.total();
        enclave_busy_until_ = enclave_done;
    }

    for (const std::uint64_t number : actions.completed_votes) {
        votes_in_flight_.erase(number);
    }
    for (const std::uint64_t id : actions.completed_fast_reads) {
        fast_reads_in_flight_.erase(id);
    }

    net::Outbox outbox(fabric_, node_, options_.coalesce_wire,
                       /*record_cost=*/0, config_.wire_zero_copy,
                       &config_.transport);
    for (auto& [to, bytes] : actions.sends) {
        outbox.send(to, std::move(bytes));
    }
    if (!actions.cache_queries.empty()) {
        route_cache_queries(outbox, std::move(actions.cache_queries));
    }
    if (!actions.to_order.empty()) {
        // The replica's processing happens after the Troxy's metered work.
        // One ecall can surface several client requests (e.g. pipelined
        // records in one segment); hand them over in a single batched
        // submission (one metered step, one outbox flush) so a batching
        // leader can cut them into one Prepare without per-request waits.
        outbox.defer([this, batch = std::move(actions.to_order)]() mutable {
            replica_->submit_all(std::move(batch));
        });
    }
    if (!actions.to_order_batch.empty()) {
        // A conflicted fast-read burst enters the ordering pipeline as
        // ONE pre-formed batch (cut into a single Prepare on the leader).
        outbox.defer(
            [this, batch = std::move(actions.to_order_batch)]() mutable {
                replica_->submit_prebatched(std::move(batch));
            });
    }
    outbox.flush(meter, enclave_done);

    for (const std::uint64_t number : actions.arm_vote_timers) {
        votes_in_flight_.insert(number);
        arm_vote_timer(number);
    }
    for (const std::uint64_t id : actions.arm_fast_read_timers) {
        fast_reads_in_flight_.insert(id);
        arm_fast_read_timer(id);
    }
}

void TroxyReplicaHost::route_cache_queries(
    net::Outbox& outbox,
    std::vector<std::pair<sim::NodeId, CacheQuery>>&& queries) {
    if (options_.fastread_batch_max <= 1) {
        // Unbatched fast reads: each query goes out as its own wire
        // message immediately, exactly the pre-batching flow.
        for (auto& [to, query] : queries) {
            outbox.send(to,
                        net::wrap(net::Channel::TroxyCache,
                                  encode_cache_message(
                                      CacheMessage(std::move(query)))));
        }
        return;
    }
    for (auto& [to, query] : queries) {
        fastread_buffer_[to].push_back(std::move(query));
        ++fastread_buffered_;
    }
    if (fastread_buffered_ >= options_.fastread_batch_max) {
        flush_fastread_buffer(outbox);
    } else {
        arm_fastread_flush_timer();
    }
}

void TroxyReplicaHost::flush_fastread_buffer(net::Outbox& outbox) {
    if (fastread_buffered_ == 0) return;
    ++fastread_flush_generation_;  // cancel any armed delay timer
    fastread_timer_armed_ = false;
    for (auto& [to, queries] : fastread_buffer_) {
        if (queries.empty()) continue;
        // A lone query keeps the single-message wire form (byte parity
        // with the unbatched flow); a burst ships as one CacheQueryBatch
        // and will be answered in one remote transition.
        const CacheMessage message =
            queries.size() == 1
                ? CacheMessage(std::move(queries.front()))
                : CacheMessage(CacheQueryBatch{std::move(queries)});
        outbox.send(to, net::wrap(net::Channel::TroxyCache,
                                  encode_cache_message(message)));
    }
    fastread_buffer_.clear();
    fastread_buffered_ = 0;
}

void TroxyReplicaHost::arm_fastread_flush_timer() {
    if (fastread_timer_armed_) return;
    fastread_timer_armed_ = true;
    const std::uint64_t generation = fastread_flush_generation_;
    fabric_.simulator().after(
        kFastReadBatchDelay, [this, generation]() {
            if (faults_.crashed) return;
            if (generation != fastread_flush_generation_) return;
            fastread_timer_armed_ = false;
            enclave::CostMeter meter;
            net::Outbox outbox(fabric_, node_, options_.coalesce_wire,
                       /*record_cost=*/0, config_.wire_zero_copy,
                       &config_.transport);
            flush_fastread_buffer(outbox);
            outbox.flush(meter);
        });
}

TroxyReplicaHost::Status TroxyReplicaHost::status() const {
    Status s;
    s.troxy = troxy_->status();
    // Add the counters retired by enclave recoveries; gauges stay live.
    s.troxy.add_counters(retired_troxy_stats_);
    s.exec = replica_->exec_stats();
    s.state = replica_->state_stats();
    s.enclave_recoveries = enclave_recoveries_;
    s.recovery_buffered_frames = recovery_buffered_frames_;
    s.pool = fabric_.network().pool().stats();
    s.wire = fabric_.network().wire_stats();
    return s;
}

void TroxyReplicaHost::arm_vote_timer(std::uint64_t number) {
    fabric_.simulator().after(options_.vote_timeout, [this, number]() {
        if (faults_.crashed) return;
        if (!votes_in_flight_.contains(number)) return;
        enclave::CostMeter meter;
        apply(meter, troxy_->retransmit(meter, number));
    });
}

void TroxyReplicaHost::arm_fast_read_timer(std::uint64_t query_id) {
    fabric_.simulator().after(options_.fast_read_timeout, [this, query_id]() {
        if (faults_.crashed) return;
        if (!fast_reads_in_flight_.contains(query_id)) return;
        fast_reads_in_flight_.erase(query_id);
        enclave::CostMeter meter;
        apply(meter, troxy_->fast_read_timeout(meter, query_id));
    });
}

}  // namespace troxy::troxy_core
