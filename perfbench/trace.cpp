#include "trace.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
    spans_.reserve(1 << 16);
}

std::int64_t Tracer::host_now() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    Span span;
    span.name = name;
    span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    span.request = request;
    index_ = static_cast<std::int32_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(span);
    tracer_->open_.push_back(index_);
    // Stamp the start last so the bookkeeping above is not billed.
    tracer_->spans_.back().start_ns = tracer_->host_now();
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    tracer_->spans_[static_cast<std::size_t>(index_)].end_ns =
        tracer_->host_now();
    tracer_->open_.pop_back();
}

void Tracer::sim_span(const char* name, std::uint64_t request,
                      std::int64_t start_ns, std::int64_t end_ns) {
    Span span;
    span.name = name;
    span.clock = Clock::Sim;
    span.request = request;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
}

std::map<std::string, Tracer::Totals> Tracer::host_totals(
    std::size_t from) const {
    // Children nest strictly inside their parent and never overlap each
    // other (one stack), so the covered part is the sum of child spans.
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& span : spans_) {
        if (span.clock != Clock::Host || span.parent < 0) continue;
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
    }
    std::map<std::string, Totals> totals;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        if (span.clock != Clock::Host) continue;
        Totals& t = totals[span.name];
        const auto duration = static_cast<double>(span.end_ns - span.start_ns);
        ++t.count;
        t.total_ns += duration;
        t.self_ns += duration - child_ns[i];
    }
    return totals;
}

bool Tracer::write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "name\tclock\trequest\tparent\tstart_ns\tend_ns\n");
    for (const Span& span : spans_) {
        std::fprintf(out, "%s\t%s\t%llu\t%d\t%lld\t%lld\n", span.name,
                     span.clock == Clock::Host ? "host" : "sim",
                     static_cast<unsigned long long>(span.request),
                     span.parent, static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns));
    }
    return std::fclose(out) == 0;
}

TracedService::TracedService(troxy::hybster::ServicePtr inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

troxy::hybster::RequestInfo TracedService::classify(
    troxy::ByteView request) const {
    Tracer::Scope scope(&tracer_, "apps.classify", 0);
    return inner_->classify(request);
}

troxy::Bytes TracedService::execute(troxy::ByteView request) {
    Tracer::Scope scope(&tracer_, "apps.execute", 0);
    return inner_->execute(request);
}

troxy::Bytes TracedService::checkpoint() const {
    return inner_->checkpoint();
}

void TracedService::restore(troxy::ByteView snapshot) {
    inner_->restore(snapshot);
}

troxy::sim::Duration TracedService::execution_cost(
    troxy::ByteView request) const {
    return inner_->execution_cost(request);
}

troxy::troxy_core::Classifier traced_classifier(
    troxy::troxy_core::Classifier inner, Tracer& tracer) {
    return [inner = std::move(inner), &tracer](troxy::ByteView request) {
        Tracer::Scope scope(&tracer, "troxy.classify", 0);
        return inner(request);
    };
}

}  // namespace perfbench
