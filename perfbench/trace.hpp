// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only, around the
// calls it makes into the system's layers: the simulator run loop, the
// service and classifier (through decorators), the request builder, the
// client reply callback and the host probes. Host spans are timed with
// steady_clock and nest through a stack, so each span knows its parent;
// request spans are in simulated time and carry the request's id. Spans
// stay in memory until write() at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hybster/service.hpp"
#include "troxy/enclave.hpp"

namespace perfbench {

enum class Clock : std::uint8_t { Host, Sim };

struct Span {
    const char* name = "";
    std::int32_t parent = -1;  // index into spans(), -1 = root
    Clock clock = Clock::Host;
    std::uint64_t request = 0;  // request id, 0 = none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class Tracer {
  public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Opens a host-clock span; it closes when the returned scope dies.
    class Scope {
      public:
        Scope(Tracer* tracer, const char* name, std::uint64_t request);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        std::int32_t index_ = -1;
    };

    /// Records a finished span measured in simulated nanoseconds.
    void sim_span(const char* name, std::uint64_t request,
                  std::int64_t start_ns, std::int64_t end_ns);

    struct Totals {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double self_ns = 0.0;  // duration minus the part children cover
    };
    /// Per-name totals of the host-clock spans recorded at or after index
    /// `from`.
    [[nodiscard]] std::map<std::string, Totals> host_totals(
        std::size_t from = 0) const;

    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

    /// Writes every span as one tab-separated line:
    /// name, clock, request, parent, start_ns, end_ns.
    bool write(const std::string& path) const;

  private:
    [[nodiscard]] std::int64_t host_now() const noexcept;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;  // stack of open host spans
};

/// Service decorator: spans around execute() and classify(); every other
/// call, execution_cost() included, is forwarded unchanged so the traced
/// run models exactly the same work.
class TracedService final : public troxy::hybster::Service {
  public:
    TracedService(troxy::hybster::ServicePtr inner, Tracer& tracer);

    [[nodiscard]] troxy::hybster::RequestInfo classify(
        troxy::ByteView request) const override;
    troxy::Bytes execute(troxy::ByteView request) override;
    [[nodiscard]] troxy::Bytes checkpoint() const override;
    void restore(troxy::ByteView snapshot) override;
    [[nodiscard]] troxy::sim::Duration execution_cost(
        troxy::ByteView request) const override;

  private:
    troxy::hybster::ServicePtr inner_;
    Tracer& tracer_;
};

/// Classifier decorator with one span per call.
[[nodiscard]] troxy::troxy_core::Classifier traced_classifier(
    troxy::troxy_core::Classifier inner, Tracer& tracer);

}  // namespace perfbench
