// Simulated SGX enclave boundary.
//
// The real Troxy is reachable from the untrusted replica only through 16
// manually verified ecalls (§V-A). This gate reproduces the two properties
// of that boundary that matter for the reproduction:
//
//   * cost — every crossing charges a transition penalty plus parameter
//     marshalling, and memory beyond the EPC limit pays paging costs;
//   * interface discipline — the set of distinct entry points is recorded
//     and bounded, so tests can assert the implementation stays within
//     its budget (the paper's Troxy has 16 ecalls, ours 11).
//
// The *isolation* property is enforced by construction in C++: trusted
// classes (TroxyEnclave, TrinX) keep their secrets private and the
// untrusted code never holds references into them.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "enclave/meter.hpp"
#include "sim/cost.hpp"

namespace troxy::enclave {

class EnclaveGate {
  public:
    EnclaveGate(std::string enclave_name, sim::EnclaveCosts costs,
                std::size_t max_ecalls);

    /// Charges one ecall crossing: transition + copy-in of `bytes_in` and
    /// copy-out of `bytes_out`. `name` identifies the entry point.
    void ecall(CostMeter& meter, std::string_view name, std::size_t bytes_in,
               std::size_t bytes_out = 0);

    /// Charges an ocall crossing (Troxy defines none; present for
    /// completeness and the ablation benchmarks).
    void ocall(CostMeter& meter, std::size_t bytes) noexcept;

    /// Tracks trusted heap usage for the EPC model.
    void allocate(std::size_t bytes) noexcept;
    void release(std::size_t bytes) noexcept;

    /// Charges paging cost for touching `bytes` of trusted memory while
    /// the working set exceeds the EPC limit.
    void touch(CostMeter& meter, std::size_t bytes) noexcept;

    [[nodiscard]] std::uint64_t transitions() const noexcept {
        return transitions_;
    }
    [[nodiscard]] std::size_t distinct_ecalls() const noexcept {
        return ecall_names_.size();
    }
    [[nodiscard]] std::size_t allocated_bytes() const noexcept {
        return allocated_;
    }
    [[nodiscard]] const sim::EnclaveCosts& costs() const noexcept {
        return costs_;
    }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

  private:
    std::string name_;
    sim::EnclaveCosts costs_;
    std::size_t max_ecalls_;
    std::set<std::string, std::less<>> ecall_names_;
    std::uint64_t transitions_ = 0;
    std::size_t allocated_ = 0;
};

}  // namespace troxy::enclave
