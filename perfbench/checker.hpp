// Echo-service linearizability check, applied to every client reply.
//
// EchoService write acks carry the version they installed, and a read
// reply is a deterministic function of (key, version), so staleness is
// detectable from the reply alone. The checker keeps a per-key floor:
// the newest version any client has observed as committed. A write
// issued while the floor was v must ack a version above v; a read issued
// then must return some version at or above v. A retried write may run
// twice (at-least-once failover), so no upper bound is asserted beyond a
// generous ceiling that keeps the read search finite.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace perfbench {

class EchoChecker {
  public:
    /// Registers an issued operation; returns the floor to check its
    /// reply against. `partner` is the second key a multiwrite bumps (the
    /// key itself otherwise).
    std::uint64_t on_issue(std::uint64_t key, bool is_write,
                           std::uint64_t partner);

    /// Checks a write ack; returns false (and records why) on violation.
    /// `due` and `now` are the simulated issue and reply times.
    bool check_write(std::uint64_t key, std::uint64_t floor,
                     troxy::ByteView reply, std::uint64_t due,
                     std::uint64_t now);

    /// Checks a read reply of `reply_size` bytes.
    bool check_read(std::uint64_t key, std::uint64_t floor,
                    std::size_t reply_size, troxy::ByteView reply,
                    std::uint64_t due, std::uint64_t now);

    /// Records a failure found outside the reply path (convergence).
    void fail(std::string why);

    [[nodiscard]] std::uint64_t violations() const noexcept {
        return violations_;
    }
    [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
        return errors_;
    }

  private:
    struct Floor {
        std::uint64_t version = 0;
        std::uint64_t observed_at = 0;  // simulated time of the reply
        bool by_write = false;          // a write ack, not a read, set it
    };
    void raise(std::uint64_t key, std::uint64_t version, std::uint64_t now,
               bool by_write);
    [[nodiscard]] std::string describe(std::uint64_t key, std::uint64_t due,
                                       std::uint64_t now);

    std::unordered_map<std::uint64_t, Floor> committed_;
    std::unordered_map<std::uint64_t, std::uint64_t> writes_issued_;
    std::uint64_t violations_ = 0;
    std::vector<std::string> errors_;  // the first few, for the report
};

}  // namespace perfbench
