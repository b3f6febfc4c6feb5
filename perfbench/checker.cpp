#include "checker.hpp"

#include <algorithm>

#include "apps/echo_service.hpp"
#include "common/serialize.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kWriteAckSize = 10;
constexpr std::size_t kErrorsKept = 8;
}  // namespace

std::uint64_t EchoChecker::on_issue(std::uint64_t key, bool is_write,
                                    std::uint64_t partner) {
    if (is_write) ++writes_issued_[key];
    if (is_write && partner != key) ++writes_issued_[partner];
    return committed_[key].version;
}

void EchoChecker::raise(std::uint64_t key, std::uint64_t version,
                        std::uint64_t now, bool by_write) {
    Floor& floor = committed_[key];
    if (version > floor.version) floor = {version, now, by_write};
}

std::string EchoChecker::describe(std::uint64_t key, std::uint64_t due,
                                  std::uint64_t now) {
    const Floor& floor = committed_[key];
    std::string out = " issued at " + std::to_string(due) +
                      " ns, replied at " + std::to_string(now) + " ns";
    if (floor.version > 0) {
        out += "; version " + std::to_string(floor.version) +
               " was first observed at " + std::to_string(floor.observed_at) +
               " ns by a " + (floor.by_write ? "write ack" : "read");
    }
    return out;
}

bool EchoChecker::check_write(std::uint64_t key, std::uint64_t floor,
                              troxy::ByteView reply, std::uint64_t due,
                              std::uint64_t now) {
    std::uint64_t version = 0;
    bool valid = reply.size() == kWriteAckSize && reply[0] == 1;
    if (valid) {
        troxy::Reader r(reply.subspan(1, 8));
        version = r.u64();
        valid = version > floor;
    }
    if (!valid) {
        fail("write to key " + std::to_string(key) +
             (version == 0 ? " got a reply that is no ack"
                           : " acked version " + std::to_string(version)) +
             " (committed floor " + std::to_string(floor) + ")," +
             describe(key, due, now));
        return false;
    }
    raise(key, version, now, true);
    return true;
}

bool EchoChecker::check_read(std::uint64_t key, std::uint64_t floor,
                             std::size_t reply_size, troxy::ByteView reply,
                             std::uint64_t due, std::uint64_t now) {
    const std::uint64_t ceiling = floor + 2 * writes_issued_[key] + 64;
    for (std::uint64_t v = floor; v <= ceiling; ++v) {
        const troxy::Bytes expected =
            troxy::apps::EchoService::expected_read_reply(key, v,
                                                          reply_size);
        if (std::equal(expected.begin(), expected.end(), reply.begin(),
                       reply.end())) {
            raise(key, v, now, false);
            return true;
        }
    }
    // Name the stale version, if it is one, to make the report useful.
    std::string seen = "a value matching no version";
    for (std::uint64_t v = 0; v < floor; ++v) {
        const troxy::Bytes expected =
            troxy::apps::EchoService::expected_read_reply(key, v, reply_size);
        if (std::equal(expected.begin(), expected.end(), reply.begin(),
                       reply.end())) {
            seen = "stale version " + std::to_string(v);
            break;
        }
    }
    fail("read of key " + std::to_string(key) + " returned " + seen +
         " (committed floor " + std::to_string(floor) + ")," +
         describe(key, due, now));
    return false;
}

void EchoChecker::fail(std::string why) {
    ++violations_;
    if (errors_.size() < kErrorsKept) errors_.push_back(std::move(why));
}

}  // namespace perfbench
