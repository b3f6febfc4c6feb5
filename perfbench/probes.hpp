// Host-cost probes: each times one public call of a layer in isolation,
// in both fast and real crypto mode, and reports ns per call (median of
// several timed repetitions).
#pragma once

#include <string>
#include <vector>

namespace perfbench {

class Tracer;

struct ProbeResult {
    std::string name;  // e.g. "crypto.sha256_1KiB_ns.real"
    double ns = 0.0;
};

/// Runs every probe in both crypto modes and restores fast mode after.
[[nodiscard]] std::vector<ProbeResult> run_probes(Tracer* tracer);

}  // namespace perfbench
