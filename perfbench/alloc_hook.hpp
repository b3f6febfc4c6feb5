// Process-wide heap allocation counter, fed by the global operator new
// replacements in alloc_hook.cpp. Deltas around a region give its
// allocation count.
#pragma once

#include <cstdint>

namespace perfbench {

[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace perfbench
