// Tool version identity. Participates in plan-cache keys: any release that
// can change planning output must bump this so stale cached plans from
// older binaries are never replayed.
#pragma once

namespace ompdart {

inline constexpr const char *kToolVersion = "0.5.0";

} // namespace ompdart
