// Key=value configuration parsing: apply textual settings to a SimConfig.
// Used by the CLI's --set and --config-file options (and its shortcut
// flags, which name one key each) so experiment scripts can drive every
// knob without recompiling.
//
//   policy = adaptive
//   mem.eviction = lfu
//   policy.static_threshold = 16
//   xfer.pcie_bandwidth_gbps = 31.5   # PCIe 4.0
//   gpu.l2.enabled = true
//
// Every key is listed once, in one table in config_parse.cpp, with the
// SimConfig field it sets; parsing, serialization and config_keys() all read
// that table, so no key can be parsed but not written or the other way round.
//
// Lines starting with '#' (or after an inline '#') are comments; blank
// lines are ignored. Unknown keys and malformed values throw
// std::invalid_argument with the offending key in the message.
//
// The strict number parsers below are the only text-to-number conversion in
// the simulator and its tools: config values, tool flags and fuzz sidecars
// all go through them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"

namespace uvmsim {

/// Whole-token unsigned integer: decimal (no leading zeros) or 0x hex, no
/// sign, optionally followed by a K/KB, M/MB or G/GB multiplier (powers of
/// two, case-insensitive, a space allowed before it). The scaled value must
/// fit the destination's width. On anything else — including a null
/// pointer — return false and leave `out` untouched.
[[nodiscard]] bool parse_u64(const char* s, std::uint64_t& out);
[[nodiscard]] bool parse_u32(const char* s, std::uint32_t& out);
[[nodiscard]] bool parse_unsigned(const char* s, unsigned& out);

/// Whole-token finite decimal double (a leading '-' is allowed). Rejects
/// trailing junk, inf/nan and overflow, leaving `out` untouched.
[[nodiscard]] bool parse_double(const char* s, double& out);

/// Apply one "key = value" assignment to `cfg` and return the canonical key
/// it set. Throws on unknown keys or unparsable values.
std::string_view apply_config_setting(SimConfig& cfg, const std::string& key,
                                      const std::string& value);

/// Parse "key=value" (one string, as passed to --set).
std::string_view apply_config_setting(SimConfig& cfg, const std::string& assignment);

/// Read a whole config file (one assignment per line, # comments).
/// Returns the number of assignments applied; when `keys` is given, the
/// canonical key of each is appended to it.
std::size_t load_config_stream(SimConfig& cfg, std::istream& is,
                               std::vector<std::string_view>* keys = nullptr);

/// The list of recognized keys, sorted (for --keys and error messages).
[[nodiscard]] const std::vector<std::string>& config_keys();

/// Serialize `cfg` as key=value lines that load_config_stream() re-applies
/// to reproduce it exactly (experiment provenance). Covers every key in
/// config_keys().
[[nodiscard]] std::string to_config_string(const SimConfig& cfg);

/// Stable 64-bit digest of a configuration, stamped into UVMTRB1 trace
/// headers so replay can flag config drift. Computed over the canonical
/// to_config_string() form, which leaves out `collect_traces` — recording
/// attaches a sink (pure observation), so a replay run without one is still
/// driven by an identical configuration.
[[nodiscard]] std::uint64_t config_digest(const SimConfig& cfg);

}  // namespace uvmsim
