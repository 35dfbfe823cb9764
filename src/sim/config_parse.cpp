#include "sim/config_parse.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "check/check.hpp"
#include "policy/policy_registry.hpp"
#include "trace/trace_binary.hpp"

namespace uvmsim {

namespace {

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

// ------------------------------------------------------------ numbers

/// Shift named by a K/KB, M/MB or G/GB multiplier, or -1.
int suffix_shift(std::string_view s) {
  const std::string l = lower(s);
  if (l == "k" || l == "kb") return 10;
  if (l == "m" || l == "mb") return 20;
  if (l == "g" || l == "gb") return 30;
  return -1;
}

template <typename T>
bool parse_uint(std::string_view s, T& out) {
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  } else if (s.size() > 1 && s[0] == '0' && std::isdigit(static_cast<unsigned char>(s[1]))) {
    return false;  // "010" once read as octal 8: refuse it rather than read 10
  }
  // from_chars takes no sign and no leading space, and fails on overflow.
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc{}) return false;
  std::string_view rest = s.substr(static_cast<std::size_t>(end - s.data()));
  int shift = 0;
  if (!rest.empty()) {
    rest.remove_prefix(std::min(rest.find_first_not_of(" \t"), rest.size()));
    shift = suffix_shift(rest);
    if (shift < 0) return false;
  }
  if (v > (std::uint64_t{std::numeric_limits<T>::max()} >> shift)) return false;
  out = static_cast<T>(v << shift);
  return true;
}

bool parse_finite(std::string_view s, double& out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

// ------------------------------------------------- field parse / print

[[noreturn]] void bad_value(std::string_view what, std::string_view key, std::string_view v) {
  throw std::invalid_argument("config: bad " + std::string(what) + " for " +
                              std::string(key) + ": " + std::string(v));
}

void parse_value(std::uint32_t& field, std::string_view key, std::string_view v) {
  if (!parse_uint(v, field)) bad_value("integer", key, v);
}

void parse_value(std::uint64_t& field, std::string_view key, std::string_view v) {
  if (!parse_uint(v, field)) bad_value("integer", key, v);
}

void parse_value(double& field, std::string_view key, std::string_view v) {
  if (!parse_finite(v, field)) bad_value("number", key, v);
}

void parse_value(bool& field, std::string_view key, std::string_view v) {
  const std::string s = lower(v);
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    field = true;
  } else if (s == "false" || s == "0" || s == "no" || s == "off") {
    field = false;
  } else {
    bad_value("boolean", key, v);
  }
}

void parse_value(PolicyConfig& field, std::string_view key, std::string_view v) {
  // Registry lookup (policy/policy_registry.hpp): paper names set the enum,
  // any other registered slug is recorded in field.slug.
  if (!apply_policy_name(field, v))
    bad_value("policy", key, std::string(v) + " (registered: " + registered_policy_names() + ")");
}

/// One name table per enum, shared by parsing and printing.
template <typename E>
struct EnumName {
  E value;
  std::string_view name;
};

constexpr EnumName<EvictionKind> kEvictionNames[] = {
    {EvictionKind::kLru, "lru"}, {EvictionKind::kLfu, "lfu"}, {EvictionKind::kTree, "tree"}};

constexpr EnumName<PrefetcherKind> kPrefetcherNames[] = {
    {PrefetcherKind::kNone, "none"},
    {PrefetcherKind::kSequential, "sequential"},
    {PrefetcherKind::kRandom, "random"},
    {PrefetcherKind::kTree, "tree"}};

template <typename E, std::size_t N>
void parse_enum(E& field, const EnumName<E> (&names)[N], std::string_view what,
                std::string_view key, std::string_view v) {
  const std::string s = lower(v);
  for (const EnumName<E>& n : names) {
    if (n.name == s) {
      field = n.value;
      return;
    }
  }
  bad_value(what, key, v);
}

template <typename E, std::size_t N>
std::string_view enum_name(const EnumName<E> (&names)[N], E value) {
  for (const EnumName<E>& n : names)
    if (n.value == value) return n.name;
  UVM_CHECK(false, "config: out-of-domain enum value " << static_cast<unsigned>(value));
  return {};  // unreachable; UVM_CHECK throws
}

void parse_value(EvictionKind& field, std::string_view key, std::string_view v) {
  parse_enum(field, kEvictionNames, "eviction", key, v);
}

void parse_value(PrefetcherKind& field, std::string_view key, std::string_view v) {
  parse_enum(field, kPrefetcherNames, "prefetcher", key, v);
}

template <typename T>
void print_value(std::ostream& os, const T& v) {  // integers and doubles
  os << v;
}
void print_value(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
void print_value(std::ostream& os, EvictionKind v) { os << enum_name(kEvictionNames, v); }
void print_value(std::ostream& os, PrefetcherKind v) { os << enum_name(kPrefetcherNames, v); }
void print_value(std::ostream& os, const PolicyConfig& v) { os << v.resolved_slug(); }

// ------------------------------------------------------------ key table

struct Key {
  std::string_view name;
  void (*parse)(SimConfig&, std::string_view key, std::string_view value);
  void (*print)(std::ostream&, const SimConfig&);
};

// Each key is the path of the SimConfig field it sets. The order is the
// serialization order: changing it changes every config_digest.
#define UVMSIM_CONFIG_KEY(field)                                                \
  Key{#field,                                                                   \
      [](SimConfig& c, std::string_view k, std::string_view v) {                \
        parse_value(c.field, k, v);                                             \
      },                                                                        \
      [](std::ostream& os, const SimConfig& c) { print_value(os, c.field); }}

constexpr Key kKeys[] = {
    UVMSIM_CONFIG_KEY(gpu.num_sms),
    UVMSIM_CONFIG_KEY(gpu.warps_per_sm),
    UVMSIM_CONFIG_KEY(gpu.core_clock_ghz),
    UVMSIM_CONFIG_KEY(gpu.dram_latency),
    UVMSIM_CONFIG_KEY(gpu.dram_bandwidth_gbps),
    UVMSIM_CONFIG_KEY(gpu.page_walk_latency),
    UVMSIM_CONFIG_KEY(gpu.tlb_entries_per_sm),
    UVMSIM_CONFIG_KEY(gpu.l2.enabled),
    UVMSIM_CONFIG_KEY(gpu.l2.size_bytes),
    UVMSIM_CONFIG_KEY(gpu.l2.ways),
    UVMSIM_CONFIG_KEY(xfer.pcie_bandwidth_gbps),
    UVMSIM_CONFIG_KEY(xfer.host_memory_bandwidth_gbps),
    UVMSIM_CONFIG_KEY(xfer.pcie_latency),
    UVMSIM_CONFIG_KEY(xfer.remote_access_latency),
    UVMSIM_CONFIG_KEY(xfer.remote_overhead_bytes),
    UVMSIM_CONFIG_KEY(xfer.far_fault_latency_us),
    UVMSIM_CONFIG_KEY(xfer.fault_batch_max),
    UVMSIM_CONFIG_KEY(xfer.fault_batch_window),
    UVMSIM_CONFIG_KEY(mem.device_capacity_bytes),
    UVMSIM_CONFIG_KEY(mem.eviction),
    UVMSIM_CONFIG_KEY(mem.prefetcher),
    UVMSIM_CONFIG_KEY(mem.eviction_granularity),
    UVMSIM_CONFIG_KEY(mem.eviction_protect_cycles),
    UVMSIM_CONFIG_KEY(mem.counter_granularity),
    UVMSIM_CONFIG_KEY(mem.counter_count_bits),
    UVMSIM_CONFIG_KEY(mem.oversubscription),
    UVMSIM_CONFIG_KEY(mem.coalescing),
    UVMSIM_CONFIG_KEY(mem.splinter_on_evict),
    UVMSIM_CONFIG_KEY(policy),
    UVMSIM_CONFIG_KEY(policy.static_threshold),
    UVMSIM_CONFIG_KEY(policy.migration_penalty),
    UVMSIM_CONFIG_KEY(policy.write_triggers_migration),
    UVMSIM_CONFIG_KEY(policy.adaptive_write_migrates),
    UVMSIM_CONFIG_KEY(policy.historic_counters_override),
    UVMSIM_CONFIG_KEY(audit.enabled),
    UVMSIM_CONFIG_KEY(audit.interval_events),
    UVMSIM_CONFIG_KEY(audit.fail_fast),
    UVMSIM_CONFIG_KEY(mitigation.enabled),
    UVMSIM_CONFIG_KEY(mitigation.detect_faults),
    UVMSIM_CONFIG_KEY(mitigation.pin_cooldown),
    UVMSIM_CONFIG_KEY(rng_seed),
    UVMSIM_CONFIG_KEY(copy_then_execute),
    UVMSIM_CONFIG_KEY(kernel_launch_overhead_us),
};

#undef UVMSIM_CONFIG_KEY

}  // namespace

bool parse_u64(const char* s, std::uint64_t& out) {
  return s != nullptr && parse_uint(s, out);
}

bool parse_u32(const char* s, std::uint32_t& out) {
  return s != nullptr && parse_uint(s, out);
}

bool parse_unsigned(const char* s, unsigned& out) {
  return s != nullptr && parse_uint(s, out);
}

bool parse_double(const char* s, double& out) { return s != nullptr && parse_finite(s, out); }

std::string_view apply_config_setting(SimConfig& cfg, const std::string& key,
                                      const std::string& value) {
  const std::string k = lower(trim(key));
  const auto it = std::find_if(std::begin(kKeys), std::end(kKeys),
                               [&](const Key& e) { return e.name == k; });
  if (it == std::end(kKeys)) throw std::invalid_argument("config: unknown key '" + k + "'");
  it->parse(cfg, it->name, trim(value));
  return it->name;
}

std::string_view apply_config_setting(SimConfig& cfg, const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("config: expected key=value, got '" + assignment + "'");
  }
  return apply_config_setting(cfg, assignment.substr(0, eq), assignment.substr(eq + 1));
}

std::size_t load_config_stream(SimConfig& cfg, std::istream& is,
                               std::vector<std::string_view>* keys) {
  std::size_t applied = 0;
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    const std::string_view key = apply_config_setting(cfg, line);
    if (keys != nullptr) keys->push_back(key);
    ++applied;
  }
  return applied;
}

std::string to_config_string(const SimConfig& c) {
  std::ostringstream os;
  os.precision(17);
  for (const Key& k : kKeys) {
    os << k.name << " = ";
    k.print(os, c);
    os << '\n';
  }
  return os.str();
}

const std::vector<std::string>& config_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> v;
    for (const Key& k : kKeys) v.emplace_back(k.name);
    std::sort(v.begin(), v.end());
    return v;
  }();
  return keys;
}

std::uint64_t config_digest(const SimConfig& cfg) {
  const std::string text = to_config_string(cfg);
  return fnv1a64(text.data(), text.size());
}

}  // namespace uvmsim
