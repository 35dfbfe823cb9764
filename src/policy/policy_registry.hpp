// Slug-keyed migration-policy factory.
//
// The registry replaces the old hard-coded PolicyKind switch: every policy —
// the four paper schemes and any experimental one — is constructed by name
// through `PolicyRegistry::instance().make(cfg)`, and the CLIs/config parser
// resolve user-supplied names with `apply_policy_name()`. In-tree policies
// register from `register_builtin_policies()`; code outside the tree calls
// `PolicyRegistry::instance().add()` before its first lookup.
//
// Determinism: the registry is append-only after first use and iterated in
// registration order; `slugs()` returns a sorted copy for stable artifacts.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "policy/migration_policy.hpp"

namespace uvmsim {

using PolicyFactory = std::function<std::unique_ptr<MigrationPolicy>(const PolicyConfig&)>;

struct PolicyInfo {
  std::string slug;     ///< registry key; MigrationPolicy::name() must match
  std::string summary;  ///< one-liner for --help output and docs
  PolicyFactory make;
};

class PolicyRegistry {
 public:
  /// The process-wide registry. First use registers the built-in policies
  /// (an explicit call, not static-initializer magic, so a static-library
  /// link cannot dead-strip them).
  static PolicyRegistry& instance();

  /// Register a policy. Throws std::invalid_argument on a duplicate slug or
  /// an empty slug/factory.
  void add(PolicyInfo info);

  /// Entry for `slug`, or nullptr when unregistered.
  [[nodiscard]] const PolicyInfo* find(std::string_view slug) const;

  /// All entries in registration order.
  [[nodiscard]] const std::vector<PolicyInfo>& entries() const { return entries_; }

  /// All registered slugs, sorted (stable across registration order).
  [[nodiscard]] std::vector<std::string> slugs() const;

  /// Instantiate the policy `cfg.resolved_slug()` selects. Throws
  /// std::invalid_argument (listing the registered slugs) when unknown.
  [[nodiscard]] std::unique_ptr<MigrationPolicy> make(const PolicyConfig& cfg) const;

 private:
  std::vector<PolicyInfo> entries_;
};

/// Resolve a user-supplied policy name into `cfg`: the paper schemes
/// (including the historical aliases "first-touch" and "disabled" for
/// "baseline") set `cfg.policy` and clear `cfg.slug`; any other registered
/// slug is recorded in `cfg.slug`. Returns false — leaving `cfg` untouched —
/// when the name matches nothing. Matching is case-insensitive.
[[nodiscard]] bool apply_policy_name(PolicyConfig& cfg, std::string_view name);

/// "baseline|always|oversub|adaptive|..." — sorted slug list for error
/// messages (the rc=2 unknown-policy path of the CLIs).
[[nodiscard]] std::string registered_policy_names();

}  // namespace uvmsim
