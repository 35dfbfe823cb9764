#include "policy/policy_registry.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "policy/adaptive_policies.hpp"

namespace uvmsim {

namespace {

std::string lower_copy(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::unique_ptr<MigrationPolicy> make_baseline(const PolicyConfig&) {
  return std::make_unique<FirstTouchPolicy>();
}

std::unique_ptr<MigrationPolicy> make_always(const PolicyConfig& cfg) {
  return std::make_unique<StaticThresholdPolicy>(
      cfg.static_threshold, cfg.write_triggers_migration, /*gate_on_oversub=*/false);
}

std::unique_ptr<MigrationPolicy> make_oversub(const PolicyConfig& cfg) {
  return std::make_unique<StaticThresholdPolicy>(
      cfg.static_threshold, cfg.write_triggers_migration, /*gate_on_oversub=*/true);
}

std::unique_ptr<MigrationPolicy> make_adaptive(const PolicyConfig& cfg) {
  return std::make_unique<AdaptivePolicy>(cfg.static_threshold, cfg.migration_penalty,
                                          cfg.adaptive_write_migrates);
}

/// The four paper schemes plus the in-tree online-adaptive policies.
/// Explicitly invoked from instance() — a self-registering static in a
/// static library would be dead-stripped by the linker.
void register_builtin_policies(PolicyRegistry& r) {
  r.add({"baseline", "migrate on first touch (paper Baseline / \"Disabled\")", make_baseline});
  r.add({"always", "static access-counter threshold ts from the start (paper \"Always\")",
         make_always});
  r.add({"oversub",
         "first-touch until the device first fills, threshold ts afterwards (paper "
         "\"Oversub\")",
         make_oversub});
  r.add({"adaptive", "dynamic threshold td per Equation 1 (this paper)", make_adaptive});
  register_adaptive_policies(r);
}

}  // namespace

PolicyRegistry& PolicyRegistry::instance() {
  // Magic-static: thread-safe one-time construction; built-ins registered
  // before the first lookup can observe the registry.
  static PolicyRegistry* reg = [] {
    auto* r = new PolicyRegistry;  // leaked intentionally: process lifetime
    register_builtin_policies(*r);
    return r;
  }();
  return *reg;
}

void PolicyRegistry::add(PolicyInfo info) {
  if (info.slug.empty()) throw std::invalid_argument("PolicyRegistry: empty slug");
  if (!info.make) throw std::invalid_argument("PolicyRegistry: null factory for " + info.slug);
  if (find(info.slug) != nullptr)
    throw std::invalid_argument("PolicyRegistry: duplicate slug " + info.slug);
  entries_.push_back(std::move(info));
}

const PolicyInfo* PolicyRegistry::find(std::string_view slug) const {
  for (const PolicyInfo& e : entries_)
    if (e.slug == slug) return &e;
  return nullptr;
}

std::vector<std::string> PolicyRegistry::slugs() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const PolicyInfo& e : entries_) out.push_back(e.slug);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<MigrationPolicy> PolicyRegistry::make(const PolicyConfig& cfg) const {
  const std::string slug = cfg.resolved_slug();
  const PolicyInfo* info = find(slug);
  if (info == nullptr)
    throw std::invalid_argument("unknown policy '" + slug +
                                "' (registered: " + registered_policy_names() + ")");
  return info->make(cfg);
}

bool apply_policy_name(PolicyConfig& cfg, std::string_view name) {
  const std::string s = lower_copy(name);
  PolicyKind kind{};
  bool is_paper = true;
  if (s == "baseline" || s == "first-touch" || s == "disabled")
    kind = PolicyKind::kFirstTouch;
  else if (s == "always")
    kind = PolicyKind::kStaticAlways;
  else if (s == "oversub")
    kind = PolicyKind::kStaticOversub;
  else if (s == "adaptive")
    kind = PolicyKind::kAdaptive;
  else
    is_paper = false;
  if (is_paper) {
    cfg.policy = kind;
    cfg.slug.clear();
    return true;
  }
  if (PolicyRegistry::instance().find(s) == nullptr) return false;
  cfg.slug = s;
  return true;
}

std::string registered_policy_names() {
  std::string out;
  for (const std::string& s : PolicyRegistry::instance().slugs()) {
    if (!out.empty()) out += "|";
    out += s;
  }
  return out;
}

}  // namespace uvmsim
