// Rule `determinism`: every simulation result must be fully determined by
// its RunRequest (sim/runner.hpp), so process-global entropy, wall-clock
// reads and hash-order-dependent iteration are banned from src/ and tools/.
// The check is token-level: comments and string literals cannot trip it,
// and unordered-container iteration is matched against the names actually
// declared as std::unordered_* in the file rather than a regex window.
//
// Telemetry whitelist: the batch runner's wall-clock per-run telemetry
// (wall_ms in BatchEntry) is the one sanctioned clock read — it reports how
// long a run took, and nothing in the simulation consumes it. Anything else
// needs an inline `// UVMSIM-ALLOW(determinism): reason`.
#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"
#include "analyze/rules.hpp"
#include "analyze/rules_common.hpp"

namespace uvmsim::analyze {

namespace {

constexpr std::array<std::string_view, 1> kWallClockWhitelist = {"src/sim/runner.cpp"};

constexpr std::array<std::string_view, 7> kBannedCalls = {
    "rand", "srand", "random", "drand48", "lrand48", "gettimeofday", "clock_gettime",
};

[[nodiscard]] bool ends_with_clock(std::string_view s) {
  constexpr std::string_view kSuffixA = "clock";
  constexpr std::string_view kSuffixB = "Clock";
  return (s.size() >= kSuffixA.size() &&
          s.substr(s.size() - kSuffixA.size()) == kSuffixA) ||
         (s.size() >= kSuffixB.size() && s.substr(s.size() - kSuffixB.size()) == kSuffixB);
}

class DeterminismRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "determinism"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "no process-global RNG, wall-clock reads or unordered-iteration in src/ and tools/";
  }

  void run(const Corpus& corpus, std::vector<Finding>& out) const override {
    for (const SourceFile& file : corpus.files) {
      if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/")) continue;
      scan_banned_calls(file, out);

      // Members are usually declared in the header and iterated in the .cpp,
      // so a .cpp inherits its .hpp twin's unordered names.
      std::set<std::string> unordered_names = collect_unordered_names(file);
      if (file.path.size() > 4 && file.path.substr(file.path.size() - 4) == ".cpp") {
        const SourceFile* header =
            corpus.find(file.path.substr(0, file.path.size() - 4) + ".hpp");
        if (header != nullptr) unordered_names.merge(collect_unordered_names(*header));
      }
      scan_unordered_iteration(file, unordered_names, out);
    }
  }

 private:
  [[nodiscard]] static bool wall_clock_whitelisted(std::string_view path) {
    for (const std::string_view p : kWallClockWhitelist)
      if (path == p) return true;
    return false;
  }

  void add(const SourceFile& file, int line, std::string message,
           std::vector<Finding>& out) const {
    out.push_back(
        Finding{std::string(name()), file.path, line, std::move(message), Severity::kError});
  }

  void scan_banned_calls(const SourceFile& file, std::vector<Finding>& out) const {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string& t = toks[i].text;

      // Process-global RNG / libc clocks: flag `f(` and `std::f(`, never
      // `obj.f(` or `Other::f(` (a member or foreign class is not libc).
      for (const std::string_view banned : kBannedCalls) {
        if (t != banned || !is_direct_call(toks, i)) continue;
        const Token* prev = tok_at(toks, i, -1);
        if (tok_is(prev, "::") && !qualified_by(toks, i, "std")) continue;
        add(file, toks[i].line,
            "call to '" + t + "' — use the request-seeded RNG (sim/rng.hpp)" +
                (t == "gettimeofday" || t == "clock_gettime"
                     ? " / keep wall-clock out of simulation code"
                     : ""),
            out);
      }

      if (t == "random_device") {
        add(file, toks[i].line,
            "std::random_device is process-global entropy — seed from the RunRequest instead",
            out);
      }
      if (t == "time" && is_direct_call(toks, i)) {
        const Token* prev = tok_at(toks, i, -1);
        if (!tok_is(prev, "::") || qualified_by(toks, i, "std"))
          add(file, toks[i].line, "call to 'time(' reads the wall clock", out);
      }
      if (t == "clock" && is_direct_call(toks, i) && tok_is(tok_at(toks, i, +2), ")")) {
        const Token* prev = tok_at(toks, i, -1);
        if (!tok_is(prev, "::") || qualified_by(toks, i, "std"))
          add(file, toks[i].line, "call to 'clock()' reads CPU time", out);
      }

      // std::chrono::*_clock::now() outside the telemetry whitelist — also
      // through an alias (`using Clock = std::chrono::steady_clock`): any
      // `X::now()` where X names a clock counts.
      if (t == "now" && is_direct_call(toks, i) && tok_is(tok_at(toks, i, -1), "::") &&
          !wall_clock_whitelisted(file.path)) {
        const Token* q = tok_at(toks, i, -2);
        if (q != nullptr && q->kind == TokenKind::kIdentifier &&
            (ends_with_clock(q->text))) {
          add(file, toks[i].line,
              q->text + "::now() reads the wall clock outside the telemetry "
                        "whitelist (src/sim/runner.cpp)",
              out);
        }
      }
    }
  }

  /// Names declared with a std::unordered_* type in this file.
  [[nodiscard]] static std::set<std::string> collect_unordered_names(const SourceFile& file) {
    const std::vector<Token>& toks = file.tokens;
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t != "unordered_map" && t != "unordered_set" && t != "unordered_multimap" &&
          t != "unordered_multiset")
        continue;
      if (!tok_is(tok_at(toks, i, +1), "<")) continue;
      const std::size_t after = skip_template_args(toks, i + 1);
      if (after < toks.size() && toks[after].kind == TokenKind::kIdentifier)
        names.insert(toks[after].text);
    }
    return names;
  }

  /// Iterating a std::unordered_* makes element order depend on hashing —
  /// banned wherever it could reach output (practically: anywhere; an
  /// order-independent pass documents that with an UVMSIM-ALLOW reason).
  void scan_unordered_iteration(const SourceFile& file,
                                const std::set<std::string>& unordered_names,
                                std::vector<Finding>& out) const {
    const std::vector<Token>& toks = file.tokens;
    if (unordered_names.empty()) return;

    for (std::size_t i = 0; i < toks.size(); ++i) {
      // Range-for whose sequence expression mentions an unordered name.
      if (toks[i].text == "for" && tok_is(tok_at(toks, i, +1), "(")) {
        const std::size_t end = skip_parens(toks, i + 1);
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < end; ++j) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (toks[j].text == ":" && depth == 1 && !tok_is(tok_at(toks, j, -1), ":") &&
              !tok_is(tok_at(toks, j, +1), ":")) {
            colon = j;
            break;
          }
        }
        if (colon != 0) {
          for (std::size_t j = colon + 1; j < end; ++j) {
            if (toks[j].kind == TokenKind::kIdentifier &&
                unordered_names.count(toks[j].text) != 0) {
              add(file, toks[j].line,
                  "range-for over unordered container '" + toks[j].text +
                      "' — iteration order depends on hashing; sort keys first",
                  out);
              break;
            }
          }
        }
      }
      // Explicit iterator loops: name.begin() / name.cbegin().
      if (toks[i].kind == TokenKind::kIdentifier &&
          unordered_names.count(toks[i].text) != 0 &&
          (tok_is(tok_at(toks, i, +1), ".") || tok_is(tok_at(toks, i, +1), "->"))) {
        const Token* method = tok_at(toks, i, +2);
        if (method != nullptr && (method->text == "begin" || method->text == "cbegin") &&
            tok_is(tok_at(toks, i, +3), "(")) {
          add(file, method->line,
              "iterating unordered container '" + toks[i].text +
                  "' — iteration order depends on hashing; sort keys first",
              out);
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_determinism_rule() { return std::make_unique<DeterminismRule>(); }

}  // namespace uvmsim::analyze
