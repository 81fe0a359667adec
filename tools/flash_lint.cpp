// flash_lint: project-specific domain lint for the FLASH tree.
//
// clang-tidy catches generic C++ bugs; these rules encode *project*
// invariants that no generic checker knows about. Files are tokenized
// (comments, string/char literals and raw strings removed, line numbers
// kept), the token rules run over the token stream, and three rules run a
// per-function dataflow pass on top of it:
//
//   raw-mod         Modulus-domain arithmetic outside src/hemath must go
//                   through mul_mod/add_mod/... — a raw `x % q` on a u64
//                   that already sits in [0, q) is either redundant or, far
//                   worse, a sign that a product was formed without the
//                   128-bit widening the hemath helpers guarantee. The same
//                   rule covers the Z_{2^k} idiom: a binary `x & mask` /
//                   `x &= some_mask` reduction outside src/hemath is a
//                   hand-rolled Pow2Ring — one missing AND in a wrap-exact
//                   chain stays invisible until the widths line up, so the
//                   masked form goes through Pow2Ring or carries an audited
//                   allow(raw-mod) reason.
//   raw-rng         std::mt19937_64 and hemath::Mt19937_64 may only be
//                   constructed in src/hemath/sampler.*, src/hemath/mt19937*
//                   and src/testing/generators.*.
//                   Everyone else derives a stream with derive_stream_seed()
//                   (directly or via a documented wrapper) so that seeds
//                   printed in failure logs replay deterministically and
//                   parallel tasks never share a generator.
//   narrowing-fxp   In the fixed-point FFT path (src/fft/*fxp*), casts from
//                   the wide accumulator type to a narrower integer are only
//                   legal after saturation; anywhere else they silently drop
//                   overflow bits the interval analyzer proved could be set.
//   simd-dispatch   Dispatch sites outside src/hemath/simd* must query the
//                   SIMD level through level_at_least(), never
//                   active_simd_level() directly — `== kAvx2` equality
//                   checks silently turned AVX2 kernels off when kAvx512
//                   was added.
//   scratch-escape  Spans alloc()ed from a locally-declared
//                   core::ScratchFrame die with the frame (scratch.hpp
//                   ownership rules): returning such a span, or storing it
//                   into a member (`x_ = span` / `this->x = span`), escapes
//                   the frame lifetime and reads reclaimed arena memory.
//   lock-order      Lexical lock-order pass: every lock_guard/unique_lock/
//                   scoped_lock acquisition made while another is held adds
//                   a held -> acquired edge (mutexes identified by the leaf
//                   identifier of the locked expression; defer_lock and
//                   explicit .unlock() are understood). A cycle in the
//                   global graph is a deadlock candidate and every edge on
//                   the cycle is reported at its acquisition site.
//   stream-derive   A parallel_for/for_range lambda body that constructs a
//                   Sampler, mt19937 or Mt19937_64 must derive its seed through
//                   derive_stream_seed()/substream()/fork() AND mix in a
//                   lambda parameter (the loop index) — otherwise every
//                   worker replays one stream, which is exactly the
//                   correlated-mask bug class the protocol seed schedule
//                   exists to prevent.
//
// Intentional boundary crossings are annotated in-source:
//
//     ... code ...  // flash-lint: allow(raw-mod): reason
//
// (same line or the immediately preceding line). The reason is mandatory —
// an allow() without one is itself reported. For lock-order the marker goes
// on the inner acquisition site: it removes that edge from the graph.
//
// Usage:  flash_lint [-p <builddir>] [--expect <rule>] [<repo-root>]
//
// With -p, the file list comes from <builddir>/compile_commands.json (plus
// all headers under src/); without it, the src/ tree is walked directly.
// --expect <rule> inverts the contract for fixture self-tests: exit 0 iff
// at least one finding was produced and every finding is of <rule>.
// Exit status: 0 = clean (or --expect satisfied), 1 = findings, 2 =
// usage/setup error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Tokenizer

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  std::size_t line;
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Tokenize C++ source: identifiers, numbers, and punctuation, with comments
/// and string/char literal *contents* dropped (raw strings included). Only
/// the multi-character operators the rules inspect are fused ("->", "::",
/// compound assignments so `%=` never reads as `%`); everything else is one
/// punctuation token per character.
std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> toks;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  const auto peek = [&](std::size_t k) { return i + k < n ? text[i + k] : '\0'; };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // Raw string literal R"delim( ... )delim" — find the matching closer.
    if (c == 'R' && peek(1) == '"' &&
        (toks.empty() || toks.back().text != "include")) {  // not a header name
      std::size_t d = i + 2;
      while (d < n && text[d] != '(') ++d;
      const std::string delim = text.substr(i + 2, d - (i + 2));
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = text.find(closer, d);
      const std::size_t stop = end == std::string::npos ? n : end + closer.size();
      for (std::size_t j = i; j < stop; ++j) {
        if (text[j] == '\n') ++line;
      }
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\') ++i;
        if (i < n && text[i] == '\n') ++line;
        ++i;
      }
      ++i;  // closing quote
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      toks.push_back({Token::Kind::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (ident_char(text[j]) || text[j] == '.' || text[j] == '\'')) ++j;
      toks.push_back({Token::Kind::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Fused operators the rules must not misread.
    static const char* kTwo[] = {"->", "::", "%=", "+=", "-=", "*=", "/=", "&=",
                                 "|=", "^=", "<<", ">>", "==", "!=", "<=", ">="};
    std::string two{c, peek(1)};
    bool fused = false;
    for (const char* op : kTwo) {
      if (two == op) {
        toks.push_back({Token::Kind::kPunct, two, line});
        i += 2;
        fused = true;
        break;
      }
    }
    if (fused) continue;
    toks.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Per-file context: tokens + allow markers.

struct FileCtx {
  std::string rel;
  std::vector<Token> toks;
  /// line -> rule name allowed by a well-formed marker on that line.
  std::map<std::size_t, std::string> allow;
  std::vector<Finding>* findings = nullptr;

  bool allowed(std::size_t line, const std::string& rule) const {
    for (const std::size_t l : {line, line - 1}) {
      const auto it = allow.find(l);
      if (it != allow.end() && it->second == rule) return true;
    }
    return false;
  }

  void report(std::size_t line, const std::string& rule, const std::string& message) const {
    if (allowed(line, rule)) return;
    findings->push_back({rel, line, rule, message});
  }
};

/// Returns the rule name if the raw line carries a well-formed allow marker;
/// sets `malformed` when the marker is present but lacks a reason.
std::string allow_marker(const std::string& raw, bool& malformed) {
  static const std::regex kAllow(R"(flash-lint:\s*allow\(([a-z-]+)\)\s*(:?)\s*(.*))");
  std::smatch m;
  if (!std::regex_search(raw, m, kAllow)) return {};
  const std::string reason = m[3].str();
  malformed = (m[2].str().empty() || reason.find_first_not_of(" \t") == std::string::npos);
  return m[1].str();
}

// ---------------------------------------------------------------------------
// Path predicates

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_src(const std::string& rel) { return starts_with(rel, "src/"); }

bool in_src_outside_hemath(const std::string& rel) {
  return in_src(rel) && !starts_with(rel, "src/hemath/");
}

bool rng_rule_applies(const std::string& rel) {
  if (!in_src(rel)) return false;
  if (starts_with(rel, "src/hemath/sampler")) return false;
  if (starts_with(rel, "src/hemath/mt19937")) return false;
  if (starts_with(rel, "src/testing/generators")) return false;
  return true;
}

bool fxp_fft_path(const std::string& rel) {
  return starts_with(rel, "src/fft/") && rel.find("fxp") != std::string::npos;
}

/// The generator types the rng rules track: the standard engines and the
/// vectorized hemath::Mt19937_64 that returns the same words.
bool is_generator_type(const std::string& tok) {
  return tok == "mt19937" || tok == "mt19937_64" || tok == "Mt19937_64";
}

bool outside_simd_dispatch(const std::string& rel) {
  // The dispatch layer itself (simd.hpp/.cpp and the simd_batch SoA kernels)
  // legitimately reads the raw level; everyone else goes through
  // level_at_least().
  return in_src(rel) && !starts_with(rel, "src/hemath/simd");
}

bool stream_rule_applies(const std::string& rel) {
  // Sampler's and the generator's own definitions and the seeded
  // test-corpus generators are the places that legitimately construct
  // generators from raw seeds.
  return rng_rule_applies(rel);
}

// ---------------------------------------------------------------------------
// Token-pattern rules (the four legacy rules, ported off regexes).

const std::set<std::string>& modulus_names() {
  static const std::set<std::string> kNames = {"q", "modulus", "prime"};
  return kNames;
}

void rule_raw_mod(const FileCtx& f) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "%" || t[i].kind != Token::Kind::kPunct) continue;
    // Walk the operand: ident ((. | ->) ident)* — take the leaf.
    std::size_t j = i + 1;
    if (j >= t.size() || t[j].kind != Token::Kind::kIdent) continue;
    while (j + 2 < t.size() && (t[j + 1].text == "." || t[j + 1].text == "->") &&
           t[j + 2].kind == Token::Kind::kIdent) {
      j += 2;
    }
    if (modulus_names().count(t[j].text) == 0) continue;
    f.report(t[i].line, "raw-mod",
             "raw % on a modulus-domain value outside src/hemath; use the "
             "hemath mul_mod/add_mod/reduce helpers");
  }
  // Masked reduction: a binary `&`/`&=` whose right operand leaf is a mask
  // identifier (`mask` or `*_mask`) is a hand-rolled Z_{2^k} reduction — the
  // same bug surface the % form has (one missing AND in a wrap-exact chain
  // is invisible until the widths line up). Outside src/hemath it must go
  // through Pow2Ring, or carry an audited allow(raw-mod) reason. The
  // previous-token check keeps unary address-of (`&x`, `f(&mask)`) and
  // `Type& mask` references out: only an ident/number/)/] on the left makes
  // `&` a binary bitwise operator here.
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kPunct || (t[i].text != "&" && t[i].text != "&=")) continue;
    const Token& prev = t[i - 1];
    const bool binary = prev.kind == Token::Kind::kIdent || prev.kind == Token::Kind::kNumber ||
                        prev.text == ")" || prev.text == "]";
    if (!binary) continue;
    std::size_t j = i + 1;
    if (j >= t.size() || t[j].kind != Token::Kind::kIdent) continue;
    while (j + 2 < t.size() && (t[j + 1].text == "." || t[j + 1].text == "->") &&
           t[j + 2].kind == Token::Kind::kIdent) {
      j += 2;
    }
    const std::string& leaf = t[j].text;
    const bool is_mask = leaf == "mask" || (leaf.size() > 5 && leaf.compare(leaf.size() - 5, 5,
                                                                            "_mask") == 0);
    if (!is_mask) continue;
    f.report(t[i].line, "raw-mod",
             "hand-rolled mask reduction (& mask) outside src/hemath; use "
             "hemath Pow2Ring reduce/add/mul (or an audited allow(raw-mod))");
  }
}

void rule_raw_rng(const FileCtx& f) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_generator_type(t[i].text)) continue;
    // `mt19937_64 name(...)` / `mt19937_64 name{...}` / temporary
    // `mt19937_64(...)`. References, template arguments and plain
    // declarations without an initializer don't construct a generator.
    const Token& a = t[i + 1];
    const bool named = a.kind == Token::Kind::kIdent && i + 2 < t.size() &&
                       (t[i + 2].text == "(" || t[i + 2].text == "{");
    const bool temporary = a.text == "(" || a.text == "{";
    if (!named && !temporary) continue;
    f.report(t[i].line, "raw-rng",
             "generator constructed outside hemath/sampler, hemath/mt19937 and "
             "testing/generators; derive the seed with derive_stream_seed()");
  }
}

const std::set<std::string>& narrow_int_names() {
  static const std::set<std::string> kNames = {"i8",      "i16",     "i32",     "i64",
                                               "int8_t",  "int16_t", "int32_t", "int64_t",
                                               "int",     "short"};
  return kNames;
}

void rule_narrowing_fxp(const FileCtx& f) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text != "static_cast" || t[i + 1].text != "<") continue;
    // Collect the template argument up to the matching '>'.
    std::string leaf;
    int depth = 1;
    std::size_t j = i + 2;
    for (; j < t.size() && depth > 0; ++j) {
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">") --depth;
      if (depth > 0 && t[j].kind == Token::Kind::kIdent) leaf = t[j].text;
    }
    if (narrow_int_names().count(leaf) == 0) continue;
    f.report(t[i].line, "narrowing-fxp",
             "narrowing integer cast in the FXP FFT path; only the saturation "
             "helper may drop accumulator bits");
  }
}

void rule_simd_dispatch(const FileCtx& f) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "active_simd_level" || t[i + 1].text != "(") continue;
    f.report(t[i].line, "simd-dispatch",
             "direct active_simd_level() call outside src/hemath/simd; dispatch "
             "through level_at_least() so AVX2 kernels stay eligible at kAvx512");
  }
}

// ---------------------------------------------------------------------------
// scratch-escape: spans from a locally-declared ScratchFrame must not
// outlive it.

void rule_scratch_escape(const FileCtx& f) {
  const auto& t = f.toks;
  // var -> brace depth of its declaration; popped when the scope closes so a
  // same-named local in another function never aliases a tracked span.
  std::map<std::string, int> frames;
  std::map<std::string, int> spans;
  int depth = 0;
  const auto pop_scope = [&](std::map<std::string, int>& vars) {
    for (auto it = vars.begin(); it != vars.end();) {
      it = it->second > depth ? vars.erase(it) : std::next(it);
    }
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "{") {
      ++depth;
      continue;
    }
    if (t[i].text == "}") {
      --depth;
      pop_scope(frames);
      pop_scope(spans);
      continue;
    }
    // Local frame declaration: `ScratchFrame name(...)`. A `ScratchFrame&`
    // parameter is the *caller's* frame — spans from it legitimately return
    // to the caller — so only the constructor form registers.
    if (t[i].text == "ScratchFrame" && i + 2 < t.size() &&
        t[i + 1].kind == Token::Kind::kIdent && t[i + 2].text == "(") {
      frames[t[i + 1].text] = depth;
      continue;
    }
    // `frame.alloc` — the span source.
    if (t[i].kind == Token::Kind::kIdent && frames.count(t[i].text) != 0 &&
        i + 2 < t.size() && t[i + 1].text == "." && t[i + 2].text == "alloc") {
      // `return frame.alloc<...>(...)` escapes directly.
      if (i >= 1 && t[i - 1].text == "return") {
        f.report(t[i].line, "scratch-escape",
                 "returning a span allocated from a local ScratchFrame; the storage is "
                 "reclaimed when the frame dies");
        continue;
      }
      // `x = frame.alloc...` / `auto x = frame.alloc...`: x becomes a span var.
      if (i >= 2 && t[i - 1].text == "=" && t[i - 2].kind == Token::Kind::kIdent) {
        const std::string& var = t[i - 2].text;
        // Member store: trailing-underscore name or this-> target.
        const bool member_name = var.size() > 1 && var.back() == '_';
        const bool this_target = i >= 4 && t[i - 3].text == "->" && t[i - 4].text == "this";
        if (member_name || this_target) {
          f.report(t[i].line, "scratch-escape",
                   "storing a ScratchFrame span into a member; the storage is reclaimed "
                   "when the frame dies");
        } else {
          spans[var] = depth;
        }
      }
      continue;
    }
    // Escapes of tracked span variables.
    if (t[i].kind == Token::Kind::kIdent && spans.count(t[i].text) != 0) {
      if (i >= 1 && t[i - 1].text == "return") {
        f.report(t[i].line, "scratch-escape",
                 "returning span '" + t[i].text + "' allocated from a local ScratchFrame");
        continue;
      }
      // `member_ = span` / `this->x = span`.
      if (i >= 2 && t[i - 1].text == "=" && t[i - 2].kind == Token::Kind::kIdent) {
        const std::string& target = t[i - 2].text;
        const bool member_name = target.size() > 1 && target.back() == '_';
        const bool this_target = i >= 4 && t[i - 3].text == "->" && t[i - 4].text == "this";
        if (member_name || this_target) {
          f.report(t[i].line, "scratch-escape",
                   "storing ScratchFrame span '" + t[i].text +
                       "' into a member; the storage is reclaimed when the frame dies");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lock-order: global acquisition graph, cycles reported at their edges.

struct LockEdge {
  std::string file;
  std::size_t line;
};

/// held-leaf -> acquired-leaf -> one representative acquisition site.
using LockGraph = std::map<std::string, std::map<std::string, LockEdge>>;

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kTypes = {"lock_guard", "unique_lock", "scoped_lock"};
  return kTypes;
}

/// Collect held->acquired edges from one file. Acquisitions are tracked with
/// the brace depth at which their guard lives; closing that scope (or an
/// explicit guard.unlock()) releases them. defer_lock guards acquire at the
/// later guard.lock() call.
void collect_lock_edges(const FileCtx& f, LockGraph& graph) {
  const auto& t = f.toks;
  struct Held {
    std::string leaf;
    std::string guard;
    int depth;
  };
  std::vector<Held> held;
  // defer_lock guards: guard var -> mutex leaf, armed by guard.lock().
  std::map<std::string, std::string> deferred;
  int depth = 0;

  const auto acquire = [&](const std::string& leaf, const std::string& guard,
                           std::size_t line) {
    if (!f.allowed(line, "lock-order")) {
      for (const Held& h : held) {
        graph[h.leaf].emplace(leaf, LockEdge{f.rel, line});
      }
    }
    held.push_back({leaf, guard, depth});
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "{") {
      ++depth;
      continue;
    }
    if (t[i].text == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }
    // guard.unlock() / guard.lock()
    if (t[i].kind == Token::Kind::kIdent && i + 3 < t.size() && t[i + 1].text == "." &&
        (t[i + 2].text == "unlock" || t[i + 2].text == "lock") && t[i + 3].text == "(") {
      const std::string& g = t[i].text;
      if (t[i + 2].text == "unlock") {
        for (std::size_t k = held.size(); k-- > 0;) {
          if (held[k].guard == g) {
            deferred[g] = held[k].leaf;  // re-lockable later
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
            break;
          }
        }
      } else {
        const auto it = deferred.find(g);
        if (it != deferred.end()) acquire(it->second, g, t[i].line);
      }
      i += 3;
      continue;
    }
    if (t[i].kind != Token::Kind::kIdent || guard_types().count(t[i].text) == 0) continue;
    // Skip the template argument list, if any.
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") {
      int tdepth = 1;
      for (++j; j < t.size() && tdepth > 0; ++j) {
        if (t[j].text == "<") ++tdepth;
        if (t[j].text == ">") --tdepth;
      }
    }
    // Declaration form only: `lock_guard<...> name(args)`. A reference
    // parameter (`unique_lock<...>& lock`) is a lock someone else holds.
    if (j >= t.size() || t[j].kind != Token::Kind::kIdent) continue;
    const std::string guard_var = t[j].text;
    if (j + 1 >= t.size() || t[j + 1].text != "(") continue;
    // Parse constructor args: comma-separated at paren depth 1.
    std::vector<std::string> arg_leafs;
    std::string leaf;
    bool defer = false;
    bool adopt = false;
    int pdepth = 1;
    std::size_t k = j + 2;
    for (; k < t.size() && pdepth > 0; ++k) {
      if (t[k].text == "(") ++pdepth;
      if (t[k].text == ")") {
        --pdepth;
        if (pdepth == 0) break;
      }
      if (t[k].text == "," && pdepth == 1) {
        if (!leaf.empty()) arg_leafs.push_back(leaf);
        leaf.clear();
        continue;
      }
      if (t[k].kind == Token::Kind::kIdent) {
        if (t[k].text == "defer_lock") defer = true;
        if (t[k].text == "adopt_lock") adopt = true;
        leaf = t[k].text;
      }
    }
    if (!leaf.empty()) arg_leafs.push_back(leaf);
    // Drop the tag arguments themselves.
    arg_leafs.erase(std::remove_if(arg_leafs.begin(), arg_leafs.end(),
                                   [](const std::string& a) {
                                     return a == "defer_lock" || a == "adopt_lock" ||
                                            a == "try_to_lock";
                                   }),
                    arg_leafs.end());
    if (arg_leafs.empty()) {
      i = k;
      continue;
    }
    if (defer) {
      deferred[guard_var] = arg_leafs.front();
      i = k;
      continue;
    }
    // scoped_lock(a, b, ...) acquires all-at-once (internally ordered):
    // edges flow from what is already held to each of them, never between
    // them. adopt_lock means "already locked" — same edge semantics.
    (void)adopt;
    for (const std::string& a : arg_leafs) acquire(a, guard_var, t[i].line);
    i = k;
  }
}

/// DFS cycle detection; returns every edge that participates in a cycle.
std::vector<std::pair<std::string, std::string>> cyclic_edges(const LockGraph& graph) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [from, tos] : graph) {
    for (const auto& [to, site] : tos) {
      // Edge from->to is on a cycle iff `from` is reachable from `to`.
      std::set<std::string> seen;
      std::vector<std::string> stack{to};
      bool cyc = false;
      while (!stack.empty() && !cyc) {
        const std::string node = stack.back();
        stack.pop_back();
        if (node == from) {
          cyc = true;
          break;
        }
        if (!seen.insert(node).second) continue;
        const auto it = graph.find(node);
        if (it == graph.end()) continue;
        for (const auto& [next, s] : it->second) stack.push_back(next);
      }
      if (cyc) out.emplace_back(from, to);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// stream-derive: Sampler/mt19937/Mt19937_64 built inside parallel bodies must derive a
// per-index stream.

const std::set<std::string>& derive_fn_names() {
  static const std::set<std::string> kNames = {"derive_stream_seed", "substream", "fork"};
  return kNames;
}

struct ParallelBody {
  std::size_t begin = 0, end = 0;      // token range of the lambda body
  std::set<std::string> params;        // lambda parameter names
};

/// Find the lambda bodies of parallel_for/for_range call sites (nesting
/// kept: innermost match wins for a given token).
std::vector<ParallelBody> parallel_bodies(const std::vector<Token>& t) {
  std::vector<ParallelBody> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "parallel_for" && t[i].text != "for_range") continue;
    if (t[i + 1].text != "(") continue;
    // Find the lambda introducer within the call's argument list.
    int pdepth = 1;
    std::size_t j = i + 2;
    while (j < t.size() && pdepth > 0 && t[j].text != "[") {
      if (t[j].text == "(") ++pdepth;
      if (t[j].text == ")") --pdepth;
      ++j;
    }
    if (j >= t.size() || t[j].text != "[") continue;
    // Capture list.
    while (j < t.size() && t[j].text != "]") ++j;
    ++j;
    ParallelBody body;
    // Parameter list (may be absent for a no-arg lambda).
    if (j < t.size() && t[j].text == "(") {
      int d = 1;
      std::string last;
      for (++j; j < t.size() && d > 0; ++j) {
        if (t[j].text == "(") ++d;
        if (t[j].text == ")") {
          --d;
          if (d == 0) break;
        }
        if (t[j].text == "," && d == 1) {
          if (!last.empty()) body.params.insert(last);
          last.clear();
          continue;
        }
        if (t[j].kind == Token::Kind::kIdent) last = t[j].text;
      }
      if (!last.empty()) body.params.insert(last);
      ++j;
    }
    while (j < t.size() && t[j].text != "{") ++j;
    if (j >= t.size()) continue;
    body.begin = j + 1;
    int bdepth = 1;
    for (++j; j < t.size() && bdepth > 0; ++j) {
      if (t[j].text == "{") ++bdepth;
      if (t[j].text == "}") --bdepth;
    }
    body.end = j;  // one past the closing brace
    out.push_back(std::move(body));
  }
  return out;
}

void rule_stream_derive(const FileCtx& f) {
  const auto& t = f.toks;
  const std::vector<ParallelBody> bodies = parallel_bodies(t);
  if (bodies.empty()) return;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "Sampler" && !is_generator_type(t[i].text)) continue;
    // Construction form (named or temporary), as in rule_raw_rng.
    std::size_t open;
    if (t[i + 1].kind == Token::Kind::kIdent && i + 2 < t.size() &&
        (t[i + 2].text == "(" || t[i + 2].text == "{")) {
      open = i + 2;
    } else if (t[i + 1].text == "(" || t[i + 1].text == "{") {
      open = i + 1;
    } else {
      continue;
    }
    // Innermost enclosing parallel body, if any.
    const ParallelBody* in = nullptr;
    for (const ParallelBody& b : bodies) {
      if (i >= b.begin && i < b.end && (in == nullptr || b.begin > in->begin)) in = &b;
    }
    if (in == nullptr) continue;
    // Constructor args must mention a derivation helper AND a lambda param.
    const std::string close = t[open].text == "(" ? ")" : "}";
    const std::string opener = t[open].text;
    int d = 1;
    bool derived = false, indexed = false;
    for (std::size_t k = open + 1; k < t.size() && d > 0; ++k) {
      if (t[k].text == opener) ++d;
      if (t[k].text == close) {
        --d;
        continue;
      }
      if (t[k].kind != Token::Kind::kIdent) continue;
      if (derive_fn_names().count(t[k].text) != 0) derived = true;
      if (in->params.count(t[k].text) != 0) indexed = true;
    }
    if (derived && indexed) continue;
    f.report(t[i].line, "stream-derive",
             derived ? "parallel-body generator seed does not involve the loop index; "
                       "every worker replays the same stream"
                     : "generator constructed in a parallel body without "
                       "derive_stream_seed()/substream(); derive a per-index stream");
  }
}

// ---------------------------------------------------------------------------
// Driver

std::string relative_path(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  std::string s = (ec ? file : rel).generic_string();
  while (s.rfind("./", 0) == 0) s.erase(0, 2);
  return s;
}

void lint_file(const fs::path& file, const fs::path& root, std::vector<Finding>& findings,
               LockGraph& lock_graph) {
  std::ifstream in(file);
  if (!in) {
    findings.push_back({file.string(), 0, "io", "cannot open file"});
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  FileCtx f;
  f.rel = relative_path(file, root);
  f.findings = &findings;

  // Allow markers come from the raw lines (they live in comments, which the
  // tokenizer drops).
  {
    std::istringstream lines(text);
    std::string line;
    for (std::size_t lineno = 1; std::getline(lines, line); ++lineno) {
      bool malformed = false;
      const std::string rule = allow_marker(line, malformed);
      if (rule.empty()) continue;
      if (malformed) {
        findings.push_back({f.rel, lineno, "lint-marker",
                            "flash-lint: allow(" + rule + ") needs a ': reason'"});
        continue;
      }
      f.allow[lineno] = rule;
    }
  }

  f.toks = tokenize(text);

  if (in_src_outside_hemath(f.rel)) rule_raw_mod(f);
  if (rng_rule_applies(f.rel)) rule_raw_rng(f);
  if (fxp_fft_path(f.rel)) rule_narrowing_fxp(f);
  if (outside_simd_dispatch(f.rel)) rule_simd_dispatch(f);
  if (in_src(f.rel)) rule_scratch_escape(f);
  if (in_src(f.rel)) collect_lock_edges(f, lock_graph);
  if (stream_rule_applies(f.rel)) rule_stream_derive(f);
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Pulls every "file" entry out of compile_commands.json. The format is
/// machine-generated and flat, so a targeted scan beats a JSON dependency.
std::vector<fs::path> files_from_compdb(const fs::path& builddir) {
  std::vector<fs::path> out;
  std::ifstream in(builddir / "compile_commands.json");
  if (!in) return out;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  static const std::regex kFile(R"rx("file"\s*:\s*"([^"]+)")rx");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kFile);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1].str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path builddir;
  std::string expect;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-p") {
      if (i + 1 >= argc) {
        std::cerr << "flash_lint: -p needs a build directory\n";
        return 2;
      }
      builddir = argv[++i];
    } else if (arg == "--expect") {
      if (i + 1 >= argc) {
        std::cerr << "flash_lint: --expect needs a rule name\n";
        return 2;
      }
      expect = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: flash_lint [-p <builddir>] [--expect <rule>] [<repo-root>]\n";
      return 0;
    } else {
      root = arg;
    }
  }

  std::vector<fs::path> files;
  if (!builddir.empty()) {
    for (const fs::path& f : files_from_compdb(builddir)) {
      if (lintable(f) && relative_path(f, root).rfind("src/", 0) == 0) files.push_back(f);
    }
    if (files.empty()) {
      std::cerr << "flash_lint: no entries read from " << (builddir / "compile_commands.json")
                << "\n";
      return 2;
    }
  }
  // Headers never appear in the compilation database; walk src/ for them
  // (and for everything, in the no-builddir mode).
  const fs::path srcdir = root / "src";
  if (!fs::is_directory(srcdir)) {
    std::cerr << "flash_lint: " << srcdir << " is not a directory\n";
    return 2;
  }
  for (const auto& entry : fs::recursive_directory_iterator(srcdir)) {
    if (!entry.is_regular_file() || !lintable(entry.path())) continue;
    if (builddir.empty() || entry.path().extension() != ".cpp") files.push_back(entry.path());
  }

  std::vector<Finding> findings;
  LockGraph lock_graph;
  for (const fs::path& f : files) lint_file(f, root, findings, lock_graph);

  // Lock-order findings materialize once the whole graph is known.
  for (const auto& [from, to] : cyclic_edges(lock_graph)) {
    const LockEdge& site = lock_graph[from][to];
    findings.push_back({site.file, site.line, "lock-order",
                        "acquiring '" + to + "' while holding '" + from +
                            "' closes a cycle in the lock graph (deadlock candidate); fix "
                            "the order or annotate the intended hierarchy"});
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line) < std::tie(b.file, b.line);
  });
  for (const Finding& f : findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }

  if (!expect.empty()) {
    // Fixture self-test contract: the rule must fire, and nothing else may.
    if (findings.empty()) {
      std::cerr << "flash_lint: --expect " << expect << ": no findings produced\n";
      return 1;
    }
    for (const Finding& f : findings) {
      if (f.rule != expect) {
        std::cerr << "flash_lint: --expect " << expect << ": stray [" << f.rule << "] finding\n";
        return 1;
      }
    }
    std::cout << "flash_lint: " << findings.size() << " expected " << expect << " finding(s)\n";
    return 0;
  }

  if (findings.empty()) {
    std::cout << "flash_lint: " << files.size() << " files clean\n";
    return 0;
  }
  std::cerr << "flash_lint: " << findings.size() << " finding(s) in " << files.size()
            << " files\n";
  return 1;
}
