#include "circuit/parser.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <istream>
#include <random>
#include <sstream>
#include <vector>

#include "obs/obs.hpp"

namespace sympvl {

namespace {

constexpr int kMaxInstanceDepth = 32;

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_upper(char c) { return c >= 'A' && c <= 'Z'; }
char to_lower(char c) {
  return is_upper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}
bool is_alpha(char c) {
  const char l = to_lower(c);
  return l >= 'a' && l <= 'z';
}

bool has_upper(std::string_view s) {
  return std::any_of(s.begin(), s.end(), is_upper);
}

/// Case-insensitive equality (ASCII).
bool same_name(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k)
    if (to_lower(a[k]) != to_lower(b[k])) return false;
  return true;
}

void append_lower(std::string& out, std::string_view s) {
  for (char c : s) out.push_back(to_lower(c));
}

/// Splits one line into whitespace-separated tokens, stopping at a token
/// that starts a comment ('*' or ';').
void split(std::string_view line, std::vector<std::string_view>& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  while (true) {
    while (p < end && is_space(*p)) ++p;
    if (p == end || *p == '*' || *p == ';') return;
    const char* const begin = p;
    while (p < end && !is_space(*p)) ++p;
    out.emplace_back(begin, static_cast<size_t>(p - begin));
  }
}

/// The value grammar of parse_value(); false for anything else, including
/// results that are not finite.
bool scan_value(std::string_view token, double& out) {
  const char* p = token.data();
  const char* const end = p + token.size();
  const char* number = p;
  if (p < end && (*p == '+' || *p == '-')) ++p;
  if (number < end && *number == '+') ++number;  // from_chars takes no '+'
  const char* const mantissa = p;
  while (p < end && is_digit(*p)) ++p;
  ptrdiff_t digits = p - mantissa;
  if (p < end && *p == '.') {
    const char* const fraction = ++p;
    while (p < end && is_digit(*p)) ++p;
    digits += p - fraction;
  }
  if (digits == 0) return false;
  if (p < end && to_lower(*p) == 'e') {
    const char* q = p + 1;
    if (q < end && (*q == '+' || *q == '-')) ++q;
    if (q < end && is_digit(*q)) {
      while (q < end && is_digit(*q)) ++q;
      p = q;
    }
  }
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(number, p, v);
  if (ec != std::errc() || stop != p) return false;

  double scale = 1.0;
  if (p < end) {
    // SPICE semantics: "meg" = 1e6, bare "m" = 1e-3. The letters after the
    // scale (a unit such as "pF") are ignored.
    if (!std::all_of(p, end, is_alpha)) return false;
    const std::string_view suffix(p, static_cast<size_t>(end - p));
    if (suffix.size() >= 3 && same_name(suffix.substr(0, 3), "meg")) {
      scale = 1e6;
    } else {
      switch (to_lower(suffix[0])) {
        case 'f': scale = 1e-15; break;
        case 'p': scale = 1e-12; break;
        case 'n': scale = 1e-9; break;
        case 'u': scale = 1e-6; break;
        case 'm': scale = 1e-3; break;
        case 'k': scale = 1e3; break;
        case 'g': scale = 1e9; break;
        case 't': scale = 1e12; break;
        default: return false;
      }
    }
  }
  out = v * scale;
  return std::isfinite(out);
}

/// A name-table key: the text, and whether it outlives the table (it is a
/// view into the netlist text) or is scratch that the table must copy.
struct Key {
  std::string_view text;
  bool stable;
};

/// Open-addressing hash table from names to indices: the one lookup
/// structure of the parser (nodes, inductors, subcircuits, pins). Keys
/// are views — into the netlist text when a name is used as written,
/// else into strings the table owns.
class NameTable {
 public:
  /// Index of `key`, -1 when absent.
  Index find(std::string_view key) const {
    if (used_ == 0) return -1;
    return slots_[position(key, hash(key))].value;
  }

  /// The value slot of `key`, -1 when the key is new. A new key is copied
  /// unless it is stable. Valid until the next call.
  Index& slot(Key key) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::uint64_t h = hash(key.text);
    Slot& s = slots_[position(key.text, h)];
    if (s.key.empty()) {
      s.key = key.stable ? key.text
                         : std::string_view(owned_.emplace_back(key.text));
      s.hash = h;
      ++used_;
    }
    return s.value;
  }

 private:
  struct Slot {
    std::string_view key;  // empty = free
    std::uint64_t hash = 0;
    Index value = -1;
  };

  /// FNV-1a, keyed per process and finished with the murmur3 mixer, so
  /// bucket collisions cannot be precomputed from netlist text.
  static std::uint64_t hash(std::string_view key) {
    static const std::uint64_t process_key = std::random_device{}();
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= process_key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
  }

  size_t position(std::string_view key, std::uint64_t h) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key.empty() || (s.hash == h && s.key == key)) return i;
    }
  }

  void grow() {
    std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old)
      if (!s.key.empty()) slots_[position(s.key, s.hash)] = s;
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
  std::deque<std::string> owned_;
};

/// Cards kept for later as token views: a .subckt body, or the top-level
/// cards after a forward reference to a subcircuit.
struct CardList {
  struct Entry {
    size_t begin, end;  // token range
    size_t line;
  };
  std::vector<std::string_view> tokens;
  std::vector<Entry> cards;

  void add(const std::vector<std::string_view>& toks, size_t line) {
    cards.push_back({tokens.size(), tokens.size() + toks.size(), line});
    tokens.insert(tokens.end(), toks.begin(), toks.end());
  }
};

constexpr Index kUnsized = -1;
constexpr Index kSizing = -2;
constexpr Index kCountCap = Index(1) << 60;  // saturation of card and byte counts

/// Name bytes a subcircuit expansion may build per element of the element
/// budget: room for a hierarchical name and two node keys each.
constexpr Index kNameBytesPerElement = 64;

Index saturating_add(Index a, Index b) { return std::min(a + b, kCountCap); }
Index saturating_mul(Index a, Index b) {
  return b != 0 && a > kCountCap / b ? kCountCap : a * b;
}

struct SubcktDef {
  std::string_view name;
  NameTable pins;  // lower-cased pin name → position
  Index pin_count = 0;
  CardList body;
  /// Cards one instance expands to (elements and instances, saturating)
  /// and its nesting height; kUnsized until first instanced.
  Index cards = kUnsized;
  int height = 0;
  /// Bound on the bytes of names and keys one instance builds under a
  /// prefix of length P: name_bytes + prefixed · P (saturating).
  Index name_bytes = 0;
  Index prefixed = 0;
};

/// One pass over the text: top-level cards are stamped as they are read,
/// .subckt bodies are kept as token views and flattened per instance.
class Parser {
 public:
  Parser(std::string_view text, Index max_elements)
      : text_(text),
        max_elements_(max_elements),
        max_name_bytes_(saturating_mul(max_elements, kNameBytesPerElement)) {}

  Netlist run() {
    try {
      reserve();
      read();
      nl_.validate();
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kIo) throw;
      fail(line_, e.what());  // netlist checks, e.g. a shorted element
    }
    return std::move(nl_);
  }

 private:
  struct Scope {
    std::string_view prefix;            // "" at top level, else "x1.x2."
    const SubcktDef* def = nullptr;     // null at top level
    const Index* pin_nodes = nullptr;   // parent-scope node of each pin
  };

  [[noreturn]] static void fail(size_t line, const std::string& msg) {
    throw Error(ErrorCode::kIo,
                "netlist parse error at line " + std::to_string(line) + ": " + msg,
                {.stage = "parser", .index = static_cast<Index>(line)});
  }

  /// Sizes the element stores from the first letter of every line.
  void reserve() {
    Index r = 0, c = 0, l = 0, dot = 0;
    const char* p = text_.data();
    const char* const end = p + text_.size();
    while (p < end) {
      switch (to_lower(*p)) {
        case 'r': ++r; break;
        case 'c': ++c; break;
        case 'l': ++l; break;
        case '.': ++dot; break;
        default: break;
      }
      const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
      if (nl == nullptr) break;
      p = static_cast<const char*>(nl) + 1;
    }
    nl_.reserve(r, c, dot, l);
  }

  void read() {
    std::vector<std::string_view> toks;
    SubcktDef* open = nullptr;
    size_t open_line = 0;
    const char* p = text_.data();
    const char* const end = p + text_.size();
    for (size_t line = 1; p < end; ++line) {
      const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
      const char* const stop = nl ? static_cast<const char*>(nl) : end;
      toks.clear();
      split(std::string_view(p, static_cast<size_t>(stop - p)), toks);
      p = nl ? stop + 1 : end;
      line_ = line;
      if (toks.empty()) continue;
      const std::string_view head = toks[0];

      if (same_name(head, ".end")) {
        if (open != nullptr) fail(line, ".end inside a .subckt block");
        break;
      }
      if (same_name(head, ".subckt")) {
        if (open != nullptr) fail(line, "nested .subckt definitions");
        open = &define(toks, line);
        open_line = line;
        continue;
      }
      if (same_name(head, ".ends")) {
        if (open == nullptr) fail(line, ".ends without .subckt");
        if (toks.size() >= 2 && !same_name(toks[1], open->name))
          fail(line, ".ends name does not match the open .subckt");
        open = nullptr;
        continue;
      }
      if (open != nullptr) {
        open->body.add(toks, line);
      } else if (tail_.cards.empty() && !forward_reference(toks, line)) {
        card(toks.data(), toks.size(), line, Scope{});
      } else {
        tail_.add(toks, line);
      }
    }
    if (open != nullptr)
      fail(open_line, "unterminated .subckt '" + std::string(open->name) + "'");
    for (const CardList::Entry& c : tail_.cards)
      card(&tail_.tokens[c.begin], c.end - c.begin, c.line, Scope{});
  }

  SubcktDef& define(const std::vector<std::string_view>& toks, size_t line) {
    if (toks.size() < 3)
      fail(line, ".subckt expects: .subckt <name> pin1 [pin2 ...]");
    Index& id = subckt_ids_.slot(key({}, toks[1]));
    if (id >= 0) fail(line, "duplicate subcircuit '" + std::string(toks[1]) + "'");
    id = static_cast<Index>(subckts_.size());
    SubcktDef& def = subckts_.emplace_back();
    def.name = toks[1];
    def.pin_count = static_cast<Index>(toks.size()) - 2;
    for (size_t k = 2; k < toks.size(); ++k)
      def.pins.slot(key({}, toks[k])) = static_cast<Index>(k) - 2;
    return def;
  }

  SubcktDef* find_subckt(std::string_view name) {
    const Index id = subckt_ids_.find(key({}, name).text);
    return id < 0 ? nullptr : &subckts_[static_cast<size_t>(id)];
  }

  /// True for a top-level X card whose subcircuit (or one it instances)
  /// is not defined yet; it and every later top-level card then wait for
  /// the end of the text.
  bool forward_reference(const std::vector<std::string_view>& toks, size_t line) {
    if (to_lower(toks[0][0]) != 'x' || toks.size() < 3) return false;
    SubcktDef* def = find_subckt(toks.back());
    return def == nullptr || !size(*def, line, 1, /*final=*/false);
  }

  /// Sizes one instance of `def` (memoized). Returns false when a
  /// subcircuit it instances is not defined yet; `final` makes that an
  /// error instead.
  bool size(SubcktDef& def, size_t line, int depth, bool final) {
    if (def.cards >= 0) return true;
    if (def.cards == kSizing)
      fail(line, "recursive subcircuit '" + std::string(def.name) + "'");
    if (depth > kMaxInstanceDepth)
      fail(line, "subcircuit instances nested deeper than 32");
    def.cards = kSizing;
    Index cards = 0, name_bytes = 0, prefixed = 0;
    int height = 1;
    for (const CardList::Entry& c : def.body.cards) {
      cards = saturating_add(cards, 1);
      const std::string_view* toks = &def.body.tokens[c.begin];
      const size_t n = c.end - c.begin;
      // A card builds at most one prefixed string per token but the last
      // (its name, node, inductor or pin keys); an L or X card one more
      // from its head (the inductor key, the nested instance's prefix).
      const char kind = to_lower(toks[0][0]);
      for (size_t k = 0; k + 1 < n; ++k)
        name_bytes = saturating_add(name_bytes, static_cast<Index>(toks[k].size()));
      prefixed = saturating_add(prefixed, static_cast<Index>(n) - 1);
      if (kind == 'l' || kind == 'x') {
        name_bytes = saturating_add(name_bytes, static_cast<Index>(toks[0].size()) + 1);
        prefixed = saturating_add(prefixed, 1);
      }
      if (kind != 'x' || n < 3) continue;
      SubcktDef* sub = find_subckt(toks[n - 1]);
      if (sub == nullptr && final)
        fail(c.line, "unknown subcircuit '" + std::string(toks[n - 1]) + "'");
      if (sub == nullptr || !size(*sub, c.line, depth + 1, final)) {
        def.cards = kUnsized;
        return false;
      }
      cards = saturating_add(cards, sub->cards);
      height = std::max(height, sub->height + 1);
      // The sub-instance's strings carry this instance's prefix plus
      // "<Xname>.".
      const Index extra = static_cast<Index>(toks[0].size()) + 1;
      name_bytes = saturating_add(
          name_bytes, saturating_add(sub->name_bytes, saturating_mul(sub->prefixed, extra)));
      prefixed = saturating_add(prefixed, sub->prefixed);
    }
    def.cards = cards;
    def.height = height;
    def.name_bytes = name_bytes;
    def.prefixed = prefixed;
    return true;
  }

  /// Pays for `cards` cards and `name_bytes` bytes of expanded names.
  /// Top-level cards cost no name bytes: their names come from the text.
  void charge(size_t line, Index cards, Index name_bytes) {
    cards_ = saturating_add(cards_, cards);
    if (cards_ > max_elements_)
      fail(line, "netlist expands past the limit of " +
                     std::to_string(max_elements_) + " elements");
    name_bytes_ = saturating_add(name_bytes_, name_bytes);
    if (name_bytes_ > max_name_bytes_)
      fail(line, "subcircuit expansion builds more than " +
                     std::to_string(max_name_bytes_) + " bytes of names (" +
                     std::to_string(kNameBytesPerElement) +
                     " per element of the limit)");
  }

  /// The table key of `tok` in the scope with `prefix`: the token itself
  /// when it is a lower-case top-level name (stable), else the prefixed,
  /// lower-cased copy in key_.
  Key key(std::string_view prefix, std::string_view tok) {
    if (prefix.empty() && !has_upper(tok)) return {tok, true};
    key_.assign(prefix);
    append_lower(key_, tok);
    return {key_, false};
  }

  Index node(std::string_view tok, const Scope& scope) {
    if (tok == "0" || same_name(tok, "gnd")) return 0;
    const Key k = key(scope.prefix, tok);
    if (scope.def != nullptr) {
      const Index pin = scope.def->pins.find(k.text.substr(scope.prefix.size()));
      if (pin >= 0) return scope.pin_nodes[pin];
    }
    Index& id = nodes_.slot(k);
    if (id < 0) id = nl_.new_node();
    return id;
  }

  double value(std::string_view tok, size_t line) {
    double v = 0.0;
    if (!scan_value(tok, v))
      fail(line, "malformed or non-finite value '" + std::string(tok) + "'");
    return v;
  }

  void card(const std::string_view* toks, size_t n, size_t line, const Scope& scope) {
    line_ = line;
    if (scope.def == nullptr) charge(line, 1, 0);
    const std::string_view head = toks[0];
    const char kind = to_lower(head[0]);
    switch (kind) {
      case '.':
        if (!same_name(head, ".port"))
          fail(line, "unknown directive '" + std::string(head) + "'");
        port(toks, n, line, scope);
        return;
      case 'x':
        instance(toks, n, line, scope);
        return;
      case 'r': case 'c': case 'l': case 'k': case 'i':
        break;
      default:
        fail(line, "unknown element card '" + std::string(head) + "'");
    }
    if (n != 4) {
      const char up = static_cast<char>(kind - 'a' + 'A');
      fail(line, std::string(1, up) + " card expects: " + up +
                     (kind == 'k' ? "name L1 L2 k" : "name n1 n2 value"));
    }
    std::string name(scope.prefix);
    name += head;
    if (kind == 'k') {
      const Index l1 = inductors_.find(key(scope.prefix, toks[1]).text);
      const Index l2 = inductors_.find(key(scope.prefix, toks[2]).text);
      if (l1 < 0 || l2 < 0) fail(line, "K card references unknown inductor");
      nl_.add_mutual(l1, l2, value(toks[3], line), std::move(name));
      return;
    }
    const Index n1 = node(toks[1], scope);
    const Index n2 = node(toks[2], scope);
    const double v = value(toks[3], line);
    switch (kind) {
      case 'r': nl_.add_resistor(n1, n2, v, std::move(name)); break;
      case 'c': nl_.add_capacitor(n1, n2, v, std::move(name)); break;
      case 'i': nl_.add_current_source(n1, n2, v, std::move(name)); break;
      default: {
        Index& id = inductors_.slot(key(scope.prefix, head));
        if (id >= 0) fail(line, "duplicate inductor '" + name + "'");
        id = nl_.add_inductor(n1, n2, v, std::move(name));
      }
    }
  }

  void port(const std::string_view* toks, size_t n, size_t line, const Scope& scope) {
    if (scope.def != nullptr) fail(line, ".port is only allowed at the top level");
    if (n < 3 || n > 4) fail(line, ".port expects: .port <name> n1 [n2]");
    const Index n1 = node(toks[2], scope);
    const Index n2 = n == 4 ? node(toks[3], scope) : 0;
    nl_.add_port(n1, n2, std::string(toks[1]));
  }

  void instance(const std::string_view* toks, size_t n, size_t line, const Scope& scope) {
    if (n < 3) fail(line, "X card expects: Xname n1 ... nk subname");
    SubcktDef* def = find_subckt(toks[n - 1]);
    if (def == nullptr)
      fail(line, "unknown subcircuit '" + std::string(toks[n - 1]) + "'");
    const Index pins = static_cast<Index>(n) - 2;
    if (pins != def->pin_count)
      fail(line, "instance of '" + std::string(toks[n - 1]) + "' expects " +
                     std::to_string(def->pin_count) + " pins");
    if (scope.def == nullptr) {
      // The whole expansion is paid for before any of it is stamped.
      size(*def, line, 1, /*final=*/true);
      if (def->height > kMaxInstanceDepth)
        fail(line, "subcircuit instances nested deeper than 32");
      charge(line, def->cards,
             saturating_add(def->name_bytes,
                            saturating_mul(def->prefixed,
                                           static_cast<Index>(toks[0].size()) + 1)));
    }
    // Pins resolve in the parent scope, left to right.
    std::vector<Index> pin_nodes(static_cast<size_t>(pins));
    for (Index k = 0; k < pins; ++k)
      pin_nodes[static_cast<size_t>(k)] = node(toks[1 + k], scope);
    std::string prefix(scope.prefix);
    append_lower(prefix, toks[0]);
    prefix += '.';
    const Scope inner{prefix, def, pin_nodes.data()};
    for (const CardList::Entry& c : def->body.cards)
      card(&def->body.tokens[c.begin], c.end - c.begin, c.line, inner);
  }

  std::string_view text_;
  Index max_elements_;
  Index max_name_bytes_;
  Index cards_ = 0;  // top-level cards plus expansions, charged so far
  Index name_bytes_ = 0;  // expanded name bytes, charged so far
  size_t line_ = 0;  // line being read or stamped, for converted errors
  Netlist nl_;
  NameTable nodes_, inductors_, subckt_ids_;
  std::deque<SubcktDef> subckts_;
  CardList tail_;
  std::string key_;  // scratch for prefixed / lower-cased keys
};

std::string read_all(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0)
    text.append(chunk, static_cast<size_t>(in.gcount()));
  return text;
}

}  // namespace

double parse_value(std::string_view token) {
  double v = 0.0;
  if (!scan_value(token, v))
    throw Error(ErrorCode::kIo,
                "parse_value: malformed or non-finite value '" +
                    std::string(token) + "'",
                {.stage = "parser"});
  return v;
}

Netlist parse_netlist(std::string_view text, Index max_elements) {
  obs::ScopedTimer span("circuit.parse");
  Netlist nl = Parser(text, max_elements).run();
  span.arg("bytes", static_cast<Index>(text.size()));
  span.arg("elements", nl.element_count());
  span.arg("nodes", nl.node_count());
  return nl;
}

Netlist parse_netlist(std::istream& in, Index max_elements) {
  return parse_netlist(read_all(in), max_elements);
}

Netlist parse_netlist_file(const std::string& path, Index max_elements) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw Error(ErrorCode::kIo, "parse_netlist_file: cannot open '" + path + "'",
                {.stage = "parser"});
  return parse_netlist(in, max_elements);
}

namespace {


void write_cards(std::ostream& out, const Netlist& netlist) {
  for (const auto& r : netlist.resistors())
    out << r.name << " " << r.n1 << " " << r.n2 << " " << r.resistance << "\n";
  for (const auto& c : netlist.capacitors())
    out << c.name << " " << c.n1 << " " << c.n2 << " " << c.capacitance << "\n";
  for (const auto& l : netlist.inductors())
    out << l.name << " " << l.n1 << " " << l.n2 << " " << l.inductance << "\n";
  for (const auto& k : netlist.mutuals())
    out << k.name << " "
        << netlist.inductors()[static_cast<size_t>(k.l1)].name << " "
        << netlist.inductors()[static_cast<size_t>(k.l2)].name << " "
        << k.coupling << "\n";
  for (const auto& s : netlist.current_sources())
    out << s.name << " " << s.n1 << " " << s.n2 << " " << s.value << "\n";
}

}  // namespace

std::string write_netlist(const Netlist& netlist, const std::string& title) {
  std::ostringstream out;
  out.precision(17);
  if (!title.empty()) out << "* " << title << "\n";
  write_cards(out, netlist);
  for (const auto& p : netlist.ports())
    out << ".port " << p.name << " " << p.n1 << " " << p.n2 << "\n";
  out << ".end\n";
  return out.str();
}

std::string write_subckt(const Netlist& netlist, const std::string& name,
                         const std::string& title) {
  require(!name.empty(), "write_subckt: empty subcircuit name");
  require(netlist.port_count() >= 1, "write_subckt: netlist has no ports");
  std::ostringstream out;
  out.precision(17);
  if (!title.empty()) out << "* " << title << "\n";
  out << ".subckt " << name;
  for (const auto& p : netlist.ports()) {
    require(p.n2 == 0,
            "write_subckt: only ground-referenced ports can become pins");
    out << " " << p.n1;
  }
  out << "\n";
  write_cards(out, netlist);
  out << ".ends " << name << "\n";
  return out.str();
}

}  // namespace sympvl
