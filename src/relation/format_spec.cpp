#include "relation/format_spec.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace bernoulli::relation {

namespace {

// ---------------------------------------------------------------- parser

struct Token {
  std::string text;
  int line;
};

std::vector<Token> tokenize(const std::string& spec) {
  std::vector<Token> out;
  std::string cur;
  int line = 1;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back({cur, line});
      cur.clear();
    }
  };
  for (char c : spec) {
    if (c == '\n') {
      flush();
      ++line;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '{' || c == '}' || c == '(' || c == ')' || c == ':' ||
               c == ';' || c == ',' || c == '=') {
      flush();
      out.push_back({std::string(1, c), line});
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return out;
}

class Parser {
 public:
  explicit Parser(const std::string& spec) : tokens_(tokenize(spec)) {}

  const Token& peek() const {
    BERNOULLI_CHECK_MSG(pos_ < tokens_.size(), "format spec ended early");
    return tokens_[pos_];
  }
  Token next() {
    Token t = peek();
    ++pos_;
    return t;
  }
  void expect(const std::string& text) {
    Token t = next();
    BERNOULLI_CHECK_MSG(t.text == text, "format spec line "
                                            << t.line << ": expected '"
                                            << text << "', got '" << t.text
                                            << "'");
  }
  bool done() const { return pos_ >= tokens_.size(); }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

bool peek_is(Parser& p, const std::string& word) {
  return !p.done() && p.peek().text == word;
}

// `sorted` is the default; `unsorted` demotes search to linear and keeps
// the level out of merge joins.
bool parse_sortedness(Parser& p) {
  if (!p.done() && p.peek().text == "sorted") {
    p.next();
    return true;
  }
  if (!p.done() && p.peek().text == "unsorted") {
    p.next();
    return false;
  }
  return true;
}

std::span<const index_t> lookup_index(const FormatArrays& arrays,
                                      const std::string& name, int line) {
  auto it = arrays.index_arrays.find(name);
  BERNOULLI_CHECK_MSG(it != arrays.index_arrays.end(),
                      "format spec line " << line << ": unknown index array '"
                                          << name << "'");
  return it->second;
}

// Every number in a spec: decimal digits only (no sign, no suffix), and
// within index_t.
index_t parse_number(const Token& t, const char* what) {
  const std::string where =
      "format spec line " + std::to_string(t.line) + ": " + what;
  const bool digits =
      !t.text.empty() && std::all_of(t.text.begin(), t.text.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  BERNOULLI_CHECK_MSG(digits, where << " needs a non-negative number, got '"
                                    << t.text << "'");
  // More than 18 digits cannot fit a long long, let alone index_t.
  const long long v = t.text.size() > 18
                          ? std::numeric_limits<long long>::max()
                          : std::stoll(t.text);
  return checked_index(v, where.c_str());
}

// One `key=value` pair of a parenthesized parameter list, with the `,`
// separator before every pair but the first.
Token parse_kv(Parser& p, const char* key, bool first) {
  if (!first) p.expect(",");
  p.expect(key);
  p.expect("=");
  return p.next();
}

// A compressed or blocked level's ptr array over `rows` parent rows:
// rows + 1 entries, non-negative and non-decreasing, ending within |ind|.
// Every segment read is then in bounds.
void check_ptr(const LevelDescriptor& d, index_t rows, int line) {
  const long long need = static_cast<long long>(rows) + 1;
  BERNOULLI_CHECK_MSG(d.ptr_len == need,
                      "format spec line "
                          << line << ": ptr array has " << d.ptr_len
                          << " entries, the parent level needs " << need);
  BERNOULLI_CHECK_MSG(d.ptr[0] >= 0, "format spec line "
                                         << line << ": ptr array starts at "
                                         << d.ptr[0]);
  for (index_t k = 0; k < rows; ++k)
    BERNOULLI_CHECK_MSG(d.ptr[k] <= d.ptr[k + 1],
                        "format spec line " << line << ": ptr array decreases "
                                            << "at entry " << k + 1);
  BERNOULLI_CHECK_MSG(d.ptr[rows] <= d.ind_len,
                      "format spec line "
                          << line << ": ptr array ends at " << d.ptr[rows]
                          << " but the ind array has " << d.ind_len
                          << " entries");
}

// Checks the arrays of level `d` against the `parents` positions of the
// level above it (1 at the root), in O(parents), and returns the number
// of positions this level addresses. `parent` is the level above (kOpaque
// at the root).
index_t check_level(const LevelDescriptor& d, const LevelDescriptor& parent,
                    index_t parents, int line) {
  using K = LevelDescriptor::Kind;
  switch (d.kind) {
    case K::kDense: return d.extent;
    case K::kList: return d.ind_len;
    case K::kCompressed:
      check_ptr(d, parents, line);
      return d.ptr[parents];
    case K::kSingleton:
      BERNOULLI_CHECK_MSG(d.map_len == parents,
                          "format spec line "
                              << line << ": function() map has " << d.map_len
                              << " entries, the parent level has " << parents
                              << " positions");
      return parents;
    case K::kBlocked: {
      // The scalar-row parent level must tile exactly into block rows.
      const long long rows =
          static_cast<long long>(d.block_r) * (d.ptr_len - 1);
      if (parent.kind == K::kDense)
        BERNOULLI_CHECK_MSG(parent.extent == rows,
                            "format spec line "
                                << line << ": blocked(r=" << d.block_r
                                << ") covers " << rows << " rows but parent "
                                << "level is dense(" << parent.extent << ")");
      BERNOULLI_CHECK_MSG(rows == parents,
                          "format spec line "
                              << line << ": blocked(r=" << d.block_r
                              << ") covers " << rows << " rows but the parent "
                              << "level has " << parents << " positions");
      check_ptr(d, parents / d.block_r, line);
      const std::string what =
          "format spec line " + std::to_string(line) + ": blocked() values";
      return checked_index(static_cast<long long>(d.ptr[d.ptr_len - 1]) *
                               d.block_r * d.block_c,
                           what.c_str());
    }
    case K::kSliced: {
      BERNOULLI_CHECK_MSG(d.len_len == parents,
                          "format spec line "
                              << line << ": sliced() len has " << d.len_len
                              << " entries, the parent level has " << parents
                              << " positions");
      long long end = 0;  // one past the largest position
      for (index_t i = 0; i < parents; ++i) {
        const index_t len = d.len[i];
        const index_t base = d.off[i];
        BERNOULLI_CHECK_MSG(len >= 0 && base >= 0,
                            "format spec line "
                                << line << ": sliced() row " << i
                                << " has base " << base << " and len " << len);
        if (len == 0) continue;
        const long long last = base + static_cast<long long>(len - 1) * d.chunk;
        BERNOULLI_CHECK_MSG(last < d.ind_len,
                            "format spec line "
                                << line << ": sliced() row " << i
                                << " reaches position " << last
                                << " but the ind array has " << d.ind_len
                                << " entries");
        end = std::max(end, last + 1);
      }
      return static_cast<index_t>(end);
    }
    case K::kStrided:
    case K::kOffsets:
    case K::kOpaque: break;
  }
  return 0;
}

}  // namespace

struct GenericFormatView::Parsed {
  std::string name;
  std::vector<std::string> level_vars;
  std::vector<LevelDescriptor> levels;
  std::span<const value_t> values;
  bool has_value = false;
};

GenericFormatView::Parsed GenericFormatView::parse(
    const std::string& spec, const FormatArrays& arrays) {
  Parsed out;
  Parser p(spec);
  p.expect("format");
  out.name = p.next().text;
  p.expect("{");

  LevelDescriptor parent;    // kOpaque above the root
  index_t positions = 1;     // positions of the level above (root: one)
  while (peek_is(p, "level")) {
    p.expect("level");
    out.level_vars.push_back(p.next().text);
    p.expect(":");
    Token kind = p.next();
    auto index_array = [&](const char* key, bool first) {
      const Token t = parse_kv(p, key, first);
      return lookup_index(arrays, t.text, t.line);
    };
    LevelDescriptor d;
    if (kind.text == "dense") {
      p.expect("(");
      d = dense_level(parse_number(p.next(), "dense() extent"));
      p.expect(")");
    } else if (kind.text == "compressed") {
      p.expect("(");
      auto ptr = index_array("ptr", /*first=*/true);
      auto ind = index_array("ind", /*first=*/false);
      p.expect(")");
      d = compressed_level(ptr, ind, parse_sortedness(p));
    } else if (kind.text == "list") {
      p.expect("(");
      auto ind = index_array("ind", /*first=*/true);
      p.expect(")");
      d = list_level(ind, parse_sortedness(p));
    } else if (kind.text == "function") {
      p.expect("(");
      d = singleton_level(index_array("map", /*first=*/true));
      p.expect(")");
    } else if (kind.text == "blocked") {
      p.expect("(");
      Token rt = parse_kv(p, "r", /*first=*/true);
      Token ct = parse_kv(p, "c", /*first=*/false);
      const index_t r = parse_number(rt, "blocked() r");
      const index_t c = parse_number(ct, "blocked() c");
      BERNOULLI_CHECK_MSG(r > 0 && c > 0,
                          "format spec line "
                              << rt.line
                              << ": blocked() needs positive block dims, got r="
                              << r << " c=" << c);
      auto ptr = index_array("ptr", /*first=*/false);
      auto ind = index_array("ind", /*first=*/false);
      p.expect(")");
      d = compressed_level(ptr, ind, parse_sortedness(p));
      d.kind = LevelDescriptor::Kind::kBlocked;
      d.block_r = r;
      d.block_c = c;
    } else if (kind.text == "sliced") {
      p.expect("(");
      Token chunk_t = parse_kv(p, "chunk", /*first=*/true);
      Token sigma_t = parse_kv(p, "sigma", /*first=*/false);
      const index_t chunk = parse_number(chunk_t, "sliced() chunk");
      const index_t sigma = parse_number(sigma_t, "sliced() sigma");
      BERNOULLI_CHECK_MSG(chunk > 0, "format spec line "
                                         << chunk_t.line
                                         << ": sliced() needs a positive "
                                         << "chunk, got " << chunk);
      BERNOULLI_CHECK_MSG(sigma > 0 && sigma % chunk == 0,
                          "format spec line "
                              << sigma_t.line << ": sliced() sigma must be a "
                              << "positive multiple of chunk, got sigma="
                              << sigma << " chunk=" << chunk);
      Token base_t = parse_kv(p, "base", /*first=*/false);
      Token len_t = parse_kv(p, "len", /*first=*/false);
      auto base = lookup_index(arrays, base_t.text, base_t.line);
      auto len = lookup_index(arrays, len_t.text, len_t.line);
      auto ind = index_array("ind", /*first=*/false);
      p.expect(")");
      BERNOULLI_CHECK_MSG(base.size() == len.size(),
                          "format spec line "
                              << base_t.line << ": sliced() base and len must "
                              << "have one entry per row (|" << base_t.text
                              << "|=" << base.size() << ", |" << len_t.text
                              << "|=" << len.size() << ")");
      d = list_level(ind, parse_sortedness(p));
      d.kind = LevelDescriptor::Kind::kSliced;
      d.off = base.data();
      d.off_len = static_cast<index_t>(base.size());
      d.len = len.data();
      d.len_len = static_cast<index_t>(len.size());
      d.chunk = chunk;
      d.sigma = sigma;
    } else {
      BERNOULLI_CHECK_MSG(false, "format spec line "
                                     << kind.line << ": unknown level kind '"
                                     << kind.text << "'");
    }
    p.expect(";");
    positions = check_level(d, parent, positions, kind.line);
    out.levels.push_back(d);
    parent = d;
  }

  if (peek_is(p, "value")) {
    p.expect("value");
    Token v = p.next();
    auto it = arrays.value_arrays.find(v.text);
    BERNOULLI_CHECK_MSG(it != arrays.value_arrays.end(),
                        "format spec line " << v.line
                                            << ": unknown value array '"
                                            << v.text << "'");
    BERNOULLI_CHECK_MSG(static_cast<index_t>(it->second.size()) >= positions,
                        "format spec line "
                            << v.line << ": value array '" << v.text
                            << "' has " << it->second.size()
                            << " entries, the leaf level addresses "
                            << positions << " positions");
    out.values = it->second;
    out.has_value = true;
    p.expect(";");
  }
  p.expect("}");
  BERNOULLI_CHECK_MSG(!out.levels.empty(), "format spec declares no levels");
  return out;
}

GenericFormatView::GenericFormatView(const std::string& spec,
                                     const FormatArrays& arrays)
    : GenericFormatView(parse(spec, arrays)) {}

GenericFormatView::GenericFormatView(Parsed parsed)
    : LevelStackView(std::move(parsed.name)),
      level_vars_(std::move(parsed.level_vars)) {
  for (const LevelDescriptor& d : parsed.levels) add_level(d);
  if (parsed.has_value) set_values(parsed.values);
}

value_t GenericFormatView::value_at(index_t pos) const {
  BERNOULLI_CHECK_MSG(has_value(), name() << " declares no value array");
  BERNOULLI_CHECK(pos >= 0 &&
                  pos < static_cast<index_t>(value_array().size()));
  return LevelStackView::value_at(pos);
}

}  // namespace bernoulli::relation
