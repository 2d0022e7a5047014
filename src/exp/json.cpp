#include "exp/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/registry.hpp"

namespace fp::exp {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text, bool relaxed = false)
      : s_(text), relaxed_(relaxed) {}

  FlatJson parse() {
    FlatJson out;
    skip_ws();
    object(/*prefix=*/"", out);
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after top-level object");
    return out;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw SpecError("spec JSON error at offset " + std::to_string(i_) + ": " +
                    why);
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      char c = s_[i_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("unterminated escape");
        c = s_[i_++];
        switch (c) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': append_code_point(out); break;
          default: fail(std::string("unsupported escape '\\") + c + "'");
        }
      } else {
        out += c;
      }
    }
  }

  /// The four hex digits of a `\u` escape.
  std::uint32_t hex4() {
    const char* p = s_.data() + i_;
    const char* end = s_.data() + std::min(s_.size(), i_ + 4);
    std::uint32_t v = 0;
    if (std::from_chars(p, end, v, 16).ptr != p + 4) fail("bad \\u escape");
    i_ += 4;
    return v;
  }

  /// Appends a `\uXXXX` escape (read from just past the `u`) as UTF-8,
  /// joining a UTF-16 surrogate pair into one code point.
  void append_code_point(std::string& out) {
    std::uint32_t cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF && s_.compare(i_, 2, "\\u") == 0) {
      i_ += 2;
      const std::uint32_t lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired UTF-16 surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xD800 && cp <= 0xDFFF) {
      fail("unpaired UTF-16 surrogate");
    }
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
    for (int k = extra - 1; k >= 0; --k)
      out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
  }

  std::string scalar_literal() {
    const std::size_t start = i_;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '+' || c == '-' || c == '_') {
        ++i_;
      } else {
        break;
      }
    }
    if (i_ == start) fail("expected a value");
    const std::string tok = s_.substr(start, i_ - start);
    if (tok == "null" && !relaxed_) fail("null is not a valid spec value");
    return tok;
  }

  void value(const std::string& key, FlatJson& out) {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      object(key + ".", out);
    } else if (c == '[') {
      if (!relaxed_)
        fail("arrays are not supported in spec files (key '" + key + "')");
      array(key, out);
    } else if (c == '"') {
      out.emplace_back(key, string_literal());
    } else {
      out.emplace_back(key, scalar_literal());
    }
  }

  /// Flattens [a, b, ...] as key.0, key.1, ... (relaxed mode only).
  void array(const std::string& key, FlatJson& out) {
    skip_ws();
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return;
    }
    for (std::size_t idx = 0;; ++idx) {
      value(key + "." + std::to_string(idx), out);
      skip_ws();
      if (peek() == ',') {
        ++i_;
        skip_ws();
        continue;
      }
      expect(']');
      return;
    }
  }

  void object(const std::string& prefix, FlatJson& out) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = string_literal();
      skip_ws();
      expect(':');
      value(prefix + key, out);
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return;
    }
  }

  const std::string& s_;
  bool relaxed_ = false;
  std::size_t i_ = 0;
};

}  // namespace

FlatJson parse_json_object(const std::string& text) {
  return Parser(text).parse();
}

FlatJson parse_json_relaxed(const std::string& text) {
  return Parser(text, /*relaxed=*/true).parse();
}

std::string format_float(float v) {
  char buf[48];
  for (int prec = 6; prec <= 9; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, static_cast<double>(v));
    if (std::strtof(buf, nullptr) == v) break;
  }
  return buf;
}

std::string format_double(double v) {
  char buf[48];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_escape(std::string_view s) {
  const std::string quoted = JsonWriter().string(s).take();
  return quoted.substr(1, quoted.size() - 2);
}

// ---- JsonWriter -------------------------------------------------------------

void JsonWriter::begin_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (!members_.empty()) {
    if (members_.back()++ > 0) out_ += ',';
    if (expanded()) newline();
  }
}

JsonWriter& JsonWriter::open(char bracket) {
  begin_value();
  out_ += bracket;
  members_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const bool break_line = expanded() && members_.back() > 0;
  members_.pop_back();
  if (break_line) newline();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  begin_value();
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (u >= 0x20) {
      out_ += c;
    } else if (u >= '\b' && u <= '\r' && u != '\v') {
      out_ += '\\';
      out_ += "btn?fr"[u - '\b'];  // the short escapes of 0x08-0x0D
    } else {
      out_ += "\\u00";
      out_ += kHex[u >> 4];
      out_ += kHex[u & 0xF];
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  string(k);
  out_ += expanded() ? ": " : ":";
  after_key_ = true;
  return *this;
}

bool write_text_file(const std::string& path, std::string_view text) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  if (ec) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

bool read_text_file(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

}  // namespace fp::exp
