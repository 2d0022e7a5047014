#include "exp/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "exp/registry.hpp"

namespace fp::exp {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text, bool allow_arrays = false)
      : s_(text), allow_arrays_(allow_arrays) {}

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
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: fail(std::string("unsupported escape '\\") + c + "'");
        }
      } else {
        out += c;
      }
    }
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
    if (tok == "null") fail("null is not a valid spec value");
    return tok;
  }

  void value(const std::string& key, FlatJson& out) {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      object(key + ".", out);
    } else if (c == '[') {
      if (!allow_arrays_)
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
  bool allow_arrays_ = false;
  std::size_t i_ = 0;
};

}  // namespace

FlatJson parse_json_object(const std::string& text) {
  return Parser(text).parse();
}

FlatJson parse_json_relaxed(const std::string& text) {
  return Parser(text, /*allow_arrays=*/true).parse();
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

}  // namespace fp::exp
