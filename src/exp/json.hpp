// The JSON reader and writer (src/exp/, DESIGN.md §7); standard library only.
//
// Spec files are JSON objects whose leaves are scalars (string, number,
// true/false). Objects may nest — {"fl": {"num_clients": 10}} — or use dotted
// keys directly — {"fl.num_clients": 10}; both flatten to the same dotted-key
// map the spec schema consumes. Arrays and null are rejected: no spec key is
// list-valued, and an explicit error beats a silent drop. Every JSON the
// process emits (spec, trace, metrics, /metricsz, /v1/predict) goes through
// JsonWriter.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fp::exp {

/// One flattened leaf: dotted key path -> scalar literal. String values are
/// unescaped; numbers and booleans keep their literal spelling so the spec
/// setters (not the parser) own numeric interpretation.
using FlatJson = std::vector<std::pair<std::string, std::string>>;

/// Parses a JSON object into flattened (key, value) pairs in document order.
/// Throws SpecError with a character offset on malformed input.
FlatJson parse_json_object(const std::string& text);

/// Like parse_json_object, but arrays are accepted and flattened element by
/// element as `key.<index>` (an empty array contributes no keys), and null
/// leaves are kept as the literal `null` (how JsonWriter spells a non-finite
/// number). Spec files never use this — it exists so tests and tools can
/// inspect emitted artifacts like Chrome trace JSON with the same parser.
FlatJson parse_json_relaxed(const std::string& text);

/// Escapes `s` for embedding in a JSON string literal (quotes not included):
/// `"`, `\` and every control character below U+0020.
std::string json_escape(std::string_view s);

/// Shortest decimal spelling (%g) that parses back to the same binary value:
/// the number formatter of spec serialization and the serving wire format.
std::string format_float(float v);
std::string format_double(double v);

/// Streaming JSON writer. Containers opened at a depth below `expand_depth`
/// (the top-level value is depth 0) put each member on its own line, indented
/// two spaces per level, with `": "` after keys; deeper containers are
/// compact (`{"a":1,"b":[2,3]}`). 0 gives the compact wire bodies, 2 one
/// trace event or counter per line, kExpandAll the fully indented spec.
/// Integers are exact; floats and doubles use format_float / format_double,
/// and a non-finite number is written as null.
class JsonWriter {
 public:
  static constexpr int kExpandAll = 1 << 30;

  explicit JsonWriter(int expand_depth = 0) : expand_depth_(expand_depth) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// The key of the next object member.
  JsonWriter& key(std::string_view k);

  JsonWriter& string(std::string_view s);
  JsonWriter& integer(std::int64_t v) { return literal(std::to_string(v)); }
  JsonWriter& number(float v) {
    return literal(std::isfinite(v) ? format_float(v) : "null");
  }
  JsonWriter& number(double v) {
    return literal(std::isfinite(v) ? format_double(v) : "null");
  }
  /// A value that is already valid JSON (e.g. a KeyDef::get number spelling).
  JsonWriter& literal(std::string_view spelled) {
    begin_value();
    out_ += spelled;
    return *this;
  }

  void reserve(std::size_t bytes) { out_.reserve(bytes); }
  std::string take() { return std::move(out_); }

 private:
  /// Whether the innermost open container puts members on their own lines.
  bool expanded() const {
    return static_cast<int>(members_.size()) <= expand_depth_;
  }
  void begin_value();  ///< separator + layout before any value
  void newline() { out_.append(1, '\n').append(2 * members_.size(), ' '); }
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  std::vector<std::int64_t> members_;  ///< member count per open container
  int expand_depth_;
  bool after_key_ = false;
};

/// Writes `text` to `path`, creating parent directories. False on any open,
/// write or close failure.
bool write_text_file(const std::string& path, std::string_view text);

/// Reads the whole file at `path` into `*text`. False when it cannot be read.
bool read_text_file(const std::string& path, std::string* text);

}  // namespace fp::exp
