// Minimal JSON reader for experiment spec files (src/exp/, DESIGN.md §7).
//
// Spec files are JSON objects whose leaves are scalars (string, number,
// true/false). Objects may nest — {"fl": {"num_clients": 10}} — or use
// dotted keys directly — {"fl.num_clients": 10}; both flatten to the same
// dotted-key map the spec schema consumes. Arrays and null are rejected: no
// spec key is list-valued, and an explicit error beats a silent drop.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace fp::exp {

/// One flattened leaf: dotted key path -> scalar literal. String values are
/// unescaped; numbers and booleans keep their literal spelling so the spec
/// setters (not the parser) own numeric interpretation.
using FlatJson = std::vector<std::pair<std::string, std::string>>;

/// Parses a JSON object into flattened (key, value) pairs in document order.
/// Throws SpecError with a character offset on malformed input.
FlatJson parse_json_object(const std::string& text);

/// Like parse_json_object, but arrays are accepted and flattened element by
/// element as `key.<index>` (an empty array contributes no keys). Spec files
/// never use this — it exists so tests and tools can inspect emitted
/// artifacts like Chrome trace JSON with the same parser.
FlatJson parse_json_relaxed(const std::string& text);

/// JSON string escaping: the one copy lives in obs (its lowest caller).
using obs::json_escape;

}  // namespace fp::exp
