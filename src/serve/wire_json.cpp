#include "serve/wire_json.hpp"

#include <cstdlib>
#include <vector>

#include "exp/json.hpp"
#include "exp/registry.hpp"

namespace fp::serve {

namespace {

float parse_float_strict(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const float v = std::strtof(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    throw BadRequest("non-numeric value '" + value + "' at " + key);
  return v;
}

/// Parses the sample index of an "inputs.<i>.<j>" key; -1 when malformed.
std::int64_t sample_index(const std::string& key, std::size_t prefix_len) {
  std::int64_t idx = 0;
  std::size_t i = prefix_len;
  if (i >= key.size() || key[i] < '0' || key[i] > '9') return -1;
  for (; i < key.size() && key[i] >= '0' && key[i] <= '9'; ++i)
    idx = idx * 10 + (key[i] - '0');
  return idx;
}

// ---- fast-path body scanner -------------------------------------------------
// The relaxed parser materializes one "inputs.<i>.<j>" key string per element,
// which dominates request latency for kilobyte bodies. This scanner reads the
// numeric arrays in place with the same strtof conversion (so values are
// bitwise identical) and bails out — returning false — on anything beyond a
// flat {"input":[...]} / {"inputs":[[...],...]} object, in which case the
// caller falls back to the relaxed parser and its error messages.

void skip_ws(const char* s, std::size_t n, std::size_t* i) {
  while (*i < n && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                    s[*i] == '\r'))
    ++*i;
}

/// Skips a balanced JSON value (scalar, string, array, or object). Returns
/// false when the value is malformed enough that the slow path should decide.
bool skip_value(const char* s, std::size_t n, std::size_t* i) {
  skip_ws(s, n, i);
  if (*i >= n) return false;
  if (s[*i] == '"') {
    for (++*i; *i < n; ++*i) {
      if (s[*i] == '\\') ++*i;
      else if (s[*i] == '"') { ++*i; return true; }
    }
    return false;
  }
  if (s[*i] == '[' || s[*i] == '{') {
    int depth = 0;
    bool in_str = false;
    for (; *i < n; ++*i) {
      const char c = s[*i];
      if (in_str) {
        if (c == '\\') ++*i;
        else if (c == '"') in_str = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        if (--depth == 0) { ++*i; return true; }
      }
    }
    return false;
  }
  // Scalar: run to the next structural character.
  while (*i < n && s[*i] != ',' && s[*i] != '}' && s[*i] != ']') ++*i;
  return true;
}

/// Reads a `[num, num, ...]` array at *i into out. False → fall back.
bool scan_float_array(const char* s, std::size_t n, std::size_t* i,
                      std::vector<float>* out) {
  skip_ws(s, n, i);
  if (*i >= n || s[*i] != '[') return false;
  ++*i;
  skip_ws(s, n, i);
  if (*i < n && s[*i] == ']') { ++*i; return true; }
  while (*i < n) {
    char* end = nullptr;
    const float v = std::strtof(s + *i, &end);
    if (end == s + *i) return false;  // not a number: string/bool/nested
    out->push_back(v);
    *i = static_cast<std::size_t>(end - s);
    skip_ws(s, n, i);
    if (*i >= n) return false;
    if (s[*i] == ',') { ++*i; skip_ws(s, n, i); continue; }
    if (s[*i] == ']') { ++*i; return true; }
    return false;
  }
  return false;
}

bool scan_samples_fast(const std::string& body,
                       std::vector<std::vector<float>>* samples) {
  const char* s = body.data();
  const std::size_t n = body.size();
  std::size_t i = 0;
  bool saw_input = false, saw_inputs = false;
  skip_ws(s, n, &i);
  if (i >= n || s[i] != '{') return false;
  ++i;
  skip_ws(s, n, &i);
  if (i < n && s[i] == '}') return true;  // empty object → "no samples"
  while (i < n) {
    skip_ws(s, n, &i);
    if (i >= n || s[i] != '"') return false;  // unquoted keys → slow path
    const std::size_t key_start = ++i;
    while (i < n && s[i] != '"' && s[i] != '\\') ++i;
    if (i >= n || s[i] != '"') return false;
    const std::string_view key(s + key_start, i - key_start);
    ++i;
    skip_ws(s, n, &i);
    if (i >= n || s[i] != ':') return false;
    ++i;
    if (key == "input") {
      if (saw_input || saw_inputs) return false;  // merge semantics → slow
      saw_input = true;
      samples->resize(1);
      if (!scan_float_array(s, n, &i, &(*samples)[0])) return false;
      // "input": [] produces no keys under the relaxed parser → "no samples".
      if ((*samples)[0].empty()) samples->clear();
    } else if (key == "inputs") {
      if (saw_input || saw_inputs) return false;
      saw_inputs = true;
      skip_ws(s, n, &i);
      if (i >= n || s[i] != '[') return false;
      ++i;
      skip_ws(s, n, &i);
      if (i < n && s[i] == ']') {
        ++i;
      } else {
        while (i < n) {
          samples->emplace_back();
          if (!scan_float_array(s, n, &i, &samples->back())) return false;
          skip_ws(s, n, &i);
          if (i >= n) return false;
          if (s[i] == ',') { ++i; continue; }
          if (s[i] == ']') { ++i; break; }
          return false;
        }
      }
      // The relaxed parser only materializes a sample when an element exists,
      // so trailing empty arrays never count — mirror that.
      while (!samples->empty() && samples->back().empty()) samples->pop_back();
    } else {
      if (!skip_value(s, n, &i)) return false;  // unknown fields are ignored
    }
    skip_ws(s, n, &i);
    if (i >= n) return false;
    if (s[i] == ',') { ++i; continue; }
    if (s[i] == '}') return true;
    return false;
  }
  return false;
}

/// Slow path: rebuilds the per-sample vectors from the relaxed parser's
/// flattened "inputs.<i>.<j>" keys.
void parse_relaxed_samples(const exp::FlatJson& flat,
                           std::vector<std::vector<float>>* samples_out) {
  auto& samples = *samples_out;
  for (const auto& [key, value] : flat) {
    std::int64_t idx = -1;
    if (key.rfind("inputs.", 0) == 0) {
      idx = sample_index(key, 7);
      if (idx < 0)
        throw BadRequest("expected \"inputs\" to be an array of arrays");
    } else if (key.rfind("input.", 0) == 0) {
      idx = 0;
    } else {
      continue;  // unknown top-level fields are ignored
    }
    if (static_cast<std::size_t>(idx) >= samples.size())
      samples.resize(static_cast<std::size_t>(idx) + 1);
    samples[static_cast<std::size_t>(idx)].push_back(
        parse_float_strict(key, value));
  }
}

}  // namespace

Tensor parse_predict_request(const std::string& body, std::int64_t c,
                             std::int64_t h, std::int64_t w) {
  std::vector<std::vector<float>> samples;
  if (!scan_samples_fast(body, &samples)) {
    samples.clear();
    exp::FlatJson flat;
    try {
      flat = exp::parse_json_relaxed(body);
    } catch (const exp::SpecError& e) {
      throw BadRequest(std::string("malformed JSON body: ") + e.what());
    }
    // Values arrive in document order, so appending per sample preserves the
    // NCHW element order of each flat pixel vector.
    parse_relaxed_samples(flat, &samples);
  }
  if (samples.empty())
    throw BadRequest(
        "no samples: body needs \"input\": [...] or \"inputs\": [[...], ...]");
  const std::int64_t want = c * h * w;
  Tensor x({static_cast<std::int64_t>(samples.size()), c, h, w});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (static_cast<std::int64_t>(samples[i].size()) != want)
      throw BadRequest("sample " + std::to_string(i) + " has " +
                       std::to_string(samples[i].size()) +
                       " values, expected " + std::to_string(want) + " (" +
                       std::to_string(c) + "x" + std::to_string(h) + "x" +
                       std::to_string(w) + ")");
    std::copy(samples[i].begin(), samples[i].end(),
              x.data() + static_cast<std::int64_t>(i) * want);
  }
  return x;
}

std::string render_predict_response(const Tensor& logits) {
  const std::int64_t n = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  const auto labels = logits.argmax_rows();
  exp::JsonWriter w;
  w.reserve(static_cast<std::size_t>(n * classes) * 12 + 64);
  w.begin_object().key("predictions").begin_array();
  for (std::int64_t i = 0; i < n; ++i) {
    w.begin_object().key("label").integer(labels[static_cast<std::size_t>(i)]);
    w.key("logits").begin_array();
    for (std::int64_t k = 0; k < classes; ++k)
      w.number(logits[i * classes + k]);
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.take();
}

std::string render_predict_request(const Tensor& x) {
  const std::int64_t n = x.dim(0);
  const std::int64_t per = x.numel() / n;
  exp::JsonWriter w;
  w.reserve(static_cast<std::size_t>(x.numel()) * 10 + 32);
  w.begin_object().key("inputs").begin_array();
  for (std::int64_t i = 0; i < n; ++i) {
    w.begin_array();
    for (std::int64_t j = 0; j < per; ++j) w.number(x[i * per + j]);
    w.end_array();
  }
  w.end_array().end_object();
  return w.take();
}

}  // namespace fp::serve
