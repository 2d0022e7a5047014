// The /v1/predict wire format (DESIGN.md §12).
//
// Request (single sample or batch; each sample is a flat NCHW pixel vector):
//   {"input":  [0.1, 0.2, ...]}                 — one sample
//   {"inputs": [[0.1, ...], [0.5, ...], ...]}   — a batch
//
// Response, one entry per input sample, in request order:
//   {"predictions":[{"label":3,"logits":[-0.1,...]}, ...]}
//
// Exactness contract: logits are rendered by exp::JsonWriter with the
// shortest float spelling that round-trips the binary value
// (exp::format_float), so a served response is BYTE-identical to the
// offline rendering of the same forward — tests and the CI smoke diff the two
// strings directly. A non-finite logit is written as null.
#pragma once

#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace fp::serve {

/// A client-side error: malformed JSON, wrong sample length, empty batch.
/// The server maps it to HTTP 400 with the message as the body.
struct BadRequest : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses a /v1/predict body into an [n, c, h, w] tensor. Throws BadRequest
/// naming the offending sample and the expected element count.
Tensor parse_predict_request(const std::string& body, std::int64_t c,
                             std::int64_t h, std::int64_t w);

/// Renders logits [n, classes] as the response JSON (argmax label + the full
/// logit row per sample).
std::string render_predict_response(const Tensor& logits);

/// Renders one sample (or a whole batch) as a request body — the load
/// generator's and the tests' encoder, matching parse_predict_request.
std::string render_predict_request(const Tensor& x);

}  // namespace fp::serve
