// Wire codecs: how parameter blobs are framed for the (simulated) network.
//
// A real federated deployment never ships raw fp32 tensors: uplinks from edge
// devices are the scarce resource, so updates travel quantized or sparsified.
// This subsystem models that wire layer over `nn::ParamBlob`:
//
//  * `IdentityCodec` — dense fp32, bit-identical round-trip (the default;
//    keeps every historical golden hash unchanged).
//  * `Fp16Codec`     — IEEE half precision, round-to-nearest-even.
//  * `Int8Codec`     — per-tensor affine quantization (the blob is the tensor
//    on the wire): 8-bit codes against a [min, max] grid, max elementwise
//    error <= scale / 2.
//  * `TopKCodec`     — magnitude sparsification: keep the k = ceil(f * n)
//    largest-magnitude coordinates and ship (index, value) pairs. With
//    `delta` selection the magnitudes are measured against a reference blob
//    (the broadcast the client trained from), which is what makes top-k
//    meaningful on weights; the shipped values are the absolute parameters,
//    so kept coordinates decode exactly in both modes.
//
// Every codec is a pure function of its inputs (deterministic ties broken by
// index), so encoding may run concurrently from client worker threads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/serialize.hpp"

namespace fp::comm {

enum class CodecKind : std::uint8_t { kIdentity, kFp16, kInt8, kTopK };

const char* codec_name(CodecKind kind);

/// Communication configuration carried in `fed::FlConfig::comm`.
struct CommConfig {
  CodecKind codec = CodecKind::kIdentity;
  /// TopKCodec: fraction of coordinates kept (k = max(1, ceil(f * n))).
  double topk_fraction = 0.05;
  /// TopKCodec: select by |blob - reference| when a reference is available
  /// (delta-vs-global selection); false selects by raw magnitude.
  bool topk_delta = true;
  /// Also run server->client broadcasts through the codec. Off by default:
  /// downlinks are cheap relative to uplinks and a lossy broadcast changes
  /// what every client trains from. TopK downlinks always stay dense (a
  /// sparsified broadcast without a client-side reference is destructive).
  bool compress_downlink = false;
  /// Convert wire sizes into simulated transfer time via comm::NetworkModel.
  /// Off by default so historical sim-time goldens are unchanged; byte
  /// accounting happens either way.
  bool model_network = false;
};

/// One framed transfer. `payload` is the encoded body; `wire_bytes()` adds
/// the fixed header a real framing would carry (kind, flags, element count,
/// body length).
struct WireMessage {
  CodecKind kind = CodecKind::kIdentity;
  bool delta = false;            ///< TopK: decoded against a reference blob
  std::uint64_t num_elems = 0;   ///< dense element count of the decoded blob
  std::vector<std::uint8_t> payload;

  static constexpr std::size_t kHeaderBytes = 16;
  std::int64_t wire_bytes() const {
    return static_cast<std::int64_t>(payload.size() + kHeaderBytes);
  }
};

class BlobCodec {
 public:
  virtual ~BlobCodec() = default;
  virtual CodecKind kind() const = 0;
  const char* name() const { return codec_name(kind()); }

  /// Encodes `blob`. `ref` is the receiver-known reference blob (the
  /// broadcast a client trained from), empty for none; only TopK delta
  /// selection uses it.
  virtual WireMessage encode(const nn::ParamBlob& blob,
                             std::span<const float> ref = {}) const = 0;

  /// Decodes back to a dense blob. `ref` must be the same reference passed
  /// to encode (TopK delta messages fill unsent coordinates from it).
  virtual nn::ParamBlob decode(const WireMessage& msg,
                               std::span<const float> ref = {}) const = 0;
};

class IdentityCodec final : public BlobCodec {
 public:
  CodecKind kind() const override { return CodecKind::kIdentity; }
  WireMessage encode(const nn::ParamBlob& blob,
                     std::span<const float> ref = {}) const override;
  nn::ParamBlob decode(const WireMessage& msg,
                       std::span<const float> ref = {}) const override;
};

class Fp16Codec final : public BlobCodec {
 public:
  CodecKind kind() const override { return CodecKind::kFp16; }
  WireMessage encode(const nn::ParamBlob& blob,
                     std::span<const float> ref = {}) const override;
  nn::ParamBlob decode(const WireMessage& msg,
                       std::span<const float> ref = {}) const override;
};

class Int8Codec final : public BlobCodec {
 public:
  CodecKind kind() const override { return CodecKind::kInt8; }
  WireMessage encode(const nn::ParamBlob& blob,
                     std::span<const float> ref = {}) const override;
  nn::ParamBlob decode(const WireMessage& msg,
                       std::span<const float> ref = {}) const override;

  /// The quantization grid step encode would use: (max - min) / 255. The
  /// max elementwise round-trip error is half of this.
  static double grid_step(const nn::ParamBlob& blob);
};

class TopKCodec final : public BlobCodec {
 public:
  explicit TopKCodec(double fraction, bool delta = true)
      : fraction_(fraction), delta_(delta) {}

  CodecKind kind() const override { return CodecKind::kTopK; }
  WireMessage encode(const nn::ParamBlob& blob,
                     std::span<const float> ref = {}) const override;
  nn::ParamBlob decode(const WireMessage& msg,
                       std::span<const float> ref = {}) const override;

  std::size_t kept_count(std::size_t n) const;

 private:
  double fraction_;
  bool delta_;
};

/// Builds the codec selected by `cfg.codec`.
std::unique_ptr<BlobCodec> make_codec(const CommConfig& cfg);

// IEEE 754 binary16 conversions (round-to-nearest-even), exposed for tests.
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

}  // namespace fp::comm
