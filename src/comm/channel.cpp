#include "comm/channel.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fp::comm {

namespace {

thread_local CaptureScope* g_capture = nullptr;

/// Decodes any message by its own codec kind — messages are self-describing,
/// so the receiver needs no channel or codec agreement. `ref` must be the
/// reference blob the encoder used (empty for none).
nn::ParamBlob decode(const WireMessage& msg, std::span<const float> ref) {
  obs::PhaseTimer encode_phase(obs::Phase::kEncode);
  FP_TRACE_SCOPE("decode", "comm");
  switch (msg.kind) {
    case CodecKind::kIdentity:
      return IdentityCodec().decode(msg);
    case CodecKind::kFp16:
      return Fp16Codec().decode(msg);
    case CodecKind::kInt8:
      return Int8Codec().decode(msg);
    case CodecKind::kTopK:
      // The fraction only steers encode-side selection; decode reads the
      // kept pairs and the delta flag off the message itself.
      return TopKCodec(1.0, msg.delta).decode(msg, ref);
  }
  throw std::invalid_argument("Channel: unknown codec kind on the wire");
}

}  // namespace

CaptureScope::CaptureScope() : prev_(g_capture) { g_capture = this; }
CaptureScope::~CaptureScope() { g_capture = prev_; }

Channel::Channel(const CommConfig& cfg)
    : cfg_(cfg), codec_(make_codec(cfg)), net_(cfg.model_network) {}

nn::ParamBlob Channel::downlink(nn::ParamBlob blob,
                                std::int64_t* wire_bytes) const {
  obs::PhaseTimer encode_phase(obs::Phase::kEncode);
  FP_TRACE_SCOPE_ARG("downlink", "comm", "floats",
                     static_cast<std::int64_t>(blob.size()));
  const bool dense = !cfg_.compress_downlink ||
                     codec_->kind() == CodecKind::kIdentity ||
                     codec_->kind() == CodecKind::kTopK;
  return transfer(dense ? nullptr : codec_.get(), std::move(blob), {},
                  wire_bytes);
}

nn::ParamBlob Channel::uplink(nn::ParamBlob blob, std::span<const float> ref,
                              std::int64_t* wire_bytes) const {
  obs::PhaseTimer encode_phase(obs::Phase::kEncode);
  FP_TRACE_SCOPE_ARG("uplink", "comm", "floats",
                     static_cast<std::int64_t>(blob.size()));
  const bool dense = codec_->kind() == CodecKind::kIdentity;
  return transfer(dense ? nullptr : codec_.get(), std::move(blob), ref,
                  wire_bytes);
}

nn::ParamBlob Channel::transfer(const BlobCodec* codec, nn::ParamBlob blob,
                                std::span<const float> ref,
                                std::int64_t* wire_bytes) {
  if (g_capture) {
    WireMessage msg =
        codec ? codec->encode(blob, ref) : IdentityCodec().encode(blob);
    if (wire_bytes) *wire_bytes += msg.wire_bytes();
    if (codec) blob = codec->decode(msg, ref);
    g_capture->msgs_.push_back(std::move(msg));
    return blob;
  }
  if (!codec) {
    // Identity framing: skip the encode/decode copy, the bytes are the
    // dense fp32 payload either way and the values are bit-identical.
    if (wire_bytes)
      *wire_bytes += static_cast<std::int64_t>(blob.size() * sizeof(float) +
                                               WireMessage::kHeaderBytes);
    return blob;
  }
  const WireMessage msg = codec->encode(blob, ref);
  if (wire_bytes) *wire_bytes += msg.wire_bytes();
  return codec->decode(msg, ref);
}

// ---- StateIO ----------------------------------------------------------------

void StateIO::operator()(bool& v) {
  if (in_)
    v = in_->u8() != 0;
  else
    out_->u8(v ? 1 : 0);
}
void StateIO::operator()(float& v) {
  if (in_)
    v = in_->f32();
  else
    out_->f32(v);
}
void StateIO::operator()(double& v) {
  if (in_)
    v = in_->f64();
  else
    out_->f64(v);
}
void StateIO::operator()(std::int64_t& v) {
  if (in_)
    v = in_->i64();
  else
    out_->i64(v);
}
void StateIO::operator()(std::uint64_t& v) {
  if (in_)
    v = in_->u64();
  else
    out_->u64(v);
}

void StateIO::msg(nn::ParamBlob& blob, std::span<const float> ref) {
  if (in_) {
    blob = decode(in_->wire_msg(), ref);
    return;
  }
  if (next_ >= captured_->size() ||
      (*captured_)[next_].num_elems != blob.size())
    throw std::logic_error(
        "StateIO: blob " + std::to_string(next_) +
        " does not match the channel's captured messages (state functions "
        "must emit blobs in the order the channel carried them)");
  out_->wire_msg((*captured_)[next_++]);
}

void StateIO::finish() const {
  if (next_ != captured_->size())
    throw std::logic_error("StateIO: " + std::to_string(next_) + " of " +
                           std::to_string(captured_->size()) +
                           " captured messages written");
}

}  // namespace fp::comm
