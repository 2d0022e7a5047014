// The engine-owned communication channel: every server->client broadcast and
// client->server upload of the federated runtime is routed through here. The
// channel applies the configured wire codec (encode immediately followed by
// decode — the simulation has no real network, but the lossy round-trip and
// the byte counts are exactly what a deployment would see) and exposes the
// NetworkModel the schedulers price transfers with.
//
// All methods are const and pure: uplinks may run concurrently from client
// worker threads (the engine aggregates byte counts on its own thread).
//
// The distributed runtime (DESIGN.md §10) splits each transfer at the wire:
// a CaptureScope bound on the sending thread records every WireMessage its
// downlink/uplink calls encode, and a StateIO ships those exact messages
// and decodes them on the receiving end. With no scope bound (every
// single-process run) the fused paths run unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/codec.hpp"
#include "comm/network.hpp"
#include "comm/wire.hpp"

namespace fp::comm {

/// RAII recorder of the WireMessages this thread's Channel::downlink/uplink
/// calls put on the wire, in call order. While bound, those calls encode,
/// record the message, and return what the receiver decodes from it — bit-
/// and byte-identical to the fused path. Thread-local like
/// compute::InferenceScope: concurrent clients each capture their own
/// uplinks. Scopes nest; the innermost records.
class CaptureScope {
 public:
  CaptureScope();
  ~CaptureScope();
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;

  std::vector<WireMessage> take() { return std::move(msgs_); }

 private:
  friend class Channel;
  std::vector<WireMessage> msgs_;
  CaptureScope* prev_;
};

class Channel {
 public:
  explicit Channel(const CommConfig& cfg);

  const CommConfig& config() const { return cfg_; }
  const BlobCodec& codec() const { return *codec_; }
  const NetworkModel& network() const { return net_; }

  /// Server->client broadcast: returns the blob as the client receives it and
  /// adds the framed wire size to *wire_bytes (if given). Dense (identity
  /// framing) unless `compress_downlink` is set; TopK downlinks always stay
  /// dense — without a client-side reference a sparsified broadcast would
  /// zero most of the model.
  nn::ParamBlob downlink(nn::ParamBlob blob, std::int64_t* wire_bytes) const;

  /// Client->server upload: returns the blob as the server decodes it and
  /// adds the framed wire size to *wire_bytes (if given). `ref` is the blob
  /// both ends already share (the broadcast the client trained from); TopK
  /// delta selection measures magnitudes against it and fills unsent
  /// coordinates from it.
  nn::ParamBlob uplink(nn::ParamBlob blob, const nn::ParamBlob* ref,
                       std::int64_t* wire_bytes) const;

 private:
  /// One transfer through `codec` (nullptr = dense identity framing). With
  /// a CaptureScope bound it records the encoded message and returns what
  /// the receiver decodes from it: the same bits and bytes as the fused path.
  static nn::ParamBlob transfer(const BlobCodec* codec, nn::ParamBlob blob,
                                const nn::ParamBlob* ref,
                                std::int64_t* wire_bytes);

  CommConfig cfg_;
  std::unique_ptr<BlobCodec> codec_;
  NetworkModel net_;
};

/// One symmetric serializer for state that crosses the distributed runtime:
/// the same function writes it on the sending end and reads it back on the
/// receiving end. Scalars ride the frame as-is; blobs that went through the
/// channel ride as the messages the sender's CaptureScope recorded, and the
/// receiver decodes each against its own reference.
class StateIO {
 public:
  /// Sending end: msg() emits `captured` in order (not owned; must outlive
  /// this StateIO).
  StateIO(FrameWriter& out, const std::vector<WireMessage>& captured)
      : out_(&out), captured_(&captured) {}
  /// Receiving end.
  explicit StateIO(FrameReader& in) : in_(&in) {}

  bool reading() const { return in_ != nullptr; }

  void operator()(bool& v);
  void operator()(float& v);
  void operator()(double& v);
  void operator()(std::int64_t& v);
  void operator()(std::uint64_t& v);

  /// A blob that crossed the channel: the sending end emits the next
  /// captured message (which must encode blob.size() elements); the
  /// receiving end decodes it against `ref` into `blob`.
  void msg(nn::ParamBlob& blob, const nn::ParamBlob* ref = nullptr);

  /// Sending end: throws unless every captured message was emitted.
  void finish() const;

 private:
  FrameWriter* out_ = nullptr;
  FrameReader* in_ = nullptr;
  const std::vector<WireMessage>* captured_ = nullptr;
  std::size_t next_ = 0;
};

}  // namespace fp::comm
