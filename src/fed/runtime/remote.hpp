// The seam between the federated runtime and the distributed transport
// (DESIGN.md §10).
//
// The engine and schedulers never touch sockets: on a distributed root, the
// sync scheduler hands each dispatch group to the RemoteDispatcher the
// environment carries instead of training in-process, and gets back the
// same Upload vector the parallel local loop would have produced — decoded
// through the root's own broadcast references, so aggregation is
// bit-identical to the single-process run. src/net/ implements this
// interface over TCP; everything above it is transport-agnostic.
//
// A method runs distributed by also implementing NetMethod: one symmetric
// function for its dispatch state and one for its upload payload. The
// channel captures the encoded messages at both ends (comm::CaptureScope),
// so a method carries no wire-format code of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/channel.hpp"

namespace fp::fed {

class RoundMethod;
struct TaskSpec;
struct Upload;

/// A method that can split a dispatch across processes (DESIGN.md §10).
/// serve_root/run_worker detect it with dynamic_cast.
class NetMethod {
 public:
  /// The dispatch state train_client reads. The root writes it once per
  /// dispatch after begin_dispatch (blobs as the broadcast messages
  /// begin_dispatch's downlinks encoded); a worker reads it in place of
  /// begin_dispatch before training its owned tasks.
  virtual void net_state(comm::StateIO& io) = 0;

  /// One upload's payload. A worker writes it after train_client (blobs as
  /// the messages its uplinks encoded); the root reads it, decoding against
  /// its own broadcast references, into what the fused uplink would have
  /// handed apply_update. The Upload's base fields travel separately.
  virtual void net_upload(Upload& up, comm::StateIO& io) = 0;

  /// Worker: method-specific auxiliary op (RemoteDispatcher::run_custom).
  /// The default rejects every op.
  virtual void net_custom_op(std::uint32_t op, comm::FrameReader& ctx,
                             std::size_t client, comm::FrameWriter& out);

 protected:
  ~NetMethod() = default;
};

class RemoteDispatcher {
 public:
  virtual ~RemoteDispatcher() = default;

  /// Runs m.begin_dispatch(tasks) with its downlinks captured and records
  /// the method's dispatch state for the groups that follow. A dispatch
  /// that reuses the previous snapshot (no downlink) ships the previous
  /// dispatch's messages.
  virtual void begin_dispatch(RoundMethod& m,
                              const std::vector<TaskSpec>& tasks) = 0;

  /// Ships tasks[begin, end) and the dispatch state to their owning
  /// workers (client k -> worker k % W: sticky ownership keeps each
  /// client's RNG stream and shuffling batch iterator advancing on exactly
  /// one worker, which is what makes distributed runs hash-match
  /// single-process), filling uploads[i - begin] for every i (payloads read back
  /// through NetMethod::net_upload). Returns the group's measured transfer
  /// seconds: group wall time minus the slowest worker's self-reported
  /// compute time — the number the modeled comm_s is checked against.
  /// Throws net::NetError when a worker disconnects or times out mid-group.
  virtual double run_group(RoundMethod& m, const std::vector<TaskSpec>& tasks,
                           std::size_t begin, std::size_t end,
                           std::vector<Upload>& uploads) = 0;

  /// Method-specific auxiliary fan-out (e.g. FedProphet's ||Delta z|| probe):
  /// ships (op, ctx) to the owners of `clients` — each owner runs
  /// NetMethod::net_custom_op per owned client — and returns one result
  /// frame per client, in the order of `clients`.
  virtual std::vector<std::vector<std::uint8_t>> run_custom(
      std::uint32_t op, const std::vector<std::uint8_t>& ctx,
      const std::vector<std::size_t>& clients) = 0;
};

}  // namespace fp::fed
