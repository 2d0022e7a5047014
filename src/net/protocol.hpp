// Message vocabulary of the root/worker protocol (DESIGN.md §10).
//
// Every frame body is a comm::FrameWriter stream. The round-trip is strictly
// request/response per worker:
//
//   worker -> root   kMsgHello        {version u32}
//   root -> worker   kMsgWelcome      {version u32, rank u32, workers u32,
//                                      resolved_spec_json str}
//   root -> worker   kMsgGroup        {state bytes, ntasks u32, tasks...}
//   worker -> root   kMsgGroupResult  {ntasks u32, compute_s f64,
//                                      per-task {upload base, payload} bytes}
//   root -> worker   kMsgCustom       {op u32, ctx bytes, n u32, clients u64...}
//   worker -> root   kMsgCustomResult {n u32, per-client result bytes...}
//   worker -> root   kMsgTrace        {obs::serialize_new_events stream}
//   root -> worker   kMsgShutdown     {}
//   either direction kMsgError        {message str}   then the sender closes
//
// kMsgTrace piggybacks on the group round-trip: when the resolved spec has
// obs.trace on, a worker ships its fresh span events right after every
// kMsgGroupResult and the root merges them into its own trace with a
// per-worker process lane (DESIGN.md §11). Both ends decide whether the
// extra frame exists from the SAME resolved spec (the root ships it in
// kMsgWelcome), so framing never desynchronizes.
//
// The dispatch state and each upload payload are written by the method's
// fed::NetMethod functions through a comm::StateIO: scalars as-is, blobs as
// the WireMessages the sender's channel captured.
#pragma once

#include <cstdint>

#include "comm/wire.hpp"
#include "fed/runtime/engine.hpp"

namespace fp::net {

constexpr std::uint32_t kProtocolVersion = 3;

enum MsgType : std::uint32_t {
  kMsgHello = 1,
  kMsgWelcome = 2,
  kMsgGroup = 3,
  kMsgGroupResult = 4,
  kMsgCustom = 5,
  kMsgCustomResult = 6,
  kMsgShutdown = 7,
  kMsgError = 8,
  kMsgTrace = 9,
};

/// TaskSpec serialization: the full dispatch decision including the sampled
/// device instance, so the worker's DMA / budget planning sees exactly what
/// the root's scheduler drew.
void write_task(const fed::TaskSpec& task, comm::FrameWriter& out);
fed::TaskSpec read_task(comm::FrameReader& in);

/// Everything in an Upload except the method's payload, in a fixed field
/// order (the payload follows, written by NetMethod::net_upload).
void write_upload_base(const fed::Upload& up, comm::FrameWriter& out);
fed::Upload read_upload_base(comm::FrameReader& in);

}  // namespace fp::net
