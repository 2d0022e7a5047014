#include "net/protocol.hpp"

namespace fp::net {

void write_task(const fed::TaskSpec& task, comm::FrameWriter& out) {
  out.i64(task.round);
  out.u64(static_cast<std::uint64_t>(task.slot));
  out.u64(static_cast<std::uint64_t>(task.client));
  out.f32(task.lr);
  out.f32(task.weight);
  out.u8(task.has_device ? 1 : 0);
  out.u64(static_cast<std::uint64_t>(task.device.pool_index));
  out.str(task.device.name);
  out.i64(task.device.avail_mem_bytes);
  out.f64(task.device.avail_flops);
  out.f64(task.device.io_bytes_per_s);
  out.f64(task.device.net_down_bytes_per_s);
  out.f64(task.device.net_up_bytes_per_s);
  out.f64(task.device.net_latency_s);
}

fed::TaskSpec read_task(comm::FrameReader& in) {
  fed::TaskSpec task;
  task.round = in.i64();
  task.slot = static_cast<std::size_t>(in.u64());
  task.client = static_cast<std::size_t>(in.u64());
  task.lr = in.f32();
  task.weight = in.f32();
  task.has_device = in.u8() != 0;
  task.device.pool_index = static_cast<std::size_t>(in.u64());
  task.device.name = in.str();
  task.device.avail_mem_bytes = in.i64();
  task.device.avail_flops = in.f64();
  task.device.io_bytes_per_s = in.f64();
  task.device.net_down_bytes_per_s = in.f64();
  task.device.net_up_bytes_per_s = in.f64();
  task.device.net_latency_s = in.f64();
  return task;
}

void write_upload_base(const fed::Upload& up, comm::FrameWriter& out) {
  out.u64(up.work.atom_begin);
  out.u64(up.work.atom_end);
  out.u8(up.work.with_aux ? 1 : 0);
  out.i64(up.work.pgd_steps);
  out.f64(up.work.mem_scale);
  out.f64(up.work.flops_scale);
  out.i64(up.work.planned_mem_bytes);
  out.i64(up.work.budget_mem_bytes);
  out.f64(up.work.recompute_fwd_frac);
  out.f32(up.weight);
  out.i64(up.bytes_down);
  out.i64(up.bytes_up);
  out.i64(up.peak_mem_bytes);
  out.u8(up.over_budget ? 1 : 0);
}

fed::Upload read_upload_base(comm::FrameReader& in) {
  fed::Upload up;
  up.work.atom_begin = in.u64();
  up.work.atom_end = in.u64();
  up.work.with_aux = in.u8() != 0;
  up.work.pgd_steps = static_cast<int>(in.i64());
  up.work.mem_scale = in.f64();
  up.work.flops_scale = in.f64();
  up.work.planned_mem_bytes = in.i64();
  up.work.budget_mem_bytes = in.i64();
  up.work.recompute_fwd_frac = in.f64();
  up.weight = in.f32();
  up.bytes_down = in.i64();
  up.bytes_up = in.i64();
  up.peak_mem_bytes = in.i64();
  up.over_budget = in.u8() != 0;
  return up;
}

}  // namespace fp::net
