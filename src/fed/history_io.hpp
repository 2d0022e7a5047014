// History exporter: accuracy / simulated-time trajectories as CSV, so bench
// runs can be diffed across commits instead of scraped from stdout.
#pragma once

#include <string>

#include "fed/config.hpp"

namespace fp::fed {

/// Writes `round,clean_acc,adv_acc,sim_time_s,bytes_up,bytes_down,
/// peak_mem_bytes,unique_participants,agg_bytes_saved,measured_comm_s,extra`
/// rows (with a header); the byte columns are cumulative wire traffic,
/// peak_mem_bytes the max measured client training peak so far (0 unless the
/// mem subsystem's measurement is on), unique_participants the distinct
/// clients applied so far, agg_bytes_saved the cumulative backbone bytes
/// absorbed by edge aggregators (0 when aggregation is flat), and
/// measured_comm_s the cumulative real-clock transfer seconds of a
/// distributed root run (0 single-process) next to the modeled comm time
/// inside sim_time_s.
/// Creates parent directories as needed. Returns false on I/O failure.
bool write_history_csv(const std::string& path, const History& history);

/// Replaces everything outside [A-Za-z0-9._-] with '_' (method -> filename).
std::string sanitize_filename(const std::string& name);

/// The path an FP_BENCH_OUT export of `method` would use right now:
/// `<FP_BENCH_OUT>/<sanitized method>.csv`, with a `-2`, `-3`, ... suffix
/// when earlier runs of the same method already exported. Returns "" when
/// FP_BENCH_OUT is unset. The single FP_BENCH_OUT entry point is
/// exp::export_run_artifacts, which derives the trajectory CSV and the
/// sibling resolved-spec JSON names from this.
std::string export_history_path(const std::string& method);

}  // namespace fp::fed
