#include "fed/history_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "exp/json.hpp"

namespace fp::fed {

bool write_history_csv(const std::string& path, const History& history) {
  std::string text =
      "round,clean_acc,adv_acc,sim_time_s,bytes_up,bytes_down,"
      "peak_mem_bytes,unique_participants,agg_bytes_saved,"
      "measured_comm_s,round_wall_s,extra\n";
  char row[512];
  for (const auto& rec : history) {
    std::snprintf(
        row, sizeof(row),
        "%lld,%.9g,%.9g,%.9g,%lld,%lld,%lld,%lld,%lld,%.9g,%.9g,%.9g\n",
        static_cast<long long>(rec.round), rec.clean_acc, rec.adv_acc,
        rec.sim_time_s, static_cast<long long>(rec.bytes_up),
        static_cast<long long>(rec.bytes_down),
        static_cast<long long>(rec.peak_mem_bytes),
        static_cast<long long>(rec.unique_participants),
        static_cast<long long>(rec.agg_bytes_saved), rec.measured_comm_s,
        rec.round_wall_s, rec.extra);
    text += row;
  }
  return exp::write_text_file(path, text);
}

std::string sanitize_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::string export_history_path(const std::string& method) {
  const char* dir = std::getenv("FP_BENCH_OUT");
  if (!dir || !dir[0]) return {};
  // Bench binaries train the same method several times (per workload, per
  // model size): number repeat runs instead of overwriting the trajectory.
  const std::string base = std::string(dir) + "/" + sanitize_filename(method);
  std::string path = base + ".csv";
  for (int i = 2; std::filesystem::exists(path) && i < 1000; ++i)
    path = base + "-" + std::to_string(i) + ".csv";
  return path;
}

}  // namespace fp::fed
