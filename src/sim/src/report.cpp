#include "eacs/sim/report.h"

namespace eacs::sim {

eacs::CsvTable evaluation_to_csv(const EvaluationResult& result) {
  eacs::CsvTable table({"algorithm", "session_id", "total_energy_j", "base_energy_j",
                        "extra_energy_j", "mean_qoe", "mean_bitrate_mbps",
                        "downloaded_mb", "rebuffer_s", "rebuffer_events",
                        "switch_count", "startup_delay_s"});
  for (const auto& row : result.rows) {
    table.add_row({row.algorithm, std::to_string(row.session_id),
                   eacs::format_double(row.total_energy_j),
                   eacs::format_double(row.base_energy_j),
                   eacs::format_double(row.extra_energy_j),
                   eacs::format_double(row.mean_qoe),
                   eacs::format_double(row.mean_bitrate_mbps),
                   eacs::format_double(row.downloaded_mb),
                   eacs::format_double(row.rebuffer_s),
                   std::to_string(row.rebuffer_events),
                   std::to_string(row.switch_count),
                   eacs::format_double(row.startup_delay_s)});
  }
  return table;
}

eacs::AsciiTable sensor_fault_table(const SensorFaultStudyResult& result) {
  AsciiTable table("Degraded-context Ours vs. clean context and context-blind");
  table.set_header({"fault", "intensity", "QoE", "QoE d clean", "QoE d blind",
                    "energy d J", "rebuffer d s", "ctx err"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});
  for (const auto& cell : result.cells) {
    table.add_row({to_string(cell.scenario), AsciiTable::num(cell.intensity, 2),
                   AsciiTable::num(cell.mean_qoe, 3),
                   AsciiTable::num(cell.qoe_delta_vs_clean, 3),
                   AsciiTable::num(cell.qoe_delta_vs_blind, 3),
                   AsciiTable::num(cell.energy_delta_vs_clean_j, 1),
                   AsciiTable::num(cell.rebuffer_delta_vs_clean_s, 1),
                   AsciiTable::num(cell.mean_context_error, 2)});
  }
  return table;
}

eacs::AsciiTable cdn_fault_table(const CdnFaultStudyResult& result) {
  AsciiTable table(
      "Delivery robustness vs. the single-source retry-only baseline");
  table.set_header({"fault", "intensity", "srcs", "QoE", "rebuffer s",
                    "QoE d single", "rebuf d single", "waste J", "failovers",
                    "hedges", "breaker"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});
  for (const auto& cell : result.cells) {
    table.add_row({to_string(cell.family), AsciiTable::num(cell.intensity, 2),
                   std::to_string(cell.sources),
                   AsciiTable::num(cell.mean_qoe, 3),
                   AsciiTable::num(cell.rebuffer_s, 1),
                   AsciiTable::num(cell.qoe_delta_vs_single, 3),
                   AsciiTable::num(cell.rebuffer_delta_vs_single_s, 1),
                   AsciiTable::num(cell.wasted_energy_j, 1),
                   std::to_string(cell.failovers), std::to_string(cell.hedges),
                   std::to_string(cell.breaker_transitions)});
  }
  return table;
}

void write_evaluation_csv(const std::filesystem::path& path,
                          const EvaluationResult& result) {
  eacs::write_csv_file(path, evaluation_to_csv(result));
}

}  // namespace eacs::sim
