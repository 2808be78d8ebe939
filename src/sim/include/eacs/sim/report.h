#pragma once
// Result export: evaluation outcomes as CSV tables for external plotting
// (gnuplot/matplotlib/spreadsheets). Every figure bench prints ASCII; this
// module provides the same data machine-readably, plus the ASCII tables
// that more than one front end prints.

#include <filesystem>

#include "eacs/sim/cdn_fault_study.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/sensor_fault_study.h"
#include "eacs/util/csv.h"
#include "eacs/util/table.h"

namespace eacs::sim {

/// Per-(algorithm, session) rows: one line per SessionMetrics with every
/// field as a column.
eacs::CsvTable evaluation_to_csv(const EvaluationResult& result);

/// Sensor-fault study: degraded-context Ours per (scenario, intensity), with
/// its deltas against clean context and against the context-blind baseline.
eacs::AsciiTable sensor_fault_table(const SensorFaultStudyResult& result);

/// CDN fault study: one row per (family, intensity, source count), with the
/// deltas against the single-source retry-only cell and the failover, hedge
/// and circuit-breaker activity.
eacs::AsciiTable cdn_fault_table(const CdnFaultStudyResult& result);

/// Writes evaluation_to_csv(result) to `path` (throws std::runtime_error on
/// I/O failure).
void write_evaluation_csv(const std::filesystem::path& path,
                          const EvaluationResult& result);

}  // namespace eacs::sim
