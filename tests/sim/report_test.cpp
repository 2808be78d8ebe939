#include "eacs/sim/report.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "../test_helpers.h"

namespace eacs::sim {
namespace {

EvaluationResult quick_result() {
  auto session = eacs::testing::make_session(60.0, 20.0, -95.0, 3.0);
  session.spec.id = 1;
  session.spec.length_s = 60.0;
  return Evaluation{}.run({session});
}

TEST(ReportTest, EvaluationCsvHasOneRowPerMetrics) {
  const auto result = quick_result();
  const auto table = evaluation_to_csv(result);
  EXPECT_EQ(table.num_rows(), result.rows.size());
  EXPECT_TRUE(table.has_column("total_energy_j"));
  // Round-trippable numerics.
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_GT(table.cell_as_double(row, "total_energy_j"), 0.0);
    EXPECT_GE(table.cell_as_double(row, "mean_qoe"), 1.0);
  }
}

TEST(ReportTest, FileWritersRoundTrip) {
  const auto result = quick_result();
  const auto eval_path =
      std::filesystem::temp_directory_path() / "eacs_eval_report.csv";
  write_evaluation_csv(eval_path, result);
  const auto eval_loaded = eacs::read_csv_file(eval_path);
  EXPECT_EQ(eval_loaded.num_rows(), result.rows.size());
  std::filesystem::remove(eval_path);
}

}  // namespace
}  // namespace eacs::sim
