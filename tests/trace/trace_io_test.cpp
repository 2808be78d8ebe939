// Round-trip tests for the CSV trace persistence layer. The load path must
// reproduce the saved series exactly — in particular duplicate-timestamp
// samples (step discontinuities, e.g. outage edges) must survive, and
// integrals across a step must match the in-memory original.

#include "eacs/trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace eacs::trace {
namespace {

TimeSeries series_with_step() {
  // 10 Mbps until t=2, a zero-width step down to 0, recovery step at t=4.
  TimeSeries series;
  series.append(0.0, 10.0);
  series.append(2.0, 10.0);
  series.append(2.0, 0.0);  // duplicate timestamp: outage edge
  series.append(4.0, 0.0);
  series.append(4.0, 10.0);  // duplicate timestamp: recovery edge
  series.append(6.0, 10.0);
  return series;
}

void expect_same_series(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).t_s, b.at(i).t_s) << "sample " << i;
    EXPECT_EQ(a.at(i).value, b.at(i).value) << "sample " << i;
  }
}

/// Unique temp path, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("eacs_trace_io_test_" + name)) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(TraceIoTest, TimeSeriesCsvRoundTripIsExact) {
  const TimeSeries original = series_with_step();
  const TimeSeries restored = time_series_from_csv(time_series_to_csv(original));
  expect_same_series(original, restored);
}

TEST(TraceIoTest, CsvPreservesDuplicateTimestampSteps) {
  const TimeSeries restored =
      time_series_from_csv(time_series_to_csv(series_with_step()));
  // The step discontinuities must still behave as steps: the last duplicate
  // wins at the shared instant.
  EXPECT_DOUBLE_EQ(restored.linear_at(1.9), 10.0);
  EXPECT_DOUBLE_EQ(restored.linear_at(2.0), 0.0);
  EXPECT_DOUBLE_EQ(restored.linear_at(3.9), 0.0);
  EXPECT_DOUBLE_EQ(restored.linear_at(4.0), 10.0);
}

TEST(TraceIoTest, IntegralAcrossStepSurvivesRoundTrip) {
  const TimeSeries original = series_with_step();
  const TimeSeries restored = time_series_from_csv(time_series_to_csv(original));
  // 10 Mbps for [0,2] and [4,6], zero during the outage: 40 Mbit total.
  EXPECT_NEAR(original.integral_over(0.0, 6.0), 40.0, 1e-9);
  EXPECT_EQ(restored.integral_over(0.0, 6.0), original.integral_over(0.0, 6.0));
  // A window that straddles one edge.
  EXPECT_EQ(restored.integral_over(1.0, 3.0), original.integral_over(1.0, 3.0));
  EXPECT_NEAR(restored.integral_over(1.0, 3.0), 10.0, 1e-9);
}

TEST(TraceIoTest, TimeSeriesFileRoundTrip) {
  const TempFile file("series.csv");
  const TimeSeries original = series_with_step();
  save_time_series(file.path(), original);
  expect_same_series(original, load_time_series(file.path()));
}

TEST(TraceIoTest, EmptySeriesRoundTrips) {
  const TimeSeries restored = time_series_from_csv(time_series_to_csv({}));
  EXPECT_TRUE(restored.empty());
}

TEST(TraceIoTest, AccelCsvRoundTripIsExact) {
  sensors::AccelTrace original;
  original.push_back({0.00, 0.1, -0.2, 9.81});
  original.push_back({0.02, 0.3, 0.4, 9.75});
  original.push_back({0.04, -1.5, 2.5, 10.25});
  const sensors::AccelTrace restored = accel_from_csv(accel_to_csv(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].t_s, original[i].t_s) << "sample " << i;
    EXPECT_EQ(restored[i].x, original[i].x) << "sample " << i;
    EXPECT_EQ(restored[i].y, original[i].y) << "sample " << i;
    EXPECT_EQ(restored[i].z, original[i].z) << "sample " << i;
  }
}

TEST(TraceIoTest, AccelFileRoundTrip) {
  const TempFile file("accel.csv");
  sensors::AccelTrace original;
  original.push_back({0.0, 0.0, 0.0, sensors::kGravity});
  original.push_back({0.1, 1.0, -1.0, sensors::kGravity + 2.0});
  save_accel(file.path(), original);
  const sensors::AccelTrace restored = load_accel(file.path());
  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored[1].z, original[1].z);
}

TEST(TraceIoTest, LoadMissingFileThrows) {
  const TempFile file("missing.csv");
  EXPECT_THROW(load_time_series(file.path()), std::runtime_error);
  EXPECT_THROW(load_accel(file.path()), std::runtime_error);
}

// -- Malformed input: every rejection must cite the offending file line
// (line 1 is the header, so CSV row r is line r + 2).

/// Runs `load` and returns the runtime_error message, failing if it doesn't
/// throw.
template <typename Fn>
std::string error_message(Fn&& load) {
  try {
    load();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected std::runtime_error";
  return {};
}

TEST(TraceIoTest, NanValueIsRejectedWithLineNumber) {
  const auto table = eacs::parse_csv("t_s,value\n0,1\n1,nan\n");
  const std::string message =
      error_message([&] { time_series_from_csv(table); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("value"), std::string::npos) << message;
}

TEST(TraceIoTest, InfTimestampIsRejectedWithLineNumber) {
  const auto table = eacs::parse_csv("t_s,value\n0,1\ninf,2\n");
  const std::string message =
      error_message([&] { time_series_from_csv(table); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("t_s"), std::string::npos) << message;
}

TEST(TraceIoTest, BackwardsTimestampIsRejectedWithLineNumber) {
  const auto table = eacs::parse_csv("t_s,value\n0,1\n5,2\n4.5,3\n");
  const std::string message =
      error_message([&] { time_series_from_csv(table); });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("backwards"), std::string::npos) << message;
}

TEST(TraceIoTest, DuplicateTimestampIsStillAccepted) {
  // Zero-width step edges are legitimate; only decreases are rejected.
  const auto table = eacs::parse_csv("t_s,value\n0,1\n2,1\n2,0\n");
  EXPECT_EQ(time_series_from_csv(table).size(), 3U);
}

TEST(TraceIoTest, NonNumericCellIsRejected) {
  const auto table = eacs::parse_csv("t_s,value\n0,fast\n");
  const std::string message =
      error_message([&] { time_series_from_csv(table); });
  EXPECT_NE(message.find("fast"), std::string::npos) << message;
}

TEST(TraceIoTest, AccelNanAxisIsRejectedWithLineNumber) {
  const auto table = eacs::parse_csv("t_s,x,y,z\n0,0,0,9.81\n0.02,0,nan,9.81\n");
  const std::string message = error_message([&] { accel_from_csv(table); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'y'"), std::string::npos) << message;
}

TEST(TraceIoTest, AccelBackwardsTimestampIsRejectedWithLineNumber) {
  const auto table =
      eacs::parse_csv("t_s,x,y,z\n0,0,0,9.81\n0.04,0,0,9.81\n0.02,0,0,9.81\n");
  const std::string message = error_message([&] { accel_from_csv(table); });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
}

TEST(TraceIoTest, MalformedFileLoadCitesLine) {
  const TempFile file("malformed.csv");
  {
    std::ofstream out(file.path());
    out << "t_s,value\n0,1\n1,inf\n";
  }
  const std::string message =
      error_message([&] { load_time_series(file.path()); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

}  // namespace
}  // namespace eacs::trace
