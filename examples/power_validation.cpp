// Power-model validation: the paper's Table VI methodology against the
// simulated Monsoon power monitor.
//
// Streams a 300 s test clip at each Table II bitrate under a -90 dBm signal,
// integrates the (simulated) measured power trace, and compares it with the
// analytic model's prediction.
//
//   ./examples/power_validation

#include <cstdio>

#include "eacs/power/validation.h"
#include "eacs/util/table.h"

int main() {
  using namespace eacs;
  using namespace eacs::power;

  const PowerModel model;

  std::printf("Validating the power model against the simulated Monsoon monitor\n"
              "(%.0f s clip at %.0f dBm, %.0f kHz sampling)...\n\n",
              kValidationVideoDurationS, kValidationSignalDbm,
              MonsoonConfig{}.sample_rate_hz / 1000.0);

  const auto rows = validate_power_model(model, media::BitrateLadder::table2());

  AsciiTable table("Power model validation (paper Table VI)");
  table.set_header({"bitrate (Mbps)", "measured (J)", "calculated (J)", "error"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {  // paper lists high->low
    table.add_row({AsciiTable::num(it->bitrate_mbps, 3),
                   AsciiTable::num(it->measured_j, 2),
                   AsciiTable::num(it->calculated_j, 2),
                   AsciiTable::percent(it->error_ratio, 2)});
  }
  table.print();

  std::printf("\nMean error ratio: %.2f%% (paper reports 1.43%%, always < 3%%)\n",
              mean_error_ratio(rows) * 100.0);
  return 0;
}
