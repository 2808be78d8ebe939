#include "eacs/power/battery.h"

namespace eacs::power {

double battery_hours_at(double watts) noexcept {
  if (watts <= 0.0) return 0.0;
  return kBatteryUsableEnergyJ / watts / 3600.0;
}

}  // namespace eacs::power
