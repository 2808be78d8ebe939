#pragma once
// Battery model: joules to user-meaningful battery life.
//
// The paper reports joules; what a user feels is hours of video per charge.
// battery_hours_at converts a mean power draw into hours of continuous
// operation from a full charge of the LG Nexus 5X's 2700 mAh / 3.85 V pack
// used throughout the paper, derated by the OS cutoff and by a conversion
// efficiency for regulator/charger losses. The pack parameters are the named
// constants below, which no run varies.

namespace eacs::power {

// Battery pack parameters.
inline constexpr double kBatteryCapacityMah = 2700.0;  ///< LG Nexus 5X
inline constexpr double kBatteryNominalVoltage = 3.85;  ///< Li-ion nominal
/// OS cutoff before true empty.
inline constexpr double kBatteryUsableFraction = 0.95;
/// Regulator losses: joules drawn from the pack per joule consumed.
inline constexpr double kBatteryConversionEfficiency = 0.90;

/// Usable pack energy in joules (mAh * V = mWh; * 3.6 = joules).
inline constexpr double kBatteryUsableEnergyJ =
    kBatteryCapacityMah * kBatteryNominalVoltage * 3.6 * kBatteryUsableFraction *
    kBatteryConversionEfficiency;

/// Hours of continuous operation at `watts` from a full charge; 0 for a
/// non-positive draw.
double battery_hours_at(double watts) noexcept;

}  // namespace eacs::power
