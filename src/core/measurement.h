// Public value types of the noise-thermometer API.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/thermo_code.h"
#include "util/units.h"

namespace psnt::core {

// The sensor's one nominal supply (Sec. II, Fig. 1): the FFs, the control
// logic and the LOW-SENSE inverters sit on it, GND-bounce readings decode
// against it and the serving layer measures droop from it.
inline constexpr Volt kNominalSupply{1.0};

// 3-bit CP–P delay trim code (the paper's "Delay Code", Sec. III-B).
class DelayCode {
 public:
  static constexpr std::uint8_t kCount = 8;

  constexpr DelayCode() = default;
  constexpr explicit DelayCode(std::uint8_t value) : value_(value & 0x7) {}

  [[nodiscard]] constexpr std::uint8_t value() const { return value_; }
  [[nodiscard]] std::string to_string() const;  // "011"

  friend constexpr bool operator==(DelayCode a, DelayCode b) {
    return a.value_ == b.value_;
  }
  friend constexpr auto operator<=>(DelayCode a, DelayCode b) {
    return a.value_ <=> b.value_;
  }

 private:
  std::uint8_t value_ = 0;
};

// Which rail a measurement refers to.
enum class SenseTarget : std::uint8_t {
  kVdd,  // HIGH-SENSE array: inverter powered by VDD-n, nominal ground
  kGnd,  // LOW-SENSE array: inverter powered by nominal VDD, GND-n reference
};

// Voltage interval a thermometer word decodes to. Open ends (the all-zeros /
// all-ones words) have nullopt bounds: the value is beyond the measurable
// dynamic.
struct VoltageBin {
  std::optional<Volt> lo;
  std::optional<Volt> hi;

  [[nodiscard]] bool below_range() const { return !lo.has_value(); }
  [[nodiscard]] bool above_range() const { return !hi.has_value(); }
  [[nodiscard]] bool in_range() const { return lo && hi; }
  // Bin midpoint when closed; otherwise the single known edge.
  [[nodiscard]] Volt estimate() const;
  [[nodiscard]] std::string to_string() const;
};

// One completed PREPARE+SENSE measurement.
struct Measurement {
  Picoseconds timestamp{0.0};  // time of the SENSE sampling edge
  SenseTarget target = SenseTarget::kVdd;
  DelayCode code;
  ThermoWord word;
  VoltageBin bin;
};

// Wire-sized capture record: what the FF array latches (Fig. 6) before the
// ENC block runs. A site that ships RawSamples pays no per-sample encode or
// voltage conversion on its capture path — the downstream drain pass turns
// each one into a reading with one core::DecodeLadder read.
// `site_id`/`sample_index` are transport coordinates filled in by the
// consumer that schedules the capture (the scan grid, the scan chain);
// engines leave them zero.
struct RawSample {
  std::uint32_t site_id = 0;
  std::uint32_t sample_index = 0;
  Picoseconds timestamp{0.0};  // time of the SENSE sampling edge
  SenseTarget target = SenseTarget::kVdd;
  DelayCode code;
  ThermoWord word;
};

// Reassembles the legacy value type from its split halves. Bit-identical to
// a Measurement produced by an engine's own measure() when `bin` came from
// the same ladder the engine decodes with.
[[nodiscard]] Measurement assemble_measurement(const RawSample& raw,
                                               const VoltageBin& bin);

}  // namespace psnt::core
