#include "scan/scan_chain.h"

#include "core/measure_engine.h"
#include "util/error.h"

namespace psnt::scan {

// The chain is the serial consumer of core::BehavioralEngine: every site
// measurement below is one count-1 capture (measure_raw) decoded on the
// site's own engine ladder, sample by sample in site order — the baseline
// the parallel grid's batched capture and drain decode are checked against.

PsnScanChain::PsnScanChain(const Floorplan& floorplan,
                           core::ThermometerConfig config)
    : floorplan_(floorplan), config_(config) {}

void PsnScanChain::attach_site(std::uint32_t site_id, analog::RailPair rails,
                               core::NoiseThermometer thermometer) {
  PSNT_CHECK(site_id < floorplan_.site_count(), "unknown site id");
  for (const auto& s : sites_) {
    PSNT_CHECK(s.id != site_id, "site already attached");
  }
  if (!sites_.empty()) {
    PSNT_CHECK(thermometer.high_sense().bits() ==
                   sites_.front().thermometer.high_sense().bits(),
               "all chain sites must share the array width");
  }
  sites_.push_back(Site{site_id, rails, std::move(thermometer),
                        core::ThermoWord{}});
}

std::size_t PsnScanChain::word_bits() const {
  PSNT_CHECK(!sites_.empty(), "no sites attached");
  return sites_.front().thermometer.high_sense().bits();
}

std::vector<core::RawSample> PsnScanChain::broadcast_capture(
    Picoseconds at, core::DelayCode code) {
  PSNT_CHECK(!sites_.empty(), "no sites attached");
  std::vector<core::RawSample> out;
  out.reserve(sites_.size());
  core::MeasureRequest req;
  req.start = at;
  req.target = core::SenseTarget::kVdd;
  req.code = code;
  for (auto& site : sites_) {
    core::RawSample raw = site.thermometer.engine().measure_raw(req, site.rails);
    raw.site_id = site.id;
    site.latched = raw.word;
    out.push_back(raw);
  }
  return out;
}

std::vector<SiteMeasurement> PsnScanChain::broadcast_measure(
    Picoseconds at, core::DelayCode code) {
  // Capture first (all sites), then one bulk decode pass. Each word decodes
  // against its own site's engine ladder, so per-site model differences are
  // honored.
  const auto raws = broadcast_capture(at, code);
  std::vector<SiteMeasurement> out;
  out.reserve(raws.size());
  for (std::size_t i = 0; i < raws.size(); ++i) {
    const core::RawSample& raw = raws[i];
    SiteMeasurement sm;
    sm.site_id = raw.site_id;
    sm.measurement = core::assemble_measurement(
        raw, sites_[i].thermometer.engine().decode(raw.word, raw.code));
    out.push_back(std::move(sm));
  }
  return out;
}

std::vector<bool> PsnScanChain::shift_out() const {
  PSNT_CHECK(!sites_.empty(), "no sites attached");
  std::vector<bool> bits;
  bits.reserve(sites_.size() * word_bits());
  for (const auto& site : sites_) {
    PSNT_CHECK(site.latched.width() == word_bits(),
               "site has no latched measurement");
    for (std::size_t b = 0; b < site.latched.width(); ++b) {
      bits.push_back(site.latched.bit(b));
    }
  }
  return bits;
}

std::size_t PsnScanChain::snapshot_cycles() const {
  // One measure transaction (shared control, all sites in parallel) plus the
  // serial shift of every latched bit.
  const std::size_t transaction = 6;
  return transaction + sites_.size() * word_bits();
}

std::vector<core::ThermoWord> PsnScanChain::deserialize(
    const std::vector<bool>& bits) const {
  const std::size_t width = word_bits();
  PSNT_CHECK(bits.size() == sites_.size() * width,
             "bitstream length does not match the chain");
  std::vector<core::ThermoWord> words;
  words.reserve(sites_.size());
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    core::ThermoWord w{0, width};
    for (std::size_t b = 0; b < width; ++b) {
      w.set_bit(b, bits[s * width + b]);
    }
    words.push_back(w);
  }
  return words;
}

}  // namespace psnt::scan
