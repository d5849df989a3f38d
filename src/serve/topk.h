// Top-K worst-droop tracker for the serving layer.
//
// Tracks, in O(log K) per update and fixed memory, the K sites whose worst
// observed droop (core::kNominalSupply − v_measured) is largest. Per-site worst droop
// is monotone non-decreasing — a site only ever droops *worse* — which makes
// the classic bounded min-heap exact (not approximate like space-saving over
// unbounded key sets): a site evicted from the heap can only re-enter by
// beating the current K-th worst, and per-site worsts are tracked exactly in
// a flat array sized by the (known, fixed) site count.
//
// Single writer; copy the tracker (or call top_into()) to read. The store
// publishes top_into() into its immutable snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psnt::serve {

class TopKDroop {
 public:
  struct Entry {
    std::uint32_t site = 0;
    double droop = 0.0;
  };

  TopKDroop(std::size_t site_count, std::size_t k);

  // Records `droop` for `site`; keeps the per-site maximum. Values may be
  // negative (overshoot) — they simply never displace a worse site.
  void update(std::uint32_t site, double droop);

  // The up-to-K worst sites, droop descending (ties: lower site id first),
  // written into `out` (reuses its capacity: allocation-free once `out` has
  // held K entries).
  void top_into(std::vector<Entry>& out) const;

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t site_count() const { return worst_.size(); }
  // Exact per-site worst droop; -inf when the site was never updated.
  [[nodiscard]] double worst(std::uint32_t site) const {
    return worst_[site];
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  [[nodiscard]] bool less(std::uint32_t a, std::uint32_t b) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, std::uint32_t site);

  std::size_t k_;
  std::vector<double> worst_;      // per-site max droop, -inf if unseen
  std::vector<std::uint32_t> heap_;  // min-heap of sites keyed by worst_
  std::vector<std::size_t> pos_;     // site -> heap index, kAbsent if out
};

}  // namespace psnt::serve
