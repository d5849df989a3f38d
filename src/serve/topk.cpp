#include "serve/topk.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace psnt::serve {

TopKDroop::TopKDroop(std::size_t site_count, std::size_t k)
    : k_(k),
      worst_(site_count, -std::numeric_limits<double>::infinity()),
      pos_(site_count, kAbsent) {
  PSNT_CHECK(site_count > 0, "top-K tracker needs at least one site");
  PSNT_CHECK(k > 0, "top-K tracker needs k >= 1");
  heap_.reserve(std::min(k, site_count));
}

bool TopKDroop::less(std::uint32_t a, std::uint32_t b) const {
  // Min-heap order on droop; ties broken toward evicting the higher site id
  // first so top() ordering is deterministic.
  if (worst_[a] != worst_[b]) return worst_[a] < worst_[b];
  return a > b;
}

void TopKDroop::place(std::size_t i, std::uint32_t site) {
  heap_[i] = site;
  pos_[site] = i;
}

void TopKDroop::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(heap_[i], heap_[parent])) break;
    const std::uint32_t a = heap_[i];
    const std::uint32_t b = heap_[parent];
    place(parent, a);
    place(i, b);
    i = parent;
  }
}

void TopKDroop::sift_down(std::size_t i) {
  for (;;) {
    std::size_t smallest = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < heap_.size() && less(heap_[left], heap_[smallest])) {
      smallest = left;
    }
    if (right < heap_.size() && less(heap_[right], heap_[smallest])) {
      smallest = right;
    }
    if (smallest == i) return;
    const std::uint32_t a = heap_[i];
    const std::uint32_t b = heap_[smallest];
    place(smallest, a);
    place(i, b);
    i = smallest;
  }
}

void TopKDroop::update(std::uint32_t site, double droop) {
  PSNT_CHECK(site < worst_.size(), "top-K site id out of range");
  if (droop <= worst_[site]) return;  // per-site worst is monotone
  worst_[site] = droop;

  const std::size_t at = pos_[site];
  if (at != kAbsent) {
    // Key increased in a min-heap: the entry can only move down.
    sift_down(at);
    return;
  }
  if (heap_.size() < k_) {
    heap_.push_back(site);
    pos_[site] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
    return;
  }
  // Full heap: displace the current K-th worst only if strictly beaten.
  if (!less(heap_[0], site)) return;
  pos_[heap_[0]] = kAbsent;
  place(0, site);
  sift_down(0);
}

std::vector<TopKDroop::Entry> TopKDroop::top() const {
  std::vector<Entry> out;
  out.reserve(heap_.size());
  top_into(out);
  return out;
}

void TopKDroop::top_into(std::vector<Entry>& out) const {
  out.clear();
  for (const std::uint32_t site : heap_) {
    out.push_back(Entry{site, worst_[site]});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.droop != b.droop) return a.droop > b.droop;
    return a.site < b.site;
  });
}

void TopKDroop::reset() {
  std::fill(worst_.begin(), worst_.end(),
            -std::numeric_limits<double>::infinity());
  std::fill(pos_.begin(), pos_.end(), kAbsent);
  heap_.clear();
}

}  // namespace psnt::serve
