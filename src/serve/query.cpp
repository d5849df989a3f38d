#include "serve/query.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace psnt::serve {

QueryEngine::QueryEngine(const TelemetryStore& store) : store_(store) {
  refresh();
}

void QueryEngine::refresh() { view_ = store_.snapshot(); }

std::uint64_t QueryEngine::published_seq() const {
  std::uint64_t seq = 0;
  for (const auto& shard : view_.shards) {
    if (shard) seq += shard->seq;
  }
  return seq;
}

const SiteSnapshot* QueryEngine::site(std::uint32_t site) const {
  const auto& config = store_.config();
  if (site >= config.site_count) return nullptr;
  const auto& shard = view_.shards[store_.shard_of(site)];
  if (!shard) return nullptr;  // shard has not published yet
  const std::size_t index = site / config.shards;
  if (index >= shard->sites.size()) return nullptr;
  return &shard->sites[index];
}

std::optional<SiteLatest> QueryEngine::latest(std::uint32_t site_id) const {
  const SiteSnapshot* s = site(site_id);
  if (s == nullptr || s->latest.seq == 0) return std::nullopt;
  return s->latest;
}

std::optional<WindowedStats> QueryEngine::windowed(std::uint32_t site_id,
                                                   std::size_t n) const {
  const SiteSnapshot* s = site(site_id);
  if (s == nullptr || s->latest_epoch == WindowSlot::kNoEpoch || n == 0) {
    return std::nullopt;
  }
  WindowedStats out;
  out.sketch = HistogramSketch{store_.config().window.sketch};
  out.latest_epoch = s->latest_epoch;
  n = std::min(n, s->windows.size());
  for (std::size_t back = 0; back < n; ++back) {
    if (back > s->latest_epoch) break;
    const std::uint64_t e = s->latest_epoch - back;
    const WindowSlot& slot = s->windows[e % s->windows.size()];
    if (slot.epoch != e || slot.stats.count() == 0) continue;  // gap/stale
    out.stats.merge(slot.stats);
    out.sketch.merge(slot.sketch);
    ++out.windows_live;
  }
  return out;
}

HistogramSketch QueryEngine::merged_sketch(bool voltage) const {
  HistogramSketch merged{voltage ? kVoltageSketch : kLatencySketch};
  for (const auto& shard : view_.shards) {
    if (shard) merged.merge(voltage ? shard->voltage : shard->latency);
  }
  return merged;
}

double QueryEngine::voltage_quantile(double q) const {
  return merged_sketch(true).quantile(q);
}

double QueryEngine::latency_quantile(double q) const {
  return merged_sketch(false).quantile(q);
}

stats::OnlineStats QueryEngine::voltage_stats() const {
  stats::OnlineStats merged;
  for (const auto& shard : view_.shards) {
    if (shard) merged.merge(shard->voltage_stats);
  }
  return merged;
}

stats::OnlineStats QueryEngine::latency_stats() const {
  stats::OnlineStats merged;
  for (const auto& shard : view_.shards) {
    if (shard) merged.merge(shard->latency_stats);
  }
  return merged;
}

std::vector<TopKDroop::Entry> QueryEngine::top_droop(std::size_t k) const {
  // Shards partition the site set, so the global top-k is a re-selection
  // over the union of the per-shard leaderboards.
  std::vector<TopKDroop::Entry> all;
  for (const auto& shard : view_.shards) {
    if (!shard) continue;
    all.insert(all.end(), shard->top_droop.begin(), shard->top_droop.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TopKDroop::Entry& a, const TopKDroop::Entry& b) {
              if (a.droop != b.droop) return a.droop > b.droop;
              return a.site < b.site;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

std::string QueryEngine::render_summary(std::size_t top_k) const {
  std::ostringstream os;
  char line[256];

  const auto vstats = voltage_stats();
  const auto lstats = latency_stats();
  std::snprintf(line, sizeof(line),
                "serve: %llu samples ingested (%llu published)\n",
                static_cast<unsigned long long>(ingested()),
                static_cast<unsigned long long>(published_seq()));
  os << line;
  if (vstats.count() > 0) {
    std::snprintf(line, sizeof(line),
                  "  vdd    mean=%.4f V  [%.4f, %.4f]  p1=%.4f  p50=%.4f  "
                  "p99=%.4f\n",
                  vstats.mean(), vstats.min(), vstats.max(),
                  voltage_quantile(0.01), voltage_quantile(0.50),
                  voltage_quantile(0.99));
    os << line;
  }
  if (lstats.count() > 0) {
    std::snprintf(line, sizeof(line),
                  "  lat_us mean=%.3f  p50=%.3f  p99=%.3f  max=%.3f\n",
                  lstats.mean(), latency_quantile(0.50),
                  latency_quantile(0.99), lstats.max());
    os << line;
  }

  const auto worst = top_droop(top_k);
  if (!worst.empty()) {
    os << "  worst droop sites:\n";
    for (const auto& entry : worst) {
      std::snprintf(line, sizeof(line), "    site %-3u  %+.1f mV\n",
                    entry.site, entry.droop * 1e3);
      os << line;
    }
  }

  const DegradationStatus deg = degradation();
  if (deg.faults_injected + deg.samples_lost + deg.retries +
          deg.sites_quarantined >
      0) {
    std::snprintf(line, sizeof(line),
                  "  degraded: %llu faults, %llu retries, %llu recovered, "
                  "%llu lost, %llu quarantined\n",
                  static_cast<unsigned long long>(deg.faults_injected),
                  static_cast<unsigned long long>(deg.retries),
                  static_cast<unsigned long long>(deg.samples_recovered),
                  static_cast<unsigned long long>(deg.samples_lost),
                  static_cast<unsigned long long>(deg.sites_quarantined));
    os << line;
  } else {
    os << "  degraded: none\n";
  }
  return os.str();
}

}  // namespace psnt::serve
