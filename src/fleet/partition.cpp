#include "fleet/partition.h"

#include "util/error.h"

namespace psnt::fleet {

std::vector<std::vector<std::uint32_t>> PartitionPolicy::shard(
    std::size_t sites, std::size_t workers) const {
  PSNT_CHECK(workers > 0, "partition requires at least one worker");
  std::vector<std::vector<std::uint32_t>> out(workers);
  if (strategy == PartitionStrategy::kRoundRobin) {
    for (std::size_t s = 0; s < sites; ++s) {
      out[s % workers].push_back(static_cast<std::uint32_t>(s));
    }
    return out;
  }
  const std::size_t base = sites / workers;
  const std::size_t rem = sites % workers;
  std::uint32_t next = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t count = base + (w < rem ? 1 : 0);
    out[w].reserve(count);
    for (std::size_t i = 0; i < count; ++i) out[w].push_back(next++);
  }
  return out;
}

}  // namespace psnt::fleet
