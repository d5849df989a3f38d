// Static site-partitioning policy for the scan fleet.
//
// How the coordinator shards floorplan sites across worker processes. A
// policy object (not a branch at the call sites) so the assignment scheme is
// a construction parameter of the fleet, the same way engine fidelity is a
// construction parameter of a grid site. Both strategies are *static*: the
// full assignment is computed once, before any worker forks, which is what
// makes a restarted spare able to reproduce a dead worker's exact workload
// from nothing but the logical worker index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psnt::fleet {

enum class PartitionStrategy : std::uint8_t {
  // Contiguous site blocks, remainder spread over the leading workers:
  // preserves floorplan locality (neighbouring sites share a worker's
  // engine caches) — the default.
  kBlocked,
  // site % workers: evens out per-site cost skews at the price of locality.
  kRoundRobin,
};

struct PartitionPolicy {
  PartitionStrategy strategy = PartitionStrategy::kBlocked;

  // Assigns `sites` site indices across `workers` shards. Every site appears
  // exactly once; shard sizes differ by at most one. workers must be > 0.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> shard(
      std::size_t sites, std::size_t workers) const;
};

}  // namespace psnt::fleet
