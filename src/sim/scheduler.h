// Discrete-event scheduler: bucketed time wheel + overflow heap over an
// arena of intrusive event nodes.
//
// The original implementation was a std::priority_queue of events each
// holding a type-erased std::function — one heap allocation per scheduled
// closure plus O(log n) comparisons per push/pop. At scan-grid scale the
// structural simulator executes ~1000 events per measurement, so that
// allocation and comparison traffic dominated wall-clock (DESIGN.md §9).
//
// This version is allocation-free in steady state:
//
//  * Events are intrusive nodes drawn from a free-list arena (chunked, never
//    shrinks); a retired node is recycled on the next schedule call.
//  * The callback is a SmallFn with a 48-byte inline buffer — every closure
//    the simulator itself schedules fits inline; oversized user callables
//    spill to the heap and are counted (`heap_callbacks()`).
//  * Near-future events (within kWheelBuckets × kBucketGrainFs ≈ 8.4 ns of
//    the wheel window start) go into a bucketed time wheel: insertion keeps
//    each bucket's short list sorted by (time, seq), so the head of the
//    first occupied bucket is the wheel's minimum. An occupancy bitmap makes
//    "first occupied bucket" a few word scans.
//  * Far-future events fall back to a (time, seq)-ordered overflow heap of
//    node pointers. When the wheel drains, the window is re-based at now()
//    and the overflow's near slice migrates into the wheel.
//
// Ordering semantics are unchanged and deterministic: events run in (time,
// insertion-sequence) order, so same-timestamp events preserve FIFO order —
// the delta-cycle guarantee every netlist in the repo relies on.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/sim_time.h"
#include "sim/small_fn.h"

namespace psnt::sim {

class Scheduler {
 public:
  using Action = SmallFn<void(), 48>;

  // Wheel geometry. Grain is a power of two so bucket indexing is a shift;
  // 2^12 fs ≈ 4.1 ps per bucket × 2048 buckets ≈ 8.4 ns of horizon — several
  // control-clock periods, so steady-state netlist activity never touches
  // the overflow heap.
  static constexpr int kBucketGrainBits = 12;
  static constexpr SimTime kBucketGrainFs = SimTime{1} << kBucketGrainBits;
  static constexpr std::size_t kWheelBuckets = 2048;  // power of two
  static constexpr SimTime wheel_horizon() {
    return static_cast<SimTime>(kWheelBuckets) * kBucketGrainFs;
  }

  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Schedules `action` at absolute time `t` (>= now).
  void schedule_at(SimTime t, Action action);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const {
    return wheel_count_ == 0 && overflow_.empty();
  }
  [[nodiscard]] std::size_t pending() const {
    return wheel_count_ + overflow_.size();
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  // --- introspection (tests, telemetry) --------------------------------
  // Events currently parked in the far-future overflow heap.
  [[nodiscard]] std::size_t overflow_pending() const {
    return overflow_.size();
  }
  // Arena chunk allocations so far (each chunk holds kChunkNodes nodes);
  // stops growing once the high-water mark of in-flight events is reached.
  [[nodiscard]] std::uint64_t arena_allocations() const {
    return arena_allocations_;
  }
  // Scheduled callables too large for the SmallFn inline buffer.
  [[nodiscard]] std::uint64_t heap_callbacks() const {
    return heap_callbacks_;
  }
  // Total heap allocations attributable to the scheduler: arena growth plus
  // oversized-callable spills. Zero per event in steady state.
  [[nodiscard]] std::uint64_t allocation_count() const {
    return arena_allocations_ + heap_callbacks_;
  }

  // Runs events until the queue is empty or `t_end` is passed; `now()` ends
  // at t_end when t_end is beyond the last event. Events exactly at t_end
  // execute.
  void run_until(SimTime t_end);

 private:
  struct Node {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Node* next = nullptr;
    Action action;
  };
  struct OverflowLater {
    bool operator()(const Node* a, const Node* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  static constexpr std::size_t kChunkNodes = 256;
  static constexpr std::size_t kBitmapWords = kWheelBuckets / 64;

  Node* alloc_node();
  void free_node(Node* n);
  void insert(Node* n);
  void wheel_insert(Node* n);
  // Re-bases the wheel window at now() and migrates the overflow's
  // near-future slice in. Only called when the wheel is empty.
  void refill_wheel_from_overflow();
  // Minimum pending node (wheel head vs overflow top); nullptr when idle.
  [[nodiscard]] Node* peek_min();
  // Detaches `n` (which must be the current minimum) from its container.
  void detach_min(Node* n);
  [[nodiscard]] std::size_t first_occupied_bucket() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  // Wheel: bucket index = (time >> kBucketGrainBits) & (kWheelBuckets - 1),
  // valid because all wheel events live within one window
  // [wheel_base_, wheel_base_ + horizon). Each bucket keeps its chain sorted
  // by (time, seq); the tail pointer makes the dominant case — appending a
  // not-earlier event, which includes every same-time fanout wave because
  // seq is monotone — O(1) instead of a chain walk.
  std::vector<Node*> buckets_;
  std::vector<Node*> bucket_tails_;
  std::uint64_t bitmap_[kBitmapWords] = {};
  SimTime wheel_base_ = 0;  // window start, multiple of kBucketGrainFs
  std::size_t wheel_count_ = 0;

  std::priority_queue<Node*, std::vector<Node*>, OverflowLater> overflow_;

  // Free-list arena.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_list_ = nullptr;
  std::uint64_t arena_allocations_ = 0;
  std::uint64_t heap_callbacks_ = 0;
};

}  // namespace psnt::sim
