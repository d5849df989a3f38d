// Four-value logic for the event simulator.
//
// L0/L1 are driven levels; X is unknown (uninitialised nets, metastable
// flop outputs); Z is undriven. Gate evaluation follows the usual strong
// Kleene tables: a controlling input forces the output regardless of X.
#pragma once

#include <cstdint>

namespace psnt::sim {

enum class Logic : std::uint8_t { L0 = 0, L1 = 1, X = 2, Z = 3 };

[[nodiscard]] constexpr char to_char(Logic v) {
  switch (v) {
    case Logic::L0:
      return '0';
    case Logic::L1:
      return '1';
    case Logic::X:
      return 'x';
    case Logic::Z:
      return 'z';
  }
  return '?';
}

[[nodiscard]] constexpr bool is_known(Logic v) {
  return v == Logic::L0 || v == Logic::L1;
}

[[nodiscard]] constexpr Logic from_bool(bool b) {
  return b ? Logic::L1 : Logic::L0;
}

// Z on a gate input reads as X (floating input).
[[nodiscard]] constexpr Logic normalize(Logic v) {
  return v == Logic::Z ? Logic::X : v;
}

[[nodiscard]] constexpr Logic logic_not(Logic a) {
  a = normalize(a);
  if (a == Logic::L0) return Logic::L1;
  if (a == Logic::L1) return Logic::L0;
  return Logic::X;
}

[[nodiscard]] constexpr Logic logic_and(Logic a, Logic b) {
  a = normalize(a);
  b = normalize(b);
  if (a == Logic::L0 || b == Logic::L0) return Logic::L0;
  if (a == Logic::L1 && b == Logic::L1) return Logic::L1;
  return Logic::X;
}

[[nodiscard]] constexpr Logic logic_or(Logic a, Logic b) {
  a = normalize(a);
  b = normalize(b);
  if (a == Logic::L1 || b == Logic::L1) return Logic::L1;
  if (a == Logic::L0 && b == Logic::L0) return Logic::L0;
  return Logic::X;
}

// 2:1 mux; select X yields X unless both data inputs agree.
[[nodiscard]] constexpr Logic logic_mux(Logic a, Logic b, Logic sel) {
  sel = normalize(sel);
  a = normalize(a);
  b = normalize(b);
  if (sel == Logic::L0) return a;
  if (sel == Logic::L1) return b;
  if (a == b && is_known(a)) return a;
  return Logic::X;
}

}  // namespace psnt::sim
