// Strong value types shared by every module.
//
// The protocol measures time in slots (12 s) and epochs (32 slots) and
// measures stake in Gwei (1 ETH = 1e9 Gwei).  Using distinct wrapper types
// keeps slot/epoch/validator-index arguments from being swapped silently.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace leak {

/// Number of slots per epoch (Ethereum mainnet value).
inline constexpr std::uint64_t kSlotsPerEpoch = 32;
/// Seconds per slot (Ethereum mainnet value).
inline constexpr std::uint64_t kSecondsPerSlot = 12;
/// Gwei per ETH.
inline constexpr std::uint64_t kGweiPerEth = 1'000'000'000ULL;
/// Initial (and maximum effective) validator stake, in ETH.
inline constexpr double kInitialStakeEth = 32.0;

namespace detail {

/// CRTP base providing comparison and explicit raw access for an integral
/// wrapper.  Tag makes each instantiation a distinct type.
template <typename Tag, typename Rep = std::uint64_t>
class StrongId {
 public:
  using rep = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value_(v) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

 protected:
  Rep value_ = 0;
};

}  // namespace detail

/// A slot number (12-second interval).
class Slot : public detail::StrongId<Slot> {
 public:
  using StrongId::StrongId;
  [[nodiscard]] constexpr Slot next() const { return Slot{value_ + 1}; }
  [[nodiscard]] constexpr std::uint64_t epoch_number() const {
    return value_ / kSlotsPerEpoch;
  }
  /// True when this slot is the first slot of its epoch (checkpoint slot).
  [[nodiscard]] constexpr bool is_epoch_boundary() const {
    return value_ % kSlotsPerEpoch == 0;
  }
};

/// An epoch number (32 slots).
class Epoch : public detail::StrongId<Epoch> {
 public:
  using StrongId::StrongId;
  [[nodiscard]] constexpr Epoch next() const { return Epoch{value_ + 1}; }
  [[nodiscard]] constexpr Slot start_slot() const {
    return Slot{value_ * kSlotsPerEpoch};
  }
};

[[nodiscard]] constexpr Epoch epoch_of(Slot s) {
  return Epoch{s.epoch_number()};
}

/// Index of a validator in the registry.
class ValidatorIndex : public detail::StrongId<ValidatorIndex, std::uint32_t> {
 public:
  using StrongId::StrongId;
};

/// Stake amount in Gwei.  Arithmetic is saturating at zero on subtraction:
/// protocol balances never go negative.
class Gwei {
 public:
  constexpr Gwei() = default;
  constexpr explicit Gwei(std::uint64_t v) : value_(v) {}

  [[nodiscard]] static constexpr Gwei from_eth(double eth) {
    return Gwei{static_cast<std::uint64_t>(eth * static_cast<double>(kGweiPerEth))};
  }
  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr double eth() const {
    return static_cast<double>(value_) / static_cast<double>(kGweiPerEth);
  }

  friend constexpr auto operator<=>(Gwei, Gwei) = default;

  constexpr Gwei& operator+=(Gwei o) { value_ += o.value_; return *this; }
  constexpr Gwei& operator-=(Gwei o) {
    value_ = value_ >= o.value_ ? value_ - o.value_ : 0;
    return *this;
  }

 private:
  std::uint64_t value_ = 0;
};

/// Simulated wall-clock time in seconds (discrete-event simulator time).
using SimTime = double;

inline constexpr SimTime kSimTimeInfinity =
    std::numeric_limits<SimTime>::infinity();

[[nodiscard]] inline SimTime slot_start_time(Slot s) {
  return static_cast<SimTime>(s.value() * kSecondsPerSlot);
}

}  // namespace leak

template <>
struct std::hash<leak::ValidatorIndex> {
  std::size_t operator()(leak::ValidatorIndex v) const noexcept {
    return std::hash<std::uint32_t>{}(v.value());
  }
};
template <>
struct std::hash<leak::Slot> {
  std::size_t operator()(leak::Slot s) const noexcept {
    return std::hash<std::uint64_t>{}(s.value());
  }
};
template <>
struct std::hash<leak::Epoch> {
  std::size_t operator()(leak::Epoch e) const noexcept {
    return std::hash<std::uint64_t>{}(e.value());
  }
};
