#include "bartercast/codec.hpp"

#include <bit>
#include <cmath>
#include <type_traits>
#include <cstring>

#include "util/assert.hpp"

namespace bc::bartercast {

namespace {

constexpr std::size_t kHeaderSize = 1 + 1 + 4 + 8 + 2;
constexpr std::size_t kRecordSize = 4 + 4 + 8 + 8;

// Little-endian primitive writers/readers. std::memcpy keeps them free of
// alignment UB; on little-endian hosts the byte swap compiles away. encode()
// sizes its buffer once and put() fills it through a cursor, so there is no
// per-field capacity check (and no vector::insert for GCC 12's -O3
// -Wstringop-overflow to misjudge).
template <typename T>
void put(std::uint8_t*& at, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
      std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
    }
  }
  std::memcpy(at, bytes, sizeof(T));
  at += sizeof(T);
}

template <typename T>
bool get(std::span<const std::uint8_t>& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (in.size() < sizeof(T)) return false;
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, in.data(), sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
      std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
    }
  }
  std::memcpy(&value, bytes, sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

}  // namespace

std::size_t encoded_size(std::size_t records) {
  return kHeaderSize + records * kRecordSize;
}

std::vector<std::uint8_t> encode(const BarterCastMessage& message) {
  BC_ASSERT_MSG(message.records.size() <= kMaxRecords,
                "message exceeds the protocol record cap");
  std::vector<std::uint8_t> out(encoded_size(message.records.size()));
  std::uint8_t* at = out.data();
  put<std::uint8_t>(at, kWireMagic);
  put<std::uint8_t>(at, kWireVersion);
  put<std::uint32_t>(at, message.sender);
  put<double>(at, message.sent_at);
  put<std::uint16_t>(at, static_cast<std::uint16_t>(message.records.size()));
  for (const BarterRecord& r : message.records) {
    BC_ASSERT(r.subject_to_other >= 0 && r.other_to_subject >= 0);
    put<std::uint32_t>(at, r.subject);
    put<std::uint32_t>(at, r.other);
    put<std::uint64_t>(at, static_cast<std::uint64_t>(r.subject_to_other));
    put<std::uint64_t>(at, static_cast<std::uint64_t>(r.other_to_subject));
  }
  BC_DASSERT(at == out.data() + out.size());
  return out;
}

std::optional<BarterCastMessage> decode(std::span<const std::uint8_t> data) {
  std::uint8_t magic = 0, version = 0;
  if (!get(data, magic) || magic != kWireMagic) return std::nullopt;
  if (!get(data, version) || version != kWireVersion) return std::nullopt;

  BarterCastMessage msg;
  std::uint32_t sender = 0;
  if (!get(data, sender)) return std::nullopt;
  msg.sender = sender;
  if (!get(data, msg.sent_at)) return std::nullopt;
  // NaN/inf timestamps are malformed (they would poison time comparisons).
  if (std::isnan(msg.sent_at) ||
      msg.sent_at > 1e18 || msg.sent_at < -1e18) {
    return std::nullopt;
  }

  std::uint16_t count = 0;
  if (!get(data, count)) return std::nullopt;
  if (count > kMaxRecords) return std::nullopt;
  if (data.size() != static_cast<std::size_t>(count) * kRecordSize) {
    return std::nullopt;  // truncated or trailing garbage
  }
  msg.records.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    BarterRecord r;
    std::uint32_t subject = 0, other = 0;
    std::uint64_t ab = 0, ba = 0;
    if (!get(data, subject) || !get(data, other) || !get(data, ab) ||
        !get(data, ba)) {
      return std::nullopt;
    }
    // Amounts above 2^62 cannot be legitimate byte counts and would
    // overflow Bytes arithmetic downstream.
    constexpr std::uint64_t kMaxAmount = 1ULL << 62;
    if (ab > kMaxAmount || ba > kMaxAmount) return std::nullopt;
    r.subject = subject;
    r.other = other;
    r.subject_to_other = static_cast<Bytes>(ab);
    r.other_to_subject = static_cast<Bytes>(ba);
    msg.records.push_back(r);
  }
  return msg;
}

}  // namespace bc::bartercast
