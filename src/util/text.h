// Text helpers for the paths that build comparison keys and renderings:
// appends through std::to_chars (no stream, no locale) and dense ranking of
// strings by their sorted order.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

namespace syccl::util {

inline void append_part(std::string& out, std::string_view text) { out += text; }
inline void append_part(std::string& out, char c) { out += c; }
template <std::integral T>
void append_part(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends each part to `out`: text as it is, integers in decimal.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_part(out, parts), ...);
}

/// Sets ids[i] to the rank of keys[i] among the distinct keys in sorted
/// order (equal keys share a rank) and returns the number of distinct keys.
/// `order` is scratch space, reused across calls.
inline int dense_rank(const std::vector<std::string>& keys, std::vector<int>& order,
                      std::vector<int>& ids) {
  order.resize(keys.size());
  std::iota(order.begin(), order.end(), 0);
  const auto key = [&](std::size_t k) -> const std::string& {
    return keys[static_cast<std::size_t>(order[k])];
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return keys[static_cast<std::size_t>(a)] < keys[static_cast<std::size_t>(b)];
  });
  ids.resize(keys.size());
  int next = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && key(k) != key(k - 1)) ++next;
    ids[static_cast<std::size_t>(order[k])] = next;
  }
  return keys.empty() ? 0 : next + 1;
}

}  // namespace syccl::util
