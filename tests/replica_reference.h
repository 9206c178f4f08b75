// Reference definitions of a GroupReplica's effective views: the plain
// walks over base() and versions() that the replica's derived state
// stands for. Tests check the replica against them bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/units.h"

namespace smartstore::core::reference {

inline rtree::Mbr effective_box(const GroupReplica& r, bool with_versions) {
  rtree::Mbr b = r.base().box;
  if (with_versions) {
    for (const auto& v : r.versions()) b.expand(v.added_box);
  }
  return b;
}

inline la::Vector effective_centroid(const GroupReplica& r,
                                     bool with_versions) {
  if (!with_versions || r.versions().empty()) return r.base().centroid_raw;
  la::Vector sum = r.base().attr_sum;
  std::size_t count = r.base().file_count;
  for (const auto& v : r.versions()) {
    if (v.added_count == 0) continue;
    for (std::size_t d = 0; d < sum.size(); ++d) sum[d] += v.added_attr_sum[d];
    count += v.added_count;
  }
  if (count == 0) return r.base().centroid_raw;
  for (auto& x : sum) x /= static_cast<double>(count);
  return sum;
}

inline bool name_may_contain(const GroupReplica& r, const bloom::ItemHash& h,
                             bool with_versions) {
  if (with_versions) {
    for (auto it = r.versions().rbegin(); it != r.versions().rend(); ++it) {
      for (const bloom::ItemHash& added : it->added_names)
        if (added == h) return true;
    }
  }
  return r.base().name_filter.may_contain(h);
}

/// The union the store's group bank holds for `r`: the base filter with
/// the bits of every sealed digest set.
inline bloom::BloomFilter union_filter(const GroupReplica& r) {
  bloom::BloomFilter all = r.base().name_filter;
  for (const auto& v : r.versions())
    for (const bloom::ItemHash& h : v.added_names) all.insert(h);
  return all;
}

inline bool same_bits(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline bool same_bits(const rtree::Mbr& a, const rtree::Mbr& b) {
  return a.valid() == b.valid() && same_bits(a.lo(), b.lo()) &&
         same_bits(a.hi(), b.hi());
}

/// Every derived view of `r`, with and without versions, equals its
/// reference walk; `probes` are the name digests to look up. With a
/// `bank`, its member `column` holds r's union, and the store's two-step
/// lookup (the unlocked bank probe, then the exact check only on "maybe")
/// answers as the walk does.
inline ::testing::AssertionResult matches(
    const GroupReplica& r, const std::vector<bloom::ItemHash>& probes,
    const bloom::BitSlicedBank* bank = nullptr, std::size_t column = 0) {
  if (!(r.union_filter() == union_filter(r)))
    return ::testing::AssertionFailure() << "union filter";
  if (bank && !(bank->member(column) == union_filter(r)))
    return ::testing::AssertionFailure() << "bank member " << column;
  for (const bool with : {false, true}) {
    if (!same_bits(r.effective_box(with), effective_box(r, with)))
      return ::testing::AssertionFailure() << "box, with_versions=" << with;
    if (!same_bits(r.effective_centroid(with), effective_centroid(r, with)))
      return ::testing::AssertionFailure()
             << "centroid, with_versions=" << with;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const bool want = name_may_contain(r, probes[i], with);
      if (r.name_may_contain(probes[i], with) != want)
        return ::testing::AssertionFailure()
               << "probe " << i << ", with_versions=" << with;
      if (bank) {
        bool admitted = false;
        bank->for_each_match(probes[i],
                             [&](std::size_t m) { admitted |= m == column; });
        if ((admitted && r.confirm_name(probes[i], with)) != want)
          return ::testing::AssertionFailure()
                 << "bank probe " << i << ", with_versions=" << with;
      }
    }
  }
  if (r.version_count() != r.versions().size())
    return ::testing::AssertionFailure() << "version count";
  return ::testing::AssertionSuccess();
}

}  // namespace smartstore::core::reference
