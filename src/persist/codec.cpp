#include "persist/codec.h"

namespace smartstore::persist {

void write_file_meta(util::BinaryWriter& w, const metadata::FileMetadata& f) {
  w.write_u64(f.id);
  w.write_string(f.name);
  w.write_u32(static_cast<std::uint32_t>(metadata::kNumAttrs));
  w.write_f64_block(f.attrs.data(), f.attrs.size());
}

metadata::FileMetadata read_file_meta(util::BinaryReader& r) {
  metadata::FileMetadata f;
  f.id = r.read_u64();
  f.name = r.read_string();
  const std::uint32_t dims = r.read_u32();
  if (dims != metadata::kNumAttrs) {
    throw util::BinaryIoError("file record has " + std::to_string(dims) +
                              " attributes, schema expects " +
                              std::to_string(metadata::kNumAttrs));
  }
  for (std::size_t d = 0; d < metadata::kNumAttrs; ++d)
    f.attrs[d] = r.read_f64();
  return f;
}

void write_attr_subset(util::BinaryWriter& w, const metadata::AttrSubset& s) {
  w.write_u64(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    w.write_u32(static_cast<std::uint32_t>(s[i]));
}

metadata::AttrSubset read_attr_subset(util::BinaryReader& r) {
  const std::size_t n = static_cast<std::size_t>(
      r.read_u64_max(metadata::kNumAttrs, "attribute-subset size"));
  std::vector<metadata::Attr> attrs(n);
  for (auto& a : attrs) {
    const std::uint32_t v = r.read_u32();
    if (v >= metadata::kNumAttrs)
      throw util::BinaryIoError("attribute id out of schema range");
    a = static_cast<metadata::Attr>(v);
  }
  return metadata::AttrSubset(std::move(attrs));
}

}  // namespace smartstore::persist
