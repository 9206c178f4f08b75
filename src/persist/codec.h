// Shared wire codecs for the persistence layer: the FileMetadata record
// encoding is the unit both the snapshot UNITS section and every WAL insert
// record speak, so it lives here rather than in either format; the
// AttrSubset encoding (the snapshot VARIANTS section's) sits beside it.
#pragma once

#include "metadata/file_metadata.h"
#include "metadata/schema.h"
#include "util/binary_io.h"

namespace smartstore::persist {

void write_file_meta(util::BinaryWriter& w, const metadata::FileMetadata& f);

/// Bounds-checked decode; throws util::BinaryIoError on truncation or an
/// attribute-dimension mismatch against the compiled-in schema.
metadata::FileMetadata read_file_meta(util::BinaryReader& r);

void write_attr_subset(util::BinaryWriter& w, const metadata::AttrSubset& s);

/// Bounds-checked decode; throws util::BinaryIoError on an attribute id
/// outside the compiled-in schema or an implausible subset size.
metadata::AttrSubset read_attr_subset(util::BinaryReader& r);

}  // namespace smartstore::persist
