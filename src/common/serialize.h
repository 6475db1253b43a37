// POD framing helpers shared by the params and model-image serializers,
// plus the BinaryRecord zero-parse wire format for prediction inputs.
#ifndef PRETZEL_COMMON_SERIALIZE_H_
#define PRETZEL_COMMON_SERIALIZE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fault.h"
#include "src/common/status.h"

namespace pretzel {

// The one sanctioned way to reinterpret wire bytes as typed words. Asserts
// the alignment precondition that makes the in-place load defined — the
// same property UBSan's -fsanitize=alignment checks on every dereference —
// so a misaligned slice trips immediately in debug/sanitizer builds instead
// of faulting (or silently degrading) on a stricter target.
// tools/lint_invariants.py rejects reinterpret_casts in the serialize and
// kernel alias paths that bypass this helper.
template <typename T>
inline const T* AlignedAliasCast(const char* p) {
  assert(reinterpret_cast<uintptr_t>(p) % alignof(T) == 0 &&  // alias-ok: helper
         "misaligned alias cast: stage through a memcpy copy instead");
  return reinterpret_cast<const T*>(p);  // alias-ok: alignment asserted above
}

template <typename T>
inline void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Advances *p past the value on success; leaves it untouched on truncation.
template <typename T>
inline bool ReadPod(const char** p, const char* end, T* out) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) {
    return false;
  }
  std::memcpy(out, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

// ---------------------------------------------------------------------------
// BinaryRecord: the zero-parse prediction-input wire format. A record is a
// 16-byte little-endian header followed by a raw payload:
//
//   offset  size  field
//        0     4  magic      0x525A50F5 ({0xF5,'P','Z','R'} on the wire; the
//                            lead byte is never valid ASCII/UTF-8 text, so
//                            text and binary inputs share one entry point)
//        4     1  format     1 = dense float32, 2 = sparse id/value pairs
//        5     1  flags      bit 0: record is valid (validity bit); all
//                            other bits must be zero
//        6     2  reserved   must be zero
//        8     4  dim        dense: float count; sparse: feature-space dim
//       12     4  nnz        dense: == dim; sparse: id/value pair count
//
// Dense payload: dim float32 values. Sparse payload: nnz uint32 ids
// (strictly ascending, each < dim) followed by nnz float32 values. All
// fields and payload words are little-endian.
//
// The header is 16 bytes so a record that starts on an aligned boundary has
// a 4-byte-aligned payload; ParseBinaryRecord reports (rather than assumes)
// payload alignment, and consumers fall back to a memcpy staging copy for
// records sliced at odd offsets out of a larger buffer. Validation is
// bounded by the buffer length everywhere — a truncated, oversized, or
// corrupt record is rejected without reading past the input span — and
// payload floats are checked finite (NaN/Inf rejected) by bit pattern, so
// a validated record feeds the kernels with no per-field conversion.

inline constexpr uint32_t kBinaryRecordMagic = 0x525A50F5u;
inline constexpr uint8_t kBinaryRecordFlagValid = 0x01;
// Defensive cap: keeps dim/nnz arithmetic far from size_t overflow and
// rejects absurd headers before any payload walk.
inline constexpr uint32_t kBinaryRecordMaxDim = 1u << 24;

enum class BinaryRecordFormat : uint8_t { kDense = 1, kSparse = 2 };

// Which wire encoding a generator or bench driver emits.
enum class WireFormat { kText, kBinary };

struct BinaryRecordHeader {
  uint32_t magic = kBinaryRecordMagic;
  uint8_t format = 0;
  uint8_t flags = 0;
  uint16_t reserved = 0;
  uint32_t dim = 0;
  uint32_t nnz = 0;
};
static_assert(sizeof(BinaryRecordHeader) == 16,
              "wire header must stay 16 bytes (payload alignment)");

// Validated zero-copy view of one record. `values`/`ids` alias the wire
// bytes when `aligned` is true; otherwise they are null and the consumer
// must stage the payload through CopyDenseValues/CopySparsePayload.
struct BinaryRecordView {
  BinaryRecordFormat format = BinaryRecordFormat::kDense;
  bool valid = false;    // The header validity bit.
  bool aligned = false;  // Payload pointers usable in place.
  uint32_t dim = 0;
  uint32_t nnz = 0;
  const float* values = nullptr;  // dim (dense) or nnz (sparse) floats.
  const uint32_t* ids = nullptr;  // nnz sorted ids (sparse only).
  const char* payload = nullptr;  // Raw payload bytes (any alignment).
  size_t record_size = 0;         // Header + payload, for buffer walking.
};

// Wire bytes as the std::string_view every record entry point takes: a
// record is a view of its bytes at every layer, text and binary alike.
inline std::string_view WireView(std::span<const uint8_t> bytes) {
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}

// True when the buffer leads with the wire magic — the cheap text/binary
// fork every input entry point takes before any validation.
inline bool IsBinaryRecord(std::string_view bytes) {
  uint32_t magic;
  if (bytes.size() < sizeof(magic)) {
    return false;
  }
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic == kBinaryRecordMagic;
}

inline void AppendDenseRecord(std::string* out, const float* values,
                              size_t dim, bool valid = true) {
  BinaryRecordHeader header;
  header.format = static_cast<uint8_t>(BinaryRecordFormat::kDense);
  header.flags = valid ? kBinaryRecordFlagValid : 0;
  header.dim = static_cast<uint32_t>(dim);
  header.nnz = static_cast<uint32_t>(dim);
  AppendPod(out, header);
  out->append(reinterpret_cast<const char*>(values), dim * sizeof(float));
}

inline std::string EncodeDenseRecord(const float* values, size_t dim,
                                     bool valid = true) {
  std::string out;
  out.reserve(sizeof(BinaryRecordHeader) + dim * sizeof(float));
  AppendDenseRecord(&out, values, dim, valid);
  return out;
}

// `ids` must be strictly ascending and < dim (ParseBinaryRecord enforces
// it on the read side; encoding unsorted ids produces a rejected record).
inline void AppendSparseRecord(std::string* out, const uint32_t* ids,
                               const float* values, size_t nnz, uint32_t dim,
                               bool valid = true) {
  BinaryRecordHeader header;
  header.format = static_cast<uint8_t>(BinaryRecordFormat::kSparse);
  header.flags = valid ? kBinaryRecordFlagValid : 0;
  header.dim = dim;
  header.nnz = static_cast<uint32_t>(nnz);
  AppendPod(out, header);
  out->append(reinterpret_cast<const char*>(ids), nnz * sizeof(uint32_t));
  out->append(reinterpret_cast<const char*>(values), nnz * sizeof(float));
}

inline std::string EncodeSparseRecord(const uint32_t* ids, const float* values,
                                      size_t nnz, uint32_t dim,
                                      bool valid = true) {
  std::string out;
  out.reserve(sizeof(BinaryRecordHeader) + nnz * 8);
  AppendSparseRecord(&out, ids, values, nnz, dim, valid);
  return out;
}

namespace wire_internal {

// Alignment-blind little-endian word loads (compile to plain loads on x86).
inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Finite check by bit pattern: exponent all-ones is NaN or Inf. No float
// arithmetic, no conversion — this is the whole per-value validation cost.
inline bool FiniteBits(uint32_t bits) {
  return (bits & 0x7F800000u) != 0x7F800000u;
}

inline bool PayloadFinite(const char* p, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!FiniteBits(LoadU32(p + i * sizeof(uint32_t)))) {
      return false;
    }
  }
  return true;
}

}  // namespace wire_internal

// Validates one record at the head of `bytes` and fills `*view`. With
// `allow_trailing` false (single-record entry points) the buffer must be
// exactly one record; true lets batch walkers slice concatenated records.
// Never reads past bytes.size(); a structurally broken record is rejected
// with InvalidArgument. A record whose validity bit is clear parses OK —
// masking it out (with attribution) is the execution layer's job.
inline Status ParseBinaryRecord(std::string_view bytes, BinaryRecordView* view,
                                bool allow_trailing = false) {
  if (bytes.size() < sizeof(BinaryRecordHeader)) {
    return Status::InvalidArgument("binary record truncated before header");
  }
  // Chaos site: the record arrived corrupted on the wire. Modeled as a
  // validation failure (not a bit flip) so the rejection path is exercised
  // without depending on which field a real flip would land in.
  if (PRETZEL_FAULT_POINT("serialize.corrupt_record", 0)) {
    return Status::InvalidArgument("binary record corrupted (fault-injected)");
  }
  BinaryRecordHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kBinaryRecordMagic) {
    return Status::InvalidArgument("binary record magic mismatch");
  }
  if (header.reserved != 0 ||
      (header.flags & ~kBinaryRecordFlagValid) != 0) {
    return Status::InvalidArgument("binary record unknown header bits");
  }
  if (header.dim > kBinaryRecordMaxDim || header.nnz > kBinaryRecordMaxDim) {
    return Status::InvalidArgument("binary record dim beyond wire cap");
  }
  const auto format = static_cast<BinaryRecordFormat>(header.format);
  size_t payload_bytes = 0;
  if (format == BinaryRecordFormat::kDense) {
    if (header.nnz != header.dim) {
      return Status::InvalidArgument("dense binary record nnz != dim");
    }
    payload_bytes = size_t{header.dim} * sizeof(float);
  } else if (format == BinaryRecordFormat::kSparse) {
    if (header.nnz > header.dim) {
      return Status::InvalidArgument("sparse binary record nnz > dim");
    }
    payload_bytes = size_t{header.nnz} * (sizeof(uint32_t) + sizeof(float));
  } else {
    return Status::InvalidArgument("binary record unknown format tag");
  }
  const size_t record_size = sizeof(BinaryRecordHeader) + payload_bytes;
  if (bytes.size() < record_size) {
    return Status::InvalidArgument("binary record payload truncated");
  }
  if (!allow_trailing && bytes.size() != record_size) {
    return Status::InvalidArgument("binary record oversized buffer");
  }
  const char* payload = bytes.data() + sizeof(BinaryRecordHeader);
  view->format = format;
  view->valid = (header.flags & kBinaryRecordFlagValid) != 0;
  view->dim = header.dim;
  view->nnz = header.nnz;
  view->payload = payload;
  view->record_size = record_size;
  view->aligned =
      reinterpret_cast<uintptr_t>(payload) % alignof(float) == 0;
  view->values = nullptr;
  view->ids = nullptr;
  if (format == BinaryRecordFormat::kDense) {
    if (!wire_internal::PayloadFinite(payload, header.dim)) {
      return Status::InvalidArgument("dense binary record non-finite value");
    }
    if (view->aligned) {
      view->values = AlignedAliasCast<float>(payload);
    }
  } else {
    const char* vals = payload + size_t{header.nnz} * sizeof(uint32_t);
    uint32_t prev = 0;
    for (uint32_t i = 0; i < header.nnz; ++i) {
      const uint32_t id = wire_internal::LoadU32(payload + i * 4);
      if (id >= header.dim || (i > 0 && id <= prev)) {
        return Status::InvalidArgument("sparse binary record ids not "
                                       "strictly ascending below dim");
      }
      prev = id;
    }
    if (!wire_internal::PayloadFinite(vals, header.nnz)) {
      return Status::InvalidArgument("sparse binary record non-finite value");
    }
    if (view->aligned) {
      view->ids = AlignedAliasCast<uint32_t>(payload);
      view->values = AlignedAliasCast<float>(vals);
    }
  }
  return Status::OK();
}

// Misaligned-record staging: copy the dense payload into caller storage
// (dst must hold view.dim floats). Works for aligned records too.
inline void CopyDenseValues(const BinaryRecordView& view, float* dst) {
  std::memcpy(dst, view.payload, size_t{view.dim} * sizeof(float));
}

// Sparse staging counterpart: ids into `ids`, values into `vals` (view.nnz
// elements each).
inline void CopySparsePayload(const BinaryRecordView& view, uint32_t* ids,
                              float* vals) {
  std::memcpy(ids, view.payload, size_t{view.nnz} * sizeof(uint32_t));
  std::memcpy(vals, view.payload + size_t{view.nnz} * sizeof(uint32_t),
              size_t{view.nnz} * sizeof(float));
}

// Slices a buffer of concatenated records into per-record views (the
// records of Runtime::PredictBinary's batch entry point). Each record is
// re-validated by the executor; this walk only needs the structural sizes,
// but still rejects any record the full parse would.
inline Status SplitBinaryBatch(std::string_view buffer,
                               std::vector<std::string_view>* records) {
  records->clear();
  while (!buffer.empty()) {
    BinaryRecordView view;
    Status status = ParseBinaryRecord(buffer, &view, /*allow_trailing=*/true);
    if (!status.ok()) {
      return status;
    }
    records->push_back(buffer.substr(0, view.record_size));
    buffer.remove_prefix(view.record_size);
  }
  return Status::OK();
}

}  // namespace pretzel

#endif  // PRETZEL_COMMON_SERIALIZE_H_
