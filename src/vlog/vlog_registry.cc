#include "src/vlog/vlog_registry.h"

#include "src/util/coding.h"

namespace acheron {
namespace vlog {

void ChargeSegment(Registry* registry, const SegmentDelta& delta) {
  auto it = registry->find(delta.number);
  if (it == registry->end()) return;  // segment already collected
  SegmentInfo& info = it->second;
  info.garbage_bytes += delta.garbage_bytes;
  info.dead_count += delta.dead_count;
  if (delta.purge_count > 0) {
    info.pending.push_back({delta.purge_seq, delta.purge_count});
  }
}

void EncodeSegmentInfo(std::string* dst, const SegmentInfo& info) {
  PutVarint64(dst, info.number);
  PutVarint64(dst, info.sealed ? 1 : 0);
  PutVarint64(dst, info.total_bytes);
  PutVarint64(dst, info.value_count);
  PutVarint64(dst, info.garbage_bytes);
  PutVarint64(dst, info.dead_count);
  PutVarint64(dst, info.pending.size());
  for (const auto& p : info.pending) {
    PutVarint64(dst, p.purge_seq);
    PutVarint64(dst, p.count);
  }
}

bool DecodeSegmentInfo(Slice* input, SegmentInfo* info) {
  uint64_t sealed = 0;
  uint64_t npending = 0;
  if (!GetVarint64(input, &info->number) || !GetVarint64(input, &sealed) ||
      !GetVarint64(input, &info->total_bytes) ||
      !GetVarint64(input, &info->value_count) ||
      !GetVarint64(input, &info->garbage_bytes) ||
      !GetVarint64(input, &info->dead_count) ||
      !GetVarint64(input, &npending)) {
    return false;
  }
  info->sealed = sealed != 0;
  info->pending.clear();
  for (uint64_t i = 0; i < npending; i++) {
    SegmentInfo::PendingPurge p;
    if (!GetVarint64(input, &p.purge_seq) || !GetVarint64(input, &p.count)) {
      return false;
    }
    info->pending.push_back(p);
  }
  return true;
}

void EncodeSegmentDelta(std::string* dst, const SegmentDelta& delta) {
  PutVarint64(dst, delta.number);
  PutVarint64(dst, delta.garbage_bytes);
  PutVarint64(dst, delta.dead_count);
  PutVarint64(dst, delta.purge_count);
  PutVarint64(dst, delta.purge_seq);
}

bool DecodeSegmentDelta(Slice* input, SegmentDelta* delta) {
  return GetVarint64(input, &delta->number) &&
         GetVarint64(input, &delta->garbage_bytes) &&
         GetVarint64(input, &delta->dead_count) &&
         GetVarint64(input, &delta->purge_count) &&
         GetVarint64(input, &delta->purge_seq);
}

}  // namespace vlog
}  // namespace acheron
