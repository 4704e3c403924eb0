#include "edc/bft/messages.h"

namespace edc {

uint64_t BftRequest::Digest(uint64_t seq, SimTime ts) const {
  uint64_t h = Fnv1a64(payload);
  Encoder enc;
  enc.U64(seq);
  enc.I64(ts);
  enc.U32(client);
  enc.U64(req_id);
  return Fnv1a64(enc.buffer(), h);
}

uint64_t BatchDigest(uint64_t seq, SimTime ts, const BftBatch& batch) {
  Encoder enc;
  enc.U64(seq);
  enc.I64(ts);
  enc.Varint(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    enc.U64(batch[i].Digest(seq, ts + static_cast<SimTime>(i)));
  }
  return Fnv1a64(enc.buffer());
}

}  // namespace edc
