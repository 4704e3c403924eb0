#include "edc/zab/messages.h"

namespace edc {

std::span<const uint8_t> ParseZabRecord(Decoder& dec, ZabRecordView& view) {
  std::span<const uint8_t> start = dec.rest();
  Fields(dec, view);
  return start.first(start.size() - dec.remaining());
}

Result<ZabRecordView> DecodeZabRecordView(std::span<const uint8_t> record) {
  Decoder dec(record);
  ZabRecordView view;
  ParseZabRecord(dec, view);
  dec.Check(dec.AtEnd(), "malformed log record");
  if (!dec.ok()) {
    return dec.status();
  }
  return view;
}

Result<ProposeFrameView> DecodeProposeMsgView(std::span<const uint8_t> buf) {
  Decoder dec(buf);
  ProposeFrameView v;
  dec.U32(v.epoch);
  v.record = ParseZabRecord(dec, v.proposal);
  dec.Check(dec.AtEnd(), "proposal frame has trailing bytes");
  if (!dec.ok()) {
    return dec.status();
  }
  return v;
}

}  // namespace edc
