#include "edc/ds/api.h"

#include <utility>

namespace edc {

namespace {

DsOp TemplateOp(DsOpType type, DsTemplate templ) {
  DsOp op;
  op.type = type;
  op.templ = std::move(templ);
  return op;
}

}  // namespace

void DsApi::Out(DsTuple tuple, ReplyCb done) {
  DsOp op;
  op.type = DsOpType::kOut;
  op.tuple = std::move(tuple);
  Call(std::move(op), std::move(done));
}

void DsApi::Rdp(DsTemplate templ, ReplyCb done) {
  Call(TemplateOp(DsOpType::kRdp, std::move(templ)), std::move(done));
}

void DsApi::Inp(DsTemplate templ, ReplyCb done) {
  Call(TemplateOp(DsOpType::kInp, std::move(templ)), std::move(done));
}

void DsApi::Rd(DsTemplate templ, ReplyCb done) {
  Call(TemplateOp(DsOpType::kRd, std::move(templ)), std::move(done));
}

void DsApi::In(DsTemplate templ, ReplyCb done) {
  Call(TemplateOp(DsOpType::kIn, std::move(templ)), std::move(done));
}

void DsApi::Cas(DsTemplate templ, DsTuple tuple, ReplyCb done) {
  DsOp op = TemplateOp(DsOpType::kCas, std::move(templ));
  op.tuple = std::move(tuple);
  Call(std::move(op), std::move(done));
}

void DsApi::Replace(DsTemplate templ, DsTuple tuple, ReplyCb done) {
  DsOp op = TemplateOp(DsOpType::kReplace, std::move(templ));
  op.tuple = std::move(tuple);
  Call(std::move(op), std::move(done));
}

void DsApi::RdAll(DsTemplate templ, ReplyCb done) {
  Call(TemplateOp(DsOpType::kRdAll, std::move(templ)), std::move(done));
}

void DsApi::CallExtension(const std::string& trigger_path, const std::string& args,
                          ExtensionCb done) {
  (void)args;  // DepSpace extensions take their arguments from the tuple space
  Rd(ObjectTemplate(trigger_path), [done = std::move(done)](Result<DsReply> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    ExtensionResult result;
    result.intercepted = true;  // rd returned: extension result or the object
    result.exists = true;
    if (!r->tuples.empty() && r->tuples[0].size() > 1) {
      result.value = FieldToString(r->tuples[0][1]);
    } else {
      result.value = r->value;
    }
    done(result);
  });
}

}  // namespace edc
