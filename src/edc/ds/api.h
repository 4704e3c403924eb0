// Abstract client-side surface of the DepSpace-like service.
//
// Mirrors zk/api.h for the tuple-space side: recipes and the harness program
// against DsApi; DsClient implements it by multicasting to one replica
// ensemble, DsShardRouter (edc/route) by routing each operation to the shard
// its first field hashes to (docs/sharding.md).
//
// Every tuple operation goes through one virtual entry point, Call; the
// typed calls below build the DsOp and are written once for both
// implementations. What stays virtual is what differs per implementation:
// leases (the sub-client that sent a lease must be the one renewing it) and
// the /em conveniences (a router fans those out to every shard).

#ifndef EDC_DS_API_H_
#define EDC_DS_API_H_

#include <cstdint>
#include <string>

#include "edc/common/client_api.h"
#include "edc/ds/types.h"

namespace edc {

class DsApi {
 public:
  using ReplyCb = ResultCb<DsReply>;

  virtual ~DsApi() = default;

  // The request entry point: orders `op` on the replicas and hands the
  // voted reply to `done`. A router routes it by the op's first field.
  virtual void Call(DsOp op, ReplyCb done) = 0;

  void Out(DsTuple tuple, ReplyCb done);
  void Rdp(DsTemplate templ, ReplyCb done);
  void Inp(DsTemplate templ, ReplyCb done);
  void Rd(DsTemplate templ, ReplyCb done);  // blocking
  void In(DsTemplate templ, ReplyCb done);  // blocking
  void Cas(DsTemplate templ, DsTuple tuple, ReplyCb done);
  void Replace(DsTemplate templ, DsTuple tuple, ReplyCb done);
  void RdAll(DsTemplate templ, ReplyCb done);
  // Invokes the extension listening on `trigger_path` (§5.2.2): a blocking
  // rd on the trigger object the extension intercepts. DepSpace extensions
  // read their arguments from the tuple space, so `args` is unused here; it
  // exists for API parity with ZkApi::CallExtension.
  void CallExtension(const std::string& trigger_path, const std::string& args,
                     ExtensionCb done);

  // Lease tuple (monitor primitive); auto-renewed until ReleaseLease/crash.
  virtual void OutLease(DsTuple tuple, ReplyCb done) = 0;
  virtual void ReleaseLease(const DsTemplate& templ) = 0;
  // Periodically renews EVERY lease tuple this client owns (universal
  // template) — needed when a server-side extension created lease tuples on
  // the client's behalf (monitor inside an extension): the client is the
  // owner and must keep them alive.
  virtual void EnableAutoRenewAll() = 0;

  // EDS conveniences (§5.2.2): registration/ack/deregistration are ordinary
  // tuple operations on the extension manager's dedicated namespace.
  virtual void RegisterExtension(const std::string& name, const std::string& code,
                                 ReplyCb done) = 0;
  virtual void DeregisterExtension(const std::string& name, ReplyCb done) = 0;
  // Acknowledges as this client's own id (each sub-client's, on a router).
  virtual void AcknowledgeExtension(const std::string& name, ReplyCb done) = 0;

  virtual NodeId id() const = 0;
};

}  // namespace edc

#endif  // EDC_DS_API_H_
