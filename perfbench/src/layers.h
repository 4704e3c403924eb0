// Host cost of single layers, measured from outside: each replay times calls
// into one layer's public functions on inputs sized from a traced run. No
// span or timer is added inside the program.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>

#include "edc/ds/server.h"
#include "edc/harness/fixture.h"

namespace perfbench {

// ns per Schedule + fire, with `pending` other timers queued.
double ReplayScheduleRunNs(size_t pending, int64_t events);
// ns per Cancel of a pending timer, including skipping it at pop time.
double ReplayCancelNs(int64_t timers);
// ns per Network::Send of a `payload_bytes` packet, including delivery.
double ReplayNetworkSendNs(size_t payload_bytes, int64_t packets);

struct SnapshotReplay {
  double host_us = 0;
  double bytes = 0;
};
// DsServer::TakeSnapshot on the server's current state.
SnapshotReplay ReplaySnapshot(edc::DsServer& server, int reps);

enum class Handler { kCounter, kQueueRemove };
struct ExtensionReplay {
  double host_ns = 0;
  bool vm = false;  // every invocation dispatched to the bytecode VM
};
// RunExtensionHandler on a recipe handler against an in-memory state of
// `queue_len` queued elements (ignored for the counter). The handler is
// loaded under the verifier settings of the binding `options.system` runs.
ExtensionReplay ReplayExtension(Handler handler, size_t queue_len, int64_t invocations,
                                const edc::FixtureOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
