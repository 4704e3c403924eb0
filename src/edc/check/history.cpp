#include "edc/check/history.h"

#include "edc/harness/fixture.h"

namespace edc {

void HistoryRecorder::AttachZkClient(EventLoop* loop, ZkClient* client) {
  NodeId node = client->id();
  ZkClientObserver obs;
  obs.on_call = [this, loop, node](uint64_t session, uint64_t req_id, const ZkOp& op) {
    zk_calls.push_back(ZkCallRecord{NextOrder(), node, session, req_id, op, loop->now()});
  };
  obs.on_reply = [this, loop, node](uint64_t req_id, const ZkReplyMsg& reply,
                                    bool synthetic) {
    zk_responses.push_back(
        ZkResponseRecord{NextOrder(), node, req_id, reply, synthetic, loop->now()});
  };
  obs.on_watch = [this, loop, node](uint64_t session, const ZkWatchEventMsg& event) {
    zk_watches.push_back(ZkWatchRecord{NextOrder(), node, session, event, loop->now()});
  };
  client->SetHistoryObserver(std::move(obs));
}

void HistoryRecorder::AttachDsClient(EventLoop* loop, DsClient* client) {
  NodeId node = client->id();
  DsClientObserver obs;
  obs.on_call = [this, loop, node](uint64_t req_id, const DsOp& op) {
    ds_calls.push_back(DsCallRecord{NextOrder(), node, req_id, op, loop->now()});
  };
  obs.on_reply = [this, loop, node](uint64_t req_id, const Result<DsReply>& result) {
    ds_responses.push_back(DsResponseRecord{NextOrder(), node, req_id, result, loop->now()});
  };
  client->SetHistoryObserver(std::move(obs));
}

void HistoryRecorder::AttachZkServer(ZkServer* server) {
  NodeId replica = server->id();
  server->SetCommitObserver(
      [this, replica](uint64_t zxid, const ZkTxn& txn, uint64_t txn_hash) {
        zk_commits.push_back(ZkCommitRecord{NextOrder(), replica, zxid, txn, txn_hash});
      });
}

void HistoryRecorder::AttachDsServer(DsServer* server) {
  NodeId replica = server->id();
  server->SetExecObserver(
      [this, replica](uint64_t seq, SimTime ts, const BftRequest& request) {
        ds_execs.push_back(DsExecRecord{NextOrder(), replica, seq, ts, request.client,
                                        request.req_id, request.payload});
      });
}

void HistoryRecorder::Attach(CoordFixture& fixture) {
  EventLoop* loop = &fixture.loop();
  for (size_t i = 0; i < fixture.num_clients(); ++i) {
    if (ZkClient* client = fixture.zk_client(i)) {
      AttachZkClient(loop, client);
    }
    if (DsClient* client = fixture.ds_client(i)) {
      AttachDsClient(loop, client);
    }
  }
  for (auto& server : fixture.zk_servers) {
    AttachZkServer(server.get());
  }
  for (auto& server : fixture.ds_servers) {
    AttachDsServer(server.get());
  }
}

}  // namespace edc
