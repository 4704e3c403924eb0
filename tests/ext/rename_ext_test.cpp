// §7.2 SCFS rename extension: atomic directory rename with parent-pointer
// rewrite, on both host systems.

#include <gtest/gtest.h>

#include "edc/common/strings.h"
#include "edc/recipes/scripts.h"
#include "tests/harness/fixture_helpers.h"

namespace edc {
namespace {

TEST(RenameExtensionTest, AtomicRenameOnEzk) {
  CoordFixture cluster(GroupOptions(SystemKind::kExtensibleZooKeeper, 11));
  cluster.Start();
  ZkClient* client = ConnectZkClient(cluster, {1});
  Status reg = Status(ErrorCode::kInternal);
  client->RegisterExtension("scfs_rename", kRenameExtension, [&](Status s) { reg = s; });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(reg.ok()) << reg.ToString();

  for (const char* path : {"/scfs-rename", "/dir"}) {
    client->Create(path, "", false, false, [](Result<std::string>) {});
  }
  cluster.Settle(Millis(500));
  for (const char* path : {"/dir/a", "/dir/b"}) {
    client->Create(path, std::string("data-") + BaseName(path), false, false,
                   [](Result<std::string>) {});
  }
  cluster.Settle(Millis(500));

  Status renamed = Status(ErrorCode::kInternal);
  client->SetData("/scfs-rename", "/dir|/moved", -1, [&](Status s) { renamed = s; });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(renamed.ok()) << renamed.ToString();

  const DataTree& tree = ZkLeader(cluster)->tree();
  EXPECT_FALSE(tree.Exists("/dir"));
  EXPECT_FALSE(tree.Exists("/dir/a"));
  EXPECT_TRUE(tree.Exists("/moved"));
  EXPECT_EQ(tree.Get("/moved/a")->data, "data-a");
  EXPECT_EQ(tree.Get("/moved/b")->data, "data-b");

  // Target collision is rejected with no partial state.
  client->Create("/dir2", "", false, false, [](Result<std::string>) {});
  client->Create("/exists", "", false, false, [](Result<std::string>) {});
  cluster.Settle(Millis(500));
  Status conflict = Status::Ok();
  client->SetData("/scfs-rename", "/dir2|/exists", -1, [&](Status s) { conflict = s; });
  cluster.Settle(Millis(500));
  EXPECT_EQ(conflict.code(), ErrorCode::kExtensionError);
  EXPECT_TRUE(tree.Exists("/dir2"));
}

TEST(RenameExtensionTest, AtomicRenameOnEds) {
  CoordFixture cluster(GroupOptions(SystemKind::kExtensibleDepSpace, 21));
  cluster.Start();
  DsClient* client = AddGroupDsClient(cluster);
  Status reg = Status(ErrorCode::kInternal);
  client->RegisterExtension("scfs_rename", kRenameExtension,
                            [&](Result<DsReply> r) { reg = r.status(); });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(reg.ok()) << reg.ToString();

  client->Out(ObjectTuple("/scfs-rename", ""), [](Result<DsReply>) {});
  client->Out(ObjectTuple("/dir", "dir"), [](Result<DsReply>) {});
  client->Out(ObjectTuple("/dir/a", "data-a"), [](Result<DsReply>) {});
  cluster.Settle(Millis(500));

  Status renamed = Status(ErrorCode::kInternal);
  client->Replace(ObjectTemplate("/scfs-rename"), ObjectTuple("/scfs-rename", "/dir|/moved"),
                  [&](Result<DsReply> r) { renamed = r.status(); });
  cluster.Settle(Millis(500));
  ASSERT_TRUE(renamed.ok()) << renamed.ToString();

  const TupleSpace& space = cluster.ds_servers[0]->space();
  EXPECT_FALSE(space.HasMatch(ObjectTemplate("/dir")));
  EXPECT_FALSE(space.HasMatch(ObjectTemplate("/dir/a")));
  EXPECT_TRUE(space.HasMatch(ObjectTemplate("/moved")));
  auto child = space.Rdp(ObjectTemplate("/moved/a"));
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(FieldToString((*child)[1]), "data-a");
  // Deterministic across replicas.
  for (auto& server : cluster.ds_servers) {
    EXPECT_EQ(server->space().Serialize(), space.Serialize());
  }
}

}  // namespace
}  // namespace edc
