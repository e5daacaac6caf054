// Unit tests of the FADE compaction planner: TTL schedule math and file
// expiry detection.
#include "src/core/compaction_planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace acheron {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : icmp_(BytewiseComparator()) {}

  CompactionPlanner Make(uint64_t dth, int size_ratio, int levels,
                         TtlAllocation alloc = TtlAllocation::kGeometric) {
    options_.delete_persistence_threshold = dth;
    options_.size_ratio = size_ratio;
    options_.num_levels = levels;
    options_.ttl_allocation = alloc;
    return CompactionPlanner(options_, &icmp_);
  }

  Options options_;
  InternalKeyComparator icmp_;
};

TEST_F(PlannerTest, GeometricTtlSumsToThreshold) {
  const uint64_t dth = 1000000;
  const int T = 10, L = 5;
  CompactionPlanner p = Make(dth, T, L);
  // d_0 (T-1)/(T^L-1) * (1 + T + ... + T^{L-1}) == D_th (up to rounding).
  uint64_t sum = p.CumulativeTtl(L - 1);
  EXPECT_NEAR(static_cast<double>(dth), static_cast<double>(sum),
              dth * 0.01 + L);
  // Each level's TTL is T times the previous.
  for (int i = 1; i < L; i++) {
    EXPECT_NEAR(static_cast<double>(p.LevelTtl(i)),
                static_cast<double>(p.LevelTtl(i - 1)) * T,
                p.LevelTtl(i) * 0.01 + 1);
  }
  // Cumulative TTLs are strictly increasing.
  for (int i = 1; i < L; i++) {
    EXPECT_GT(p.CumulativeTtl(i), p.CumulativeTtl(i - 1));
  }
}

TEST_F(PlannerTest, UniformTtlIsEqualPerLevel) {
  const uint64_t dth = 500000;
  const int L = 5;
  CompactionPlanner p = Make(dth, 10, L, TtlAllocation::kUniform);
  for (int i = 0; i < L; i++) {
    EXPECT_EQ(dth / L, p.LevelTtl(i));
  }
  EXPECT_EQ(dth / L * L, p.CumulativeTtl(L - 1));
}

TEST_F(PlannerTest, ZeroThresholdDisablesDeleteAwareness) {
  CompactionPlanner p = Make(0, 10, 5);
  EXPECT_FALSE(p.delete_aware());
  FileMetaData f;
  f.num_tombstones = 10;
  f.earliest_tombstone_seq = 1;
  EXPECT_FALSE(p.FileTtlExpired(f, 0, 1000000000));
}

TEST_F(PlannerTest, FileExpiryRespectsCumulativeTtl) {
  const uint64_t dth = 100000;
  CompactionPlanner p = Make(dth, 10, 5);
  FileMetaData f;
  f.num_entries = 100;
  f.num_tombstones = 10;
  f.earliest_tombstone_seq = 1000;

  // Not expired right after creation.
  EXPECT_FALSE(p.FileTtlExpired(f, 0, 1000));
  // Expired at level 0 once past c_0.
  uint64_t c0 = p.CumulativeTtl(0);
  EXPECT_FALSE(p.FileTtlExpired(f, 0, 1000 + c0));
  EXPECT_TRUE(p.FileTtlExpired(f, 0, 1000 + c0 + 1));
  // The same age is NOT expired at a deeper level (bigger budget).
  EXPECT_FALSE(p.FileTtlExpired(f, 3, 1000 + c0 + 1));
  // Every level expires eventually.
  EXPECT_TRUE(p.FileTtlExpired(f, 4, 1000 + dth + dth / 10));
}

TEST_F(PlannerTest, FilesWithoutTombstonesNeverExpire) {
  CompactionPlanner p = Make(1000, 4, 4);
  FileMetaData f;
  f.num_entries = 100;
  f.num_tombstones = 0;
  EXPECT_FALSE(p.FileTtlExpired(f, 0, UINT64_MAX / 2));
}

TEST_F(PlannerTest, GeometricGivesDeepLevelsMoreBudget) {
  CompactionPlanner geo = Make(1000000, 10, 5, TtlAllocation::kGeometric);
  CompactionPlanner uni = Make(1000000, 10, 5, TtlAllocation::kUniform);
  // Geometric gives level 0 much less than uniform, the deepest level much
  // more: shallow levels hold little data so their TTLs can be tight.
  EXPECT_LT(geo.LevelTtl(0), uni.LevelTtl(0));
  EXPECT_GT(geo.LevelTtl(4), uni.LevelTtl(4));
}

// Sweep: the schedule is sane across tunings.
class PlannerSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlannerSweep, CumulativeTtlBoundedByThreshold) {
  auto [dth_k, T, L] = GetParam();
  const uint64_t dth = static_cast<uint64_t>(dth_k) * 1000;
  Options options;
  options.delete_persistence_threshold = dth;
  options.size_ratio = T;
  options.num_levels = L;
  InternalKeyComparator icmp(BytewiseComparator());
  CompactionPlanner p(options, &icmp);
  // The total budget never exceeds D_th by more than rounding slack.
  EXPECT_LE(p.CumulativeTtl(L - 1), dth + static_cast<uint64_t>(L));
  // And uses at least 90% of it.
  EXPECT_GE(p.CumulativeTtl(L - 1), dth * 9 / 10);
}

// The write path's floor bounds deadlines with the budgets of the deepest
// tree the pending rounds can build; that is only a lower bound if no
// level's budget grows as the tree deepens.
TEST_P(PlannerSweep, CumulativeTtlShrinksAsTheTreeDeepens) {
  auto [dth_k, T, L] = GetParam();
  InternalKeyComparator icmp(BytewiseComparator());
  for (TtlAllocation allocation :
       {TtlAllocation::kGeometric, TtlAllocation::kUniform}) {
    Options options;
    options.delete_persistence_threshold =
        static_cast<uint64_t>(dth_k) * 1000;
    options.size_ratio = T;
    options.num_levels = L;
    options.ttl_allocation = allocation;
    CompactionPlanner p(options, &icmp);
    for (int level = 0; level < kNumLevels; level++) {
      for (int depth = 1; depth < kNumLevels; depth++) {
        EXPECT_LE(p.CumulativeTtl(level, depth + 1),
                  p.CumulativeTtl(level, depth))
            << "level " << level << " depth " << depth;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tunings, PlannerSweep,
                         ::testing::Combine(::testing::Values(10, 100, 10000),
                                            ::testing::Values(2, 4, 10, 32),
                                            ::testing::Values(2, 4, 7, 12)));

// A size-triggered pick takes the first file past the compact pointer, or,
// with delete-aware picking on, the file with the highest tombstone density.
TEST_F(PlannerTest, ChooseFileIndexPicksTheDensestTombstonedFile) {
  std::vector<FileMetaData> metas(4);
  std::vector<FileMetaData*> files;
  const char* largest[] = {"b", "d", "f", "h"};
  for (size_t i = 0; i < metas.size(); i++) {
    metas[i].num_entries = 100;
    metas[i].largest = InternalKey(largest[i], 100, kTypeValue);
    files.push_back(&metas[i]);
  }
  const std::string pointer =
      InternalKey("d", 100, kTypeValue).Encode().ToString();

  options_.delete_aware_picking = true;
  CompactionPlanner p = Make(1000, 10, 5);
  // No file holds a tombstone: the compact-pointer file.
  EXPECT_EQ(2u, p.ChooseFileIndex(files, pointer));
  EXPECT_EQ(0u, p.ChooseFileIndex(files, ""));

  metas[0].num_tombstones = 5;
  metas[1].num_tombstones = 30;
  metas[3].num_tombstones = 30;
  EXPECT_EQ(1u, p.ChooseFileIndex(files, pointer));  // first of a tie
  metas[3].num_entries = 50;
  EXPECT_EQ(3u, p.ChooseFileIndex(files, pointer));

  // Picking off: round-robin whatever the tombstones.
  options_.delete_aware_picking = false;
  EXPECT_EQ(2u, p.ChooseFileIndex(files, pointer));
  // Picking on without D_th: round-robin too.
  options_.delete_aware_picking = true;
  CompactionPlanner vanilla = Make(0, 10, 5);
  EXPECT_EQ(2u, vanilla.ChooseFileIndex(files, pointer));
  // A pointer past every file wraps to the first.
  const std::string past_end =
      InternalKey("z", 100, kTypeValue).Encode().ToString();
  EXPECT_EQ(0u, vanilla.ChooseFileIndex(files, past_end));
}

}  // namespace acheron
