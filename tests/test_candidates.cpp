#include "partition/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

namespace qucp {
namespace {

/// All connected subsets of size k avoiding `allocated`, up to `max_count`
/// (throws std::runtime_error if the bound is exceeded): the exhaustive
/// oracle the greedy candidates are checked against.
std::vector<std::vector<int>> enumerate_connected_subsets(
    const Topology& topo, int k, std::span<const int> allocated,
    std::size_t max_count = 200000) {
  if (k <= 0) {
    throw std::invalid_argument("enumerate_connected_subsets: k <= 0");
  }
  std::set<int> blocked(allocated.begin(), allocated.end());
  std::set<std::vector<int>> found;

  // Standard connected-subgraph enumeration: expand only through qubits
  // greater than the anchor to avoid duplicates, then dedup defensively.
  for (int anchor = 0; anchor < topo.num_qubits(); ++anchor) {
    if (blocked.count(anchor)) continue;
    std::vector<std::vector<int>> stack{{anchor}};
    while (!stack.empty()) {
      std::vector<int> cur = std::move(stack.back());
      stack.pop_back();
      if (static_cast<int>(cur.size()) == k) {
        std::vector<int> sorted = cur;
        std::sort(sorted.begin(), sorted.end());
        found.insert(std::move(sorted));
        if (found.size() > max_count) {
          throw std::runtime_error(
              "enumerate_connected_subsets: bound exceeded");
        }
        continue;
      }
      std::set<int> in_cur(cur.begin(), cur.end());
      std::set<int> frontier;
      for (int q : cur) {
        for (int nb : topo.neighbors(q)) {
          if (nb > anchor && !in_cur.count(nb) && !blocked.count(nb)) {
            frontier.insert(nb);
          }
        }
      }
      for (int nb : frontier) {
        std::vector<int> next = cur;
        next.push_back(nb);
        stack.push_back(std::move(next));
      }
    }
  }
  return {found.begin(), found.end()};
}


TEST(Candidates, AllConnectedAndRightSize) {
  const Device d = make_toronto27();
  for (int k : {2, 3, 4, 5}) {
    const auto cands = partition_candidates(d, k, {});
    ASSERT_FALSE(cands.empty()) << "k=" << k;
    for (const auto& cand : cands) {
      EXPECT_EQ(static_cast<int>(cand.size()), k);
      EXPECT_TRUE(d.topology().is_connected_subset(cand));
      EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    }
  }
}

TEST(Candidates, AvoidAllocatedQubits) {
  const Device d = make_toronto27();
  const std::vector<int> allocated{0, 1, 2, 3, 4, 5};
  const auto cands = partition_candidates(d, 4, allocated);
  const std::set<int> blocked(allocated.begin(), allocated.end());
  for (const auto& cand : cands) {
    for (int q : cand) EXPECT_FALSE(blocked.count(q));
  }
}

TEST(Candidates, Deduplicated) {
  const Device d = make_line_device(6);
  const auto cands = partition_candidates(d, 3, {});
  std::set<std::vector<int>> unique(cands.begin(), cands.end());
  EXPECT_EQ(unique.size(), cands.size());
}

TEST(Candidates, LineCandidatesAreIntervals) {
  const Device d = make_line_device(6);
  const auto cands = partition_candidates(d, 3, {});
  for (const auto& cand : cands) {
    EXPECT_EQ(cand.back() - cand.front(), 2);  // contiguous on a line
  }
}

TEST(Candidates, EmptyWhenNoRoom) {
  const Device d = make_line_device(4);
  const std::vector<int> allocated{1, 2};
  // Remaining {0} and {3} are isolated: no 2-qubit candidate.
  EXPECT_TRUE(partition_candidates(d, 2, allocated).empty());
  // Size bigger than the device.
  EXPECT_TRUE(partition_candidates(d, 9, {}).empty());
}

TEST(Candidates, RejectsBadK) {
  const Device d = make_line_device(4);
  EXPECT_THROW((void)partition_candidates(d, 0, {}), std::invalid_argument);
}

TEST(Enumerate, LineSubsetsExact) {
  const Topology line(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  // Connected subsets of size 3 on a path of 5: the 3 windows.
  const auto subs = enumerate_connected_subsets(line, 3, {});
  EXPECT_EQ(subs.size(), 3u);
}

TEST(Enumerate, CountsOnRing) {
  const Topology ring(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_EQ(enumerate_connected_subsets(ring, 2, {}).size(), 4u);
  EXPECT_EQ(enumerate_connected_subsets(ring, 3, {}).size(), 4u);
  EXPECT_EQ(enumerate_connected_subsets(ring, 4, {}).size(), 1u);
}

TEST(Enumerate, RespectsBlocked) {
  const Topology line(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<int> blocked{2};
  const auto subs = enumerate_connected_subsets(line, 2, blocked);
  // {0,1} and {3,4} remain.
  EXPECT_EQ(subs.size(), 2u);
}

TEST(Enumerate, GreedyCandidatesAreSubsetOfEnumeration) {
  const Device d = make_grid_device(3, 3);
  const auto greedy = partition_candidates(d, 4, {});
  const auto all = enumerate_connected_subsets(d.topology(), 4, {});
  const std::set<std::vector<int>> all_set(all.begin(), all.end());
  for (const auto& cand : greedy) {
    EXPECT_TRUE(all_set.count(cand));
  }
  EXPECT_LE(greedy.size(), all.size());
}

TEST(Enumerate, BoundEnforced) {
  const Device d = make_manhattan65();
  EXPECT_THROW(
      (void)enumerate_connected_subsets(d.topology(), 8, {}, 100),
      std::runtime_error);
}

}  // namespace
}  // namespace qucp
