#include "circuit/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace qucp {
namespace {

std::vector<std::size_t> successors(const DagCircuit& dag, std::size_t node) {
  const auto s = dag.successors(node);
  return {s.begin(), s.end()};
}

Circuit simple_circuit() {
  Circuit c(3);
  c.h(0);        // 0
  c.h(1);        // 1
  c.cx(0, 1);    // 2
  c.x(2);        // 3
  c.cx(1, 2);    // 4
  c.measure(2, 2);  // 5
  return c;
}

TEST(Dag, InDegreesFollowWires) {
  const Circuit c = simple_circuit();
  const DagCircuit dag(c);
  EXPECT_EQ(dag.num_nodes(), 6u);
  EXPECT_EQ(dag.in_degree(0), 0);
  EXPECT_EQ(dag.in_degree(1), 0);
  EXPECT_EQ(dag.in_degree(2), 2);  // after both h gates
  EXPECT_EQ(dag.in_degree(3), 0);
  EXPECT_EQ(dag.in_degree(4), 2);  // after cx(0,1) and x(2)
  EXPECT_EQ(dag.in_degree(5), 1);
}

TEST(Dag, InitialFrontIsSourceNodes) {
  const DagCircuit dag(simple_circuit());
  const auto front = dag.initial_front();
  EXPECT_EQ(std::set<std::size_t>(front.begin(), front.end()),
            (std::set<std::size_t>{0, 1, 3}));
}

TEST(Dag, SuccessorsAreCorrect) {
  const DagCircuit dag(simple_circuit());
  EXPECT_EQ(successors(dag, 0), (std::vector<std::size_t>{2}));
  EXPECT_EQ(successors(dag, 2), (std::vector<std::size_t>{4}));
  EXPECT_EQ(successors(dag, 4), (std::vector<std::size_t>{5}));
  EXPECT_TRUE(dag.successors(5).empty());
}

TEST(Dag, MeasureSharesClbitWire) {
  Circuit c(2, 1);
  c.measure(0, 0);
  c.measure(1, 0);  // same clbit: must be ordered
  const DagCircuit dag(c);
  EXPECT_EQ(dag.in_degree(1), 1);
  EXPECT_EQ(successors(dag, 0), (std::vector<std::size_t>{1}));
}

TEST(FrontLayerTest, ConsumesInOrder) {
  const Circuit c = simple_circuit();
  const DagCircuit dag(c);
  FrontLayer front(dag);
  EXPECT_EQ(front.nodes().size(), 3u);

  front.complete(0);
  // cx(0,1) still blocked on h(1).
  EXPECT_TRUE(std::find(front.nodes().begin(), front.nodes().end(), 2) ==
              front.nodes().end());
  front.complete(1);
  EXPECT_TRUE(std::find(front.nodes().begin(), front.nodes().end(), 2) !=
              front.nodes().end());
  front.complete(3);
  front.complete(2);
  EXPECT_EQ(front.nodes(), (std::vector<std::size_t>{4}));
  front.complete(4);
  front.complete(5);
  EXPECT_TRUE(front.empty());
}

TEST(FrontLayerTest, CompleteRejectsNonFrontNode) {
  const Circuit c = simple_circuit();
  const DagCircuit dag(c);
  FrontLayer front(dag);
  EXPECT_THROW(front.complete(4), std::invalid_argument);
}

TEST(Dag, EmptyCircuit) {
  const Circuit c(2);
  const DagCircuit dag(c);
  EXPECT_EQ(dag.num_nodes(), 0u);
  EXPECT_TRUE(dag.initial_front().empty());
  FrontLayer front(dag);
  EXPECT_TRUE(front.empty());
}

}  // namespace
}  // namespace qucp
