// Shared helpers for the test suite: graph factories plus the oracle-identity
// assertions used by every engine-equivalence test.
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "check/differential.h"
#include "clique/enumerator.h"
#include "common/rng.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "cpm/community.h"
#include "cpm/community_tree.h"
#include "graph/graph.h"

namespace kcc::testing {

/// Builds a graph from an explicit edge list.
inline Graph make_graph(std::size_t n,
                        std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  return Graph::from_edges(n, std::vector<std::pair<NodeId, NodeId>>(edges));
}

/// Complete graph on n nodes.
inline Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  }
  b.ensure_nodes(n);
  return b.build();
}

/// Cycle graph on n nodes.
inline Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    b.add_edge(i, static_cast<NodeId>((i + 1) % n));
  }
  return b.build();
}

/// Erdős–Rényi G(n, p), deterministic in seed.
inline Graph random_graph(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.next_bool(p)) b.add_edge(i, j);
    }
  }
  b.ensure_nodes(n);
  return b.build();
}

/// Barabási–Albert-style preferential attachment: each new node attaches
/// `m` edges to degree-weighted targets. Deterministic in seed.
inline Graph preferential_attachment_graph(std::size_t n, std::size_t m,
                                           std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  std::vector<NodeId> pool;
  // Seed star on the first m+1 nodes.
  for (NodeId v = 1; v <= m && v < n; ++v) {
    b.add_edge(0, v);
    pool.push_back(0);
    pool.push_back(v);
  }
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    for (std::size_t e = 0; e < m; ++e) {
      const NodeId target = pool[rng.next_below(pool.size())];
      if (target != v) {
        b.add_edge(v, target);
        pool.push_back(target);
        pool.push_back(v);
      }
    }
  }
  b.ensure_nodes(n);
  return b.build();
}

/// Every maximal clique of `g` with >= 2 nodes, in enumeration order: the
/// clique table cpm::Engine hands the engines by default.
inline std::vector<NodeSet> clique_table(const Graph& g) {
  ThreadPool pool(2);
  clique::Options options;
  options.min_size = 2;
  return clique::Enumerator(g, options).collect(pool);
}

/// Full structural identity between two CPM results: same clique table,
/// canonical order, ids, clique ids and clique->community maps — the
/// byte-identical-output contract every engine is held to.
inline void expect_same_cpm(const CpmResult& oracle, const CpmResult& other,
                            const std::string& label) {
  ASSERT_EQ(oracle.min_k, other.min_k) << label;
  ASSERT_EQ(oracle.max_k, other.max_k) << label;
  EXPECT_EQ(oracle.cliques, other.cliques) << label;
  for (std::size_t k = oracle.min_k; k <= oracle.max_k; ++k) {
    const CommunitySet& a = oracle.at(k);
    const CommunitySet& b = other.at(k);
    ASSERT_EQ(a.count(), b.count()) << label << " k=" << k;
    for (CommunityId id = 0; id < a.count(); ++id) {
      EXPECT_EQ(a.communities[id].nodes, b.communities[id].nodes)
          << label << " k=" << k << " id=" << id;
      EXPECT_EQ(a.communities[id].clique_ids, b.communities[id].clique_ids)
          << label << " k=" << k << " id=" << id;
      EXPECT_EQ(b.communities[id].id, id) << label << " k=" << k;
      EXPECT_EQ(b.communities[id].k, k) << label << " k=" << k;
    }
    EXPECT_EQ(clique_community_map(a, oracle.cliques.size()),
              clique_community_map(b, other.cliques.size()))
        << label << " k=" << k;
  }
}

/// Node-for-node identity between two community trees.
inline void expect_same_tree(const CommunityTree& expected,
                             const CommunityTree& actual,
                             const std::string& label) {
  ASSERT_EQ(expected.nodes().size(), actual.nodes().size()) << label;
  for (std::size_t i = 0; i < expected.nodes().size(); ++i) {
    const TreeNode& a = expected.nodes()[i];
    const TreeNode& b = actual.nodes()[i];
    EXPECT_EQ(a.k, b.k) << label;
    EXPECT_EQ(a.community_id, b.community_id) << label;
    EXPECT_EQ(a.size, b.size) << label;
    EXPECT_EQ(a.parent, b.parent) << label;
    EXPECT_EQ(a.children, b.children) << label;
    EXPECT_EQ(a.is_main, b.is_main) << label;
  }
}

/// The nesting theorem on a tree: every community at level k > min_k nests
/// inside the community its tree parent points at, one level below.
inline void expect_nesting(const CpmResult& cpm, const CommunityTree& tree,
                           const std::string& label) {
  ASSERT_EQ(tree.min_k(), cpm.min_k) << label;
  ASSERT_EQ(tree.max_k(), cpm.max_k) << label;
  for (std::size_t k = cpm.min_k; k <= cpm.max_k; ++k) {
    ASSERT_EQ(tree.level(k).size(), cpm.at(k).count()) << label << " k=" << k;
    for (int idx : tree.level(k)) {
      const TreeNode& node = tree.nodes()[idx];
      EXPECT_EQ(node.k, k) << label;
      EXPECT_EQ(node.size, cpm.at(k).communities[node.community_id].size())
          << label << " k=" << k;
      if (k == cpm.min_k) {
        EXPECT_LT(node.parent, 0) << label << " bottom level has no parent";
        continue;
      }
      ASSERT_GE(node.parent, 0) << label << " k=" << k;
      const TreeNode& parent = tree.nodes()[node.parent];
      EXPECT_EQ(parent.k, k - 1) << label;
      EXPECT_TRUE(
          is_subset(cpm.at(k).communities[node.community_id].nodes,
                    cpm.at(k - 1).communities[parent.community_id].nodes))
          << label << " k=" << k << " id=" << node.community_id;
    }
  }
}

/// Runs the check:: differential matrix (all engines × threads × budgets,
/// plus the invariant oracles) on `g` and fails with the first divergent
/// canonical line. The percolation re-derivation is capped so large synth
/// graphs don't turn the suite quadratic; the structural checks always run.
inline void expect_differential_ok(const Graph& g, const std::string& label) {
  check::DiffOptions options;
  options.threads = 2;
  options.invariants.max_cliques_for_percolation = 1500;
  const check::DiffOutcome outcome = check::run_differential(g, options);
  EXPECT_TRUE(outcome.ok()) << label << ":\n" << outcome.failure;
}

/// Two cliques of sizes a and b sharing `shared` nodes (nodes 0..shared-1).
inline Graph overlapping_cliques(std::size_t a, std::size_t b,
                                 std::size_t shared) {
  GraphBuilder builder;
  auto mesh = [&](NodeId lo, NodeId hi, NodeId shared_hi) {
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < shared_hi; ++v) nodes.push_back(v);
    for (NodeId v = lo; v < hi; ++v) nodes.push_back(v);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        builder.add_edge(nodes[i], nodes[j]);
      }
    }
  };
  const NodeId s = static_cast<NodeId>(shared);
  mesh(s, static_cast<NodeId>(a), s);                        // clique A
  mesh(static_cast<NodeId>(a), static_cast<NodeId>(a + b - shared), s);  // B
  return builder.build();
}

}  // namespace kcc::testing
