#include "check/invariants.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "clique/enumerator.h"
#include "common/set_ops.h"
#include "metrics/community_metrics.h"
#include "metrics/overlap.h"

namespace kcc::check {
namespace {

// The oracles deliberately re-implement their tiny data structures instead
// of reusing common/union_find.h and graph/graph_algorithms.h: an engine bug
// shared with those helpers must not cancel out in the checker.
struct Dsu {
  explicit Dsu(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<uint32_t>(i);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent[find(a)] = find(b); }
  std::vector<std::uint32_t> parent;
};

std::string show_nodes(const NodeSet& nodes) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < nodes.size() && i < 16; ++i) {
    if (i > 0) out << ' ';
    out << nodes[i];
  }
  if (nodes.size() > 16) out << " ...";
  out << "} (" << nodes.size() << " nodes)";
  return out.str();
}

std::string at(std::size_t k, CommunityId id) {
  return "k=" + std::to_string(k) + " community " + std::to_string(id);
}

// Sorted member list of every maximal clique containing v? No — candidates
// adjacent to ALL of `clique`: the running intersection of member
// adjacencies. Non-empty remainder outside the clique itself refutes
// maximality by definition.
NodeSet common_neighbors(const Graph& g, const NodeSet& clique) {
  NodeSet common(g.neighbors(clique[0]).begin(), g.neighbors(clique[0]).end());
  for (std::size_t i = 1; i < clique.size() && !common.empty(); ++i) {
    const auto adj = g.neighbors(clique[i]);
    NodeSet next;
    std::set_intersection(common.begin(), common.end(), adj.begin(), adj.end(),
                          std::back_inserter(next));
    common = std::move(next);
  }
  return common;
}

void check_clique_table(const Graph& g, const CpmResult& cpm,
                        const InvariantOptions& options, Report& report) {
  for (CliqueId c = 0; c < cpm.cliques.size(); ++c) {
    const NodeSet& clique = cpm.cliques[c];
    report.invariants_checked += 4;
    if (clique.size() < options.min_clique_size || !is_sorted_unique(clique)) {
      report.add("clique-table",
                 "clique " + std::to_string(c) +
                     " is not a sorted set of >= " +
                     std::to_string(options.min_clique_size) + " nodes: " +
                     show_nodes(clique));
      continue;
    }
    if (clique.back() >= g.num_nodes()) {
      report.add("clique-table", "clique " + std::to_string(c) +
                                     " references node " +
                                     std::to_string(clique.back()) +
                                     " outside the graph");
      continue;
    }
    bool is_clique = true;
    for (std::size_t i = 0; i < clique.size() && is_clique; ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        if (!g.has_edge(clique[i], clique[j])) {
          report.add("clique-table",
                     "clique " + std::to_string(c) + " misses edge {" +
                         std::to_string(clique[i]) + ", " +
                         std::to_string(clique[j]) + "}: not a clique");
          is_clique = false;
          break;
        }
      }
    }
    if (!is_clique) continue;
    // Maximal per the Bron–Kerbosch definition: nobody outside is adjacent
    // to every member.
    const NodeSet extension = common_neighbors(g, clique);
    if (!extension.empty()) {
      report.add("clique-maximal",
                 "clique " + std::to_string(c) + " " + show_nodes(clique) +
                     " extends by node " + std::to_string(extension[0]));
    }
  }

  // Completeness + uniqueness: as a sorted multiset, the table must equal
  // the maximal cliques of g.
  if (g.num_nodes() <= options.max_nodes_for_completeness) {
    ++report.invariants_checked;
    // The oracle pins the sparse kernel so the completeness check stays
    // independent of whichever backend produced the table under test.
    clique::Options copt;
    copt.min_size = options.min_clique_size;
    copt.backend = clique::Backend::kSparse;
    std::vector<NodeSet> expected = clique::Enumerator(g, copt).collect();
    std::vector<NodeSet> actual = cpm.cliques;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      report.add("clique-complete",
                 "clique table has " + std::to_string(actual.size()) +
                     " entries, enumeration finds " +
                     std::to_string(expected.size()) +
                     " maximal cliques (or the sets differ)");
    }
  }
}

void check_community_shape(const Graph& g, const CpmResult& cpm,
                           Report& report) {
  for (const CommunitySet& set : cpm.by_k) {
    const std::size_t k = set.k;
    // Communities listing each clique at this level.
    std::vector<std::uint32_t> listings(cpm.cliques.size(), 0);
    for (CommunityId id = 0; id < set.count(); ++id) {
      const Community& c = set.communities[id];
      report.invariants_checked += 5;
      if (c.id != id || c.k != k) {
        report.add("community-shape",
                   at(k, id) + " carries (k=" + std::to_string(c.k) +
                       ", id=" + std::to_string(c.id) + ")");
      }
      if (!is_sorted_unique(c.nodes) ||
          (!c.nodes.empty() && c.nodes.back() >= g.num_nodes())) {
        report.add("community-shape",
                   at(k, id) + " node set is not sorted/unique/in-range: " +
                       show_nodes(c.nodes));
        continue;
      }
      if (c.size() < k) {
        report.add("community-shape",
                   at(k, id) + " has fewer than k members: " +
                       show_nodes(c.nodes));
      }
      if (id > 0) {
        const Community& prev = set.communities[id - 1];
        const bool ordered =
            prev.size() > c.size() ||
            (prev.size() == c.size() && prev.nodes <= c.nodes);
        if (!ordered) {
          report.add("canonical-order",
                     at(k, id) + " breaks the (size desc, nodes lex) order");
        }
      }
      if (cpm.cliques.empty()) continue;  // reference result: node sets only
      if (c.clique_ids.empty()) {
        report.add("community-cliques", at(k, id) + " lists no cliques");
        continue;
      }
      NodeSet covered;
      bool cliques_ok = is_sorted_unique(c.clique_ids);
      if (!cliques_ok) {
        report.add("community-cliques",
                   at(k, id) + " clique ids are not a sorted set");
      }
      for (CliqueId q : c.clique_ids) {
        if (q >= cpm.cliques.size()) {
          report.add("community-cliques",
                     at(k, id) + " references clique " + std::to_string(q) +
                         " outside the table");
          cliques_ok = false;
          break;
        }
        ++listings[q];
        covered = set_union(covered, cpm.cliques[q]);
      }
      if (cliques_ok && covered != c.nodes) {
        report.add("community-cliques",
                   at(k, id) + " nodes " + show_nodes(c.nodes) +
                       " are not the union of its cliques " +
                       show_nodes(covered));
      }
    }

    // Partition: the level's clique ids list every clique of size >= k in
    // exactly one community and no smaller clique in any. The community
    // tree and the canonical map line both read this partition.
    if (cpm.cliques.empty()) continue;
    for (CliqueId q = 0; q < cpm.cliques.size(); ++q) {
      ++report.invariants_checked;
      const bool eligible = cpm.cliques[q].size() >= k;
      if (listings[q] == (eligible ? 1u : 0u)) continue;
      report.add("clique-map",
                 "k=" + std::to_string(k) + " lists " +
                     (eligible ? "" : "undersized ") + "clique " +
                     std::to_string(q) + " in " +
                     std::to_string(listings[q]) + " communities");
    }
  }
}

// Connected components with >= 2 nodes, hand-rolled BFS over the graph:
// the k = 2 oracle, independent of the clique table every engine derives
// its k = 2 level from.
std::vector<NodeSet> derive_k2_communities(const Graph& g) {
  std::vector<NodeSet> out;
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (seen[start]) continue;
    NodeSet component{start};
    seen[start] = true;
    for (std::size_t head = 0; head < component.size(); ++head) {
      for (NodeId next : g.neighbors(component[head])) {
        if (!seen[next]) {
          seen[next] = true;
          component.push_back(next);
        }
      }
    }
    if (component.size() >= 2) {
      std::sort(component.begin(), component.end());
      out.push_back(std::move(component));
    }
  }
  return out;
}

// Re-derives the k-clique communities at one k by percolating eligible
// cliques through pairwise |A ∩ B| >= k-1 with a local DSU.
std::vector<NodeSet> derive_communities(const CpmResult& cpm, std::size_t k) {
  std::vector<CliqueId> eligible;
  for (CliqueId q = 0; q < cpm.cliques.size(); ++q) {
    if (cpm.cliques[q].size() >= k) eligible.push_back(q);
  }
  Dsu dsu(eligible.size());
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    for (std::size_t j = i + 1; j < eligible.size(); ++j) {
      if (intersection_at_least(cpm.cliques[eligible[i]],
                                cpm.cliques[eligible[j]], k - 1)) {
        dsu.unite(static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(j));
      }
    }
  }
  std::vector<NodeSet> unions(eligible.size());
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    NodeSet& target = unions[dsu.find(static_cast<std::uint32_t>(i))];
    target = set_union(target, cpm.cliques[eligible[i]]);
  }
  std::vector<NodeSet> out;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (dsu.find(static_cast<std::uint32_t>(i)) == i) {
      out.push_back(std::move(unions[i]));
    }
  }
  return out;
}

void check_percolation(const Graph& g, const CpmResult& cpm,
                       const InvariantOptions& options, Report& report) {
  if (cpm.cliques.empty() && cpm.max_k >= cpm.min_k) return;  // reference
  if (cpm.cliques.size() > options.max_cliques_for_percolation) return;
  for (const CommunitySet& set : cpm.by_k) {
    ++report.invariants_checked;
    std::vector<NodeSet> expected = set.k == 2
                                        ? derive_k2_communities(g)
                                        : derive_communities(cpm, set.k);
    std::sort(expected.begin(), expected.end(),
              [](const NodeSet& a, const NodeSet& b) {
                if (a.size() != b.size()) return a.size() > b.size();
                return a < b;
              });
    bool same = expected.size() == set.count();
    for (CommunityId id = 0; same && id < set.count(); ++id) {
      same = expected[id] == set.communities[id].nodes;
    }
    if (!same) {
      report.add("percolation",
                 "k=" + std::to_string(set.k) + ": engine emitted " +
                     std::to_string(set.count()) +
                     " communities, first-principles percolation derives " +
                     std::to_string(expected.size()) +
                     " (or their node sets differ)");
    }
  }
}

// Nesting theorem: every k-community lies inside a (k-1)-community. The
// parent is *unique* through clique percolation — all the child's cliques
// land in one (k-1)-community — but as plain node sets a child may also be
// a coincidental subset of a second, overlapping (k-1)-community (observed
// on dense fuzz graphs), so the node-set check demands >= 1, not == 1.
void check_nesting(const CpmResult& cpm, Report& report) {
  for (std::size_t k = cpm.min_k + 1; k <= cpm.max_k; ++k) {
    const CommunitySet& fine = cpm.at(k);
    const CommunitySet& coarse = cpm.at(k - 1);
    const std::vector<CommunityId> coarse_of_clique =
        clique_community_map(coarse, cpm.cliques.size());
    for (const Community& child : fine.communities) {
      ++report.invariants_checked;
      std::size_t containing = 0;
      for (const Community& parent : coarse.communities) {
        if (is_subset(child.nodes, parent.nodes)) ++containing;
      }
      if (containing == 0) {
        report.add("nesting",
                   at(k, child.id) + " lies in no (k-1)-community; the "
                       "nesting theorem requires one");
        continue;
      }
      if (child.clique_ids.empty() || cpm.cliques.empty()) {
        continue;  // reference result: node sets are all we have
      }
      // Clique-level uniqueness: every clique of the child percolates into
      // the same (k-1)-community, and the child's nodes sit inside it.
      ++report.invariants_checked;
      const auto coarse_of = [&](CliqueId q) {
        return q < coarse_of_clique.size() ? coarse_of_clique[q]
                                           : CommunitySet::kNoCommunity;
      };
      const CommunityId parent_id = coarse_of(child.clique_ids[0]);
      bool unique = parent_id != CommunitySet::kNoCommunity &&
                    parent_id < coarse.count();
      for (CliqueId q : child.clique_ids) {
        unique = unique && coarse_of(q) == parent_id;
      }
      if (!unique ||
          !is_subset(child.nodes, coarse.communities[parent_id].nodes)) {
        report.add("nesting",
                   at(k, child.id) + " cliques do not percolate into a "
                       "single containing (k-1)-community");
      }
    }
  }
}

void check_tree(const CpmResult& cpm, const CommunityTree& tree,
                Report& report) {
  report.invariants_checked += 2;
  if (tree.min_k() != cpm.min_k || tree.max_k() != cpm.max_k) {
    report.add("tree", "tree spans k in [" + std::to_string(tree.min_k()) +
                           ", " + std::to_string(tree.max_k()) +
                           "], communities span [" + std::to_string(cpm.min_k) +
                           ", " + std::to_string(cpm.max_k) + "]");
    return;
  }
  for (std::size_t k = cpm.min_k; k <= cpm.max_k; ++k) {
    ++report.invariants_checked;
    if (tree.level(k).size() != cpm.at(k).count()) {
      report.add("tree", "level k=" + std::to_string(k) + " has " +
                             std::to_string(tree.level(k).size()) +
                             " tree nodes for " +
                             std::to_string(cpm.at(k).count()) +
                             " communities");
      continue;
    }
    for (int idx : tree.level(k)) {
      const TreeNode& node = tree.nodes()[idx];
      report.invariants_checked += 3;
      if (node.community_id >= cpm.at(k).count()) {
        report.add("tree", "tree node " + std::to_string(idx) +
                               " references community " +
                               std::to_string(node.community_id) +
                               " beyond level k=" + std::to_string(k));
        continue;
      }
      const Community& community = cpm.at(k).communities[node.community_id];
      if (node.k != k || node.size != community.size()) {
        report.add("tree", "tree node " + std::to_string(idx) +
                               " misreports (k, size) for " +
                               at(k, node.community_id));
      }
      for (int child : node.children) {
        if (child < 0 ||
            static_cast<std::size_t>(child) >= tree.nodes().size() ||
            tree.nodes()[child].parent != idx) {
          report.add("tree", "tree node " + std::to_string(idx) +
                                 " lists child " + std::to_string(child) +
                                 " which does not point back");
        }
      }
      if (k == cpm.min_k) {
        if (node.parent >= 0) {
          report.add("tree", "bottom-level tree node " + std::to_string(idx) +
                                 " has a parent");
        }
        continue;
      }
      if (node.parent < 0 ||
          static_cast<std::size_t>(node.parent) >= tree.nodes().size()) {
        report.add("tree", "tree node " + std::to_string(idx) +
                               " at k=" + std::to_string(k) + " has no parent");
        continue;
      }
      const TreeNode& parent = tree.nodes()[node.parent];
      if (parent.k != k - 1) {
        report.add("tree", "tree node " + std::to_string(idx) +
                               " has a parent at k=" + std::to_string(parent.k) +
                               ", expected k-1");
        continue;
      }
      if (!is_subset(community.nodes,
                     cpm.at(k - 1).communities[parent.community_id].nodes)) {
        report.add("tree", at(k, node.community_id) +
                               " is not contained in its tree parent " +
                               at(k - 1, parent.community_id));
      }
    }
  }

  // Main chain: the apex is the canonical first community at max_k; is_main
  // must mark exactly the apex and its ancestors.
  ++report.invariants_checked;
  const int apex = tree.apex();
  if (apex < 0 || tree.nodes()[apex].k != cpm.max_k ||
      tree.nodes()[apex].community_id != 0) {
    report.add("tree-main", "apex is not the canonical first community at "
                            "the maximum k");
    return;
  }
  std::vector<bool> on_chain(tree.nodes().size(), false);
  for (int cursor = apex; cursor >= 0; cursor = tree.nodes()[cursor].parent) {
    on_chain[cursor] = true;
  }
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    ++report.invariants_checked;
    if (tree.nodes()[i].is_main != on_chain[i]) {
      report.add("tree-main",
                 "tree node " + std::to_string(i) + " is_main=" +
                     (tree.nodes()[i].is_main ? "true" : "false") +
                     " but the apex ancestor chain says otherwise");
    }
  }
}

void check_metrics(const Graph& g, const CpmResult& cpm, Report& report) {
  constexpr double kTol = 1e-9;
  for (const CommunitySet& set : cpm.by_k) {
    const std::vector<CommunityMetrics> exported = compute_metrics(g, set);
    if (exported.size() != set.count()) {
      report.add("metrics", "k=" + std::to_string(set.k) +
                                ": compute_metrics returns " +
                                std::to_string(exported.size()) +
                                " rows for " + std::to_string(set.count()) +
                                " communities");
      continue;
    }
    for (CommunityId id = 0; id < set.count(); ++id) {
      report.invariants_checked += 2;
      const NodeSet& nodes = set.communities[id].nodes;
      // Naive density: count present member pairs.
      std::size_t internal_edges = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t j = i + 1; j < nodes.size(); ++j) {
          if (g.has_edge(nodes[i], nodes[j])) ++internal_edges;
        }
      }
      const double pairs =
          static_cast<double>(nodes.size()) * (nodes.size() - 1) / 2.0;
      const double density =
          nodes.size() < 2 ? 0.0 : static_cast<double>(internal_edges) / pairs;
      if (std::abs(density - exported[id].density) > kTol) {
        report.add("metrics", at(set.k, id) + " exported density " +
                                  std::to_string(exported[id].density) +
                                  " != recomputed " + std::to_string(density));
      }
      // Naive average ODF: per member, leaving degree over total degree.
      double odf_sum = 0.0;
      for (NodeId v : nodes) {
        std::size_t inside = 0;
        for (NodeId u : g.neighbors(v)) {
          if (contains(nodes, u)) ++inside;
        }
        const std::size_t degree = g.degree(v);
        odf_sum += degree == 0
                       ? 1.0
                       : static_cast<double>(degree - inside) / degree;
      }
      const double avg_odf = nodes.empty() ? 0.0 : odf_sum / nodes.size();
      if (std::abs(avg_odf - exported[id].avg_odf) > kTol) {
        report.add("metrics", at(set.k, id) + " exported avg ODF " +
                                  std::to_string(exported[id].avg_odf) +
                                  " != recomputed " + std::to_string(avg_odf));
      }
    }
    // Pairwise overlap export vs a direct intersection count (bounded
    // sample: the first few pairs at this level).
    const std::size_t sample = std::min<std::size_t>(set.count(), 4);
    for (CommunityId a = 0; a < sample; ++a) {
      for (CommunityId b = a + 1; b < sample; ++b) {
        ++report.invariants_checked;
        const std::size_t exported_overlap =
            community_overlap(set.communities[a], set.communities[b]);
        std::size_t naive = 0;
        for (NodeId v : set.communities[a].nodes) {
          if (contains(set.communities[b].nodes, v)) ++naive;
        }
        if (exported_overlap != naive) {
          report.add("metrics",
                     "k=" + std::to_string(set.k) + " overlap(" +
                         std::to_string(a) + ", " + std::to_string(b) +
                         ") exported " + std::to_string(exported_overlap) +
                         " != recomputed " + std::to_string(naive));
        }
      }
    }
  }
}

}  // namespace

void Report::add(std::string invariant, std::string detail) {
  failures.push_back({std::move(invariant), std::move(detail)});
}

void Report::merge(Report other) {
  invariants_checked += other.invariants_checked;
  failures.insert(failures.end(),
                  std::make_move_iterator(other.failures.begin()),
                  std::make_move_iterator(other.failures.end()));
}

std::string Report::to_string() const {
  std::ostringstream out;
  for (const Failure& f : failures) {
    out << "[" << f.invariant << "] " << f.detail << '\n';
  }
  return out.str();
}

Report check_invariants(const Graph& g, const cpm::Result& result,
                        const InvariantOptions& options) {
  Report report;
  const CpmResult& cpm = result.cpm;
  ++report.invariants_checked;
  if (cpm.max_k < cpm.min_k) {
    if (!cpm.by_k.empty()) {
      report.add("community-shape",
                 "empty k range but " + std::to_string(cpm.by_k.size()) +
                     " levels present");
    }
    return report;
  }
  if (cpm.by_k.size() != cpm.max_k - cpm.min_k + 1) {
    report.add("community-shape",
               "k range [" + std::to_string(cpm.min_k) + ", " +
                   std::to_string(cpm.max_k) + "] does not match " +
                   std::to_string(cpm.by_k.size()) + " levels");
    return report;
  }
  for (std::size_t i = 0; i < cpm.by_k.size(); ++i) {
    ++report.invariants_checked;
    if (cpm.by_k[i].k != cpm.min_k + i) {
      report.add("community-shape",
                 "level " + std::to_string(i) + " carries k=" +
                     std::to_string(cpm.by_k[i].k) + ", expected " +
                     std::to_string(cpm.min_k + i));
      return report;
    }
  }

  if (!cpm.cliques.empty()) check_clique_table(g, cpm, options, report);
  check_community_shape(g, cpm, report);
  check_percolation(g, cpm, options, report);
  check_nesting(cpm, report);
  if (result.has_tree) check_tree(cpm, result.tree, report);
  if (options.check_metrics) check_metrics(g, cpm, report);
  return report;
}

}  // namespace kcc::check
