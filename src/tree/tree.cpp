#include "tree/tree.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace fdml {

Tree::Tree(int num_taxa) : num_taxa_(num_taxa) {
  if (num_taxa < 3) throw std::invalid_argument("Tree needs capacity >= 3 taxa");
  // Tips [0, T) plus up to T-2 internal nodes.
  nodes_.resize(static_cast<std::size_t>(2 * num_taxa - 2));
  free_internals_.reserve(static_cast<std::size_t>(num_taxa - 2));
  for (int node = max_nodes() - 1; node >= num_taxa_; --node) {
    free_internals_.push_back(node);
  }
}

std::vector<int> Tree::tips() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(tip_count_));
  for (int t = 0; t < num_taxa_; ++t) {
    if (contains(t)) out.push_back(t);
  }
  return out;
}

int Tree::find_slot(int u, int v) const {
  const Node& node = nodes_[u];
  for (int s = 0; s < 3; ++s) {
    if (node.adj[s] == v) return s;
  }
  return -1;
}

double Tree::length(int u, int v) const {
  const int slot = find_slot(u, v);
  if (slot < 0) throw std::logic_error("length: no edge " + std::to_string(u) +
                                       "-" + std::to_string(v));
  return nodes_[u].len[slot];
}

void Tree::set_length(int u, int v, double t) {
  const int su = find_slot(u, v);
  const int sv = find_slot(v, u);
  if (su < 0 || sv < 0) {
    throw std::logic_error("set_length: no edge " + std::to_string(u) + "-" +
                           std::to_string(v));
  }
  nodes_[u].len[su] = t;
  nodes_[v].len[sv] = t;
}

int Tree::allocate_internal() {
  if (free_internals_.empty()) throw std::logic_error("internal node pool exhausted");
  const int node = free_internals_.back();
  free_internals_.pop_back();
  return node;
}

void Tree::free_internal(int node) { free_internals_.push_back(node); }

void Tree::link(int u, int v, double t) {
  for (int* end : {&u, &v}) {
    Node& node = nodes_[*end];
    const int other = (*end == u) ? v : u;
    int slot = -1;
    for (int s = 0; s < 3; ++s) {
      if (node.adj[s] == kNoNode) {
        slot = s;
        break;
      }
    }
    if (slot < 0) throw std::logic_error("link: node has no free slot");
    if (is_tip(*end) && slot != 0) throw std::logic_error("link: tip already linked");
    node.adj[slot] = other;
    node.len[slot] = t;
    ++node.degree;
  }
}

void Tree::unlink(int u, int v) {
  for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    const int slot = find_slot(a, b);
    if (slot < 0) throw std::logic_error("unlink: missing edge");
    nodes_[a].adj[slot] = kNoNode;
    nodes_[a].len[slot] = 0.0;
    --nodes_[a].degree;
  }
}

int Tree::make_triplet(int a, int b, int c, double la, double lb, double lc) {
  if (tip_count_ != 0) throw std::logic_error("make_triplet: tree not empty");
  for (int tip : {a, b, c}) {
    if (!is_tip(tip)) throw std::invalid_argument("make_triplet: not a tip id");
  }
  const int center = allocate_internal();
  link(a, center, la);
  link(b, center, lb);
  link(c, center, lc);
  tip_count_ = 3;
  return center;
}

int Tree::insert_tip(int tip, int u, int v, double tip_length,
                     double split_fraction) {
  if (!is_tip(tip) || contains(tip)) {
    throw std::invalid_argument("insert_tip: invalid or already-placed tip");
  }
  const double old = length(u, v);
  const int middle = allocate_internal();
  unlink(u, v);
  const double left = std::max(kMinBranchLength, old * split_fraction);
  const double right = std::max(kMinBranchLength, old - old * split_fraction);
  link(u, middle, left);
  link(middle, v, right);
  link(tip, middle, tip_length);
  ++tip_count_;
  return middle;
}

void Tree::remove_tip(int tip) {
  if (!is_tip(tip) || !contains(tip)) throw std::invalid_argument("remove_tip");
  if (tip_count_ <= 3) throw std::logic_error("remove_tip: tree would collapse");
  const int middle = neighbor(tip, 0);
  // Identify middle's other two neighbors.
  int a = kNoNode;
  int b = kNoNode;
  for (int s = 0; s < 3; ++s) {
    const int nbr = nodes_[middle].adj[s];
    if (nbr == tip || nbr == kNoNode) continue;
    (a == kNoNode ? a : b) = nbr;
  }
  const double joined = length(a, middle) + length(middle, b);
  unlink(tip, middle);
  unlink(a, middle);
  unlink(middle, b);
  link(a, b, joined);
  free_internal(middle);
  --tip_count_;
}

Tree::SprHandle Tree::prune_subtree(int junction, int subtree_neighbor) {
  if (is_tip(junction)) throw std::invalid_argument("prune_subtree: junction must be internal");
  if (find_slot(junction, subtree_neighbor) < 0) {
    throw std::invalid_argument("prune_subtree: subtree_neighbor not adjacent");
  }
  SprHandle handle;
  handle.junction = junction;
  handle.subtree = subtree_neighbor;
  double joined = 0.0;
  for (int s = 0; s < 3; ++s) {
    const int nbr = nodes_[junction].adj[s];
    if (nbr == subtree_neighbor || nbr == kNoNode) continue;
    (handle.left == kNoNode ? handle.left : handle.right) = nbr;
    joined += nodes_[junction].len[s];
  }
  unlink(junction, handle.left);
  unlink(junction, handle.right);
  link(handle.left, handle.right, joined);
  return handle;
}

void Tree::regraft(const SprHandle& handle, int u, int v,
                   double split_fraction) {
  const double old = length(u, v);
  unlink(u, v);
  const double left = std::max(kMinBranchLength, old * split_fraction);
  const double right = std::max(kMinBranchLength, old - old * split_fraction);
  link(u, handle.junction, left);
  link(handle.junction, v, right);
}

void Tree::add_edge(int u, int v, double t) {
  for (int end : {u, v}) {
    if (is_tip(end) && !contains(end)) ++tip_count_;
  }
  link(u, v, t);
}

std::vector<std::pair<int, int>> Tree::edges() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(std::max(0, num_edges())));
  for (int u = 0; u < max_nodes(); ++u) {
    for (int s = 0; s < 3; ++s) {
      const int v = nodes_[u].adj[s];
      if (v > u) out.emplace_back(u, v);
    }
  }
  return out;
}

int Tree::num_edges() const {
  return tip_count_ >= 3 ? 2 * tip_count_ - 3 : (tip_count_ == 2 ? 1 : 0);
}

int Tree::any_internal() const {
  for (int node = num_taxa_; node < max_nodes(); ++node) {
    if (contains(node)) return node;
  }
  return kNoNode;
}

void Tree::collect_subtree_tips(int node, int from, std::vector<int>& out) const {
  if (is_tip(node)) {
    out.push_back(node);
    return;
  }
  for (int s = 0; s < 3; ++s) {
    const int nbr = nodes_[node].adj[s];
    if (nbr == kNoNode || nbr == from) continue;
    collect_subtree_tips(nbr, node, out);
  }
}

void Tree::check_valid() const {
  int tips_seen = 0;
  int internals_seen = 0;
  for (int node = 0; node < max_nodes(); ++node) {
    const Node& n = nodes_[node];
    int live = 0;
    for (int s = 0; s < 3; ++s) {
      if (n.adj[s] == kNoNode) continue;
      ++live;
      const int back = find_slot(n.adj[s], node);
      if (back < 0) throw std::logic_error("check_valid: asymmetric adjacency");
      if (nodes_[n.adj[s]].len[back] != n.len[s]) {
        throw std::logic_error("check_valid: asymmetric branch length");
      }
      if (n.len[s] < 0.0) throw std::logic_error("check_valid: negative length");
    }
    if (live != n.degree) throw std::logic_error("check_valid: degree mismatch");
    if (n.degree == 0) continue;
    if (is_tip(node)) {
      if (n.degree != 1) throw std::logic_error("check_valid: tip degree != 1");
      ++tips_seen;
    } else {
      if (n.degree != 3) throw std::logic_error("check_valid: internal degree != 3");
      ++internals_seen;
    }
  }
  if (tips_seen != tip_count_) throw std::logic_error("check_valid: tip count");
  if (tips_seen >= 3 && internals_seen != tips_seen - 2) {
    throw std::logic_error("check_valid: internal node count");
  }
  if (tips_seen >= 3) {
    // Connectivity: walk from one tip, count reachable nodes.
    std::vector<int> stack;
    std::vector<char> seen(static_cast<std::size_t>(max_nodes()), 0);
    int start = -1;
    for (int t = 0; t < num_taxa_; ++t) {
      if (contains(t)) {
        start = t;
        break;
      }
    }
    stack.push_back(start);
    seen[static_cast<std::size_t>(start)] = 1;
    int visited = 0;
    while (!stack.empty()) {
      const int node = stack.back();
      stack.pop_back();
      ++visited;
      for (int s = 0; s < 3; ++s) {
        const int nbr = nodes_[node].adj[s];
        if (nbr == kNoNode || seen[static_cast<std::size_t>(nbr)]) continue;
        seen[static_cast<std::size_t>(nbr)] = 1;
        stack.push_back(nbr);
      }
    }
    if (visited != tips_seen + internals_seen) {
      throw std::logic_error("check_valid: tree is disconnected");
    }
  }
}

int min_taxon_behind(const Tree& tree, int node, int from) {
  if (tree.is_tip(node)) return node;
  int best = std::numeric_limits<int>::max();
  for (int s = 0; s < 3; ++s) {
    const int nbr = tree.neighbor(node, s);
    if (nbr == from || nbr == Tree::kNoNode) continue;
    best = std::min(best, min_taxon_behind(tree, nbr, node));
  }
  return best;
}

}  // namespace fdml
