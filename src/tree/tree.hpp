// Unrooted bifurcating phylogenetic tree.
//
// Node ids are stable: tips are 0..num_taxa-1 (whether or not they are
// currently in the tree — stepwise addition grows the tree one tip at a
// time), internal nodes are allocated from num_taxa upward. A tree over n
// tips has n-2 internal nodes and 2n-3 edges. Branch lengths are expected
// substitutions per site, stored symmetrically on both half-edges.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace fdml {

/// Minimum branch length the optimizer and tree operations will produce.
inline constexpr double kMinBranchLength = 1e-8;
/// Maximum branch length (saturation).
inline constexpr double kMaxBranchLength = 64.0;
/// Default length assigned to newly created branches before optimization.
inline constexpr double kDefaultBranchLength = 0.1;

class Tree {
 public:
  static constexpr int kNoNode = -1;

  /// Creates an empty tree with capacity for `num_taxa` tips.
  explicit Tree(int num_taxa);

  int num_taxa() const { return num_taxa_; }
  /// Total node table size (tips + allocatable internals).
  int max_nodes() const { return static_cast<int>(nodes_.size()); }
  bool is_tip(int node) const { return node < num_taxa_; }
  /// Number of tips currently joined into the tree.
  int tip_count() const { return tip_count_; }
  /// All tip ids currently in the tree, ascending.
  std::vector<int> tips() const;

  bool contains(int node) const { return nodes_[node].degree > 0; }
  int degree(int node) const { return nodes_[node].degree; }

  /// Neighbor in adjacency slot 0..2 (kNoNode if the slot is empty).
  int neighbor(int node, int slot) const { return nodes_[node].adj[slot]; }
  /// Length stored on (node, slot).
  double slot_length(int node, int slot) const { return nodes_[node].len[slot]; }
  /// Slot of `v` in `u`'s adjacency, or -1.
  int find_slot(int u, int v) const;
  bool adjacent(int u, int v) const { return find_slot(u, v) >= 0; }

  double length(int u, int v) const;
  void set_length(int u, int v, double t);

  /// Builds the unique 3-taxon topology over tips a, b, c. The tree must be
  /// empty. Returns the central internal node.
  int make_triplet(int a, int b, int c, double la = kDefaultBranchLength,
                   double lb = kDefaultBranchLength,
                   double lc = kDefaultBranchLength);

  /// Splits edge (u, v) with a new internal node m and attaches `tip` to m.
  /// The old length is divided between (u,m) and (m,v) by `split_fraction`.
  /// Returns m.
  int insert_tip(int tip, int u, int v, double tip_length = kDefaultBranchLength,
                 double split_fraction = 0.5);

  /// Removes a tip and its attachment node, fusing the two remaining edges
  /// (lengths add). The tree must keep at least 3 tips.
  void remove_tip(int tip);

  /// A pruned subtree produced by prune_subtree, ready to regraft.
  struct SprHandle {
    int junction = kNoNode;       ///< internal node carried with the subtree
    int subtree = kNoNode;        ///< neighbor of junction on the subtree side
    int left = kNoNode;           ///< one endpoint of the edge closed by the prune
    int right = kNoNode;          ///< other endpoint
  };

  /// Detaches the subtree hanging off `junction` on the side of
  /// `subtree_neighbor`. `junction` must be internal; its other two
  /// neighbors are joined by an edge of summed length. The subtree keeps
  /// `junction` as a dangling attachment point.
  SprHandle prune_subtree(int junction, int subtree_neighbor);

  /// Reinserts a pruned subtree into edge (u, v), splitting it at
  /// `split_fraction`. The handle's junction becomes the new attachment.
  void regraft(const SprHandle& handle, int u, int v,
               double split_fraction = 0.5);

  /// Every undirected edge once, as (u, v) pairs with u < v.
  std::vector<std::pair<int, int>> edges() const;
  /// Number of undirected edges (2 * tips - 3 once >= 2 tips are in).
  int num_edges() const;

  /// An arbitrary internal node of the current tree (kNoNode if none).
  int any_internal() const;

  /// Walks tips of the subtree seen from directed edge (from -> node).
  /// Appends tip ids to `out`.
  void collect_subtree_tips(int node, int from, std::vector<int>& out) const;

  /// Verifies structural invariants (degrees, symmetry of adjacency and
  /// lengths, connectivity, node counts); throws std::logic_error on
  /// violation. Used heavily by tests.
  void check_valid() const;

  // --- Raw construction (used by the Newick parser and by tests) ---

  /// Allocates a fresh internal node id.
  int allocate_internal_node() { return allocate_internal(); }

  /// Adds edge u—v with length t. Joining a previously-absent tip updates
  /// the tip count. The caller is responsible for ending with a valid
  /// bifurcating tree (verify with check_valid()).
  void add_edge(int u, int v, double t);

 private:
  struct Node {
    std::array<int, 3> adj{kNoNode, kNoNode, kNoNode};
    std::array<double, 3> len{0.0, 0.0, 0.0};
    int degree = 0;
  };

  int allocate_internal();
  void free_internal(int node);
  /// Links u and v with length t (fills first free slot on each side).
  void link(int u, int v, double t);
  /// Unlinks the edge u—v.
  void unlink(int u, int v);

  int num_taxa_;
  int tip_count_ = 0;
  std::vector<Node> nodes_;
  std::vector<int> free_internals_;
};

/// Smallest taxon id in the subtree behind `node` as seen from `from`: a
/// label of that side that every parse of the same Newick agrees on
/// (internal node ids depend on parse order; taxon ids do not).
int min_taxon_behind(const Tree& tree, int node, int from);

}  // namespace fdml
