// Tests for layouts and renderers (the Open Inventor viewer substitute).
#include <gtest/gtest.h>

#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "viz/ascii.hpp"
#include "viz/layout.hpp"
#include "viz/svg.hpp"

namespace fdml {
namespace {

GeneralTree sample_tree() {
  return parse_newick("((a:1,b:2):1,(c:1,(d:1,e:1):0.5):2,f:3);");
}

TEST(Layout, RectangularDepthsAndRanks) {
  const GeneralTree tree = sample_tree();
  const TreeLayout layout = rectangular_layout(tree);
  ASSERT_EQ(layout.positions.size(), tree.size());
  // Root at the origin.
  EXPECT_DOUBLE_EQ(layout.positions[static_cast<std::size_t>(tree.root())].x, 0.0);
  // Leaf depths equal cumulative path lengths.
  for (int id : tree.leaves()) {
    double depth = 0.0;
    for (int walk = id; walk != tree.root(); walk = tree.node(walk).parent) {
      depth += tree.node(walk).length;
    }
    EXPECT_DOUBLE_EQ(layout.positions[static_cast<std::size_t>(id)].x, depth);
  }
  // Leaves occupy distinct integer ranks 0..leaves-1.
  std::vector<double> ranks;
  for (int id : tree.leaves()) {
    ranks.push_back(layout.positions[static_cast<std::size_t>(id)].y);
  }
  std::sort(ranks.begin(), ranks.end());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_DOUBLE_EQ(ranks[i], static_cast<double>(i));
  }
  // Internal nodes sit between their extreme children.
  for (int id : tree.preorder()) {
    const auto& node = tree.node(id);
    if (node.children.empty()) continue;
    double lo = 1e300;
    double hi = -1e300;
    for (int child : node.children) {
      lo = std::min(lo, layout.positions[static_cast<std::size_t>(child)].y);
      hi = std::max(hi, layout.positions[static_cast<std::size_t>(child)].y);
    }
    const double y = layout.positions[static_cast<std::size_t>(id)].y;
    EXPECT_GE(y, lo);
    EXPECT_LE(y, hi);
  }
}

TEST(Layout, CladogramIgnoresLengths) {
  const GeneralTree tree = sample_tree();
  const TreeLayout layout = rectangular_layout(tree, false);
  for (int id : tree.preorder()) {
    if (id == tree.root()) continue;
    const double dx = layout.positions[static_cast<std::size_t>(id)].x -
                      layout.positions[static_cast<std::size_t>(tree.node(id).parent)].x;
    EXPECT_DOUBLE_EQ(dx, 1.0);
  }
}

TEST(Layout, EqualAngleSeparatesLeaves) {
  Rng rng(3);
  const Tree tree = random_tree(12, rng);
  std::vector<std::string> names(12, "t");
  for (int i = 0; i < 12; ++i) names[static_cast<std::size_t>(i)] += std::to_string(i);
  const GeneralTree general = GeneralTree::from_tree(tree, names);
  const TreeLayout layout = equal_angle_layout(general);
  // All leaf positions distinct and within the bounding box.
  const auto leaves = general.leaves();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const auto& p = layout.positions[static_cast<std::size_t>(leaves[i])];
    EXPECT_GE(p.x, -1e-9);
    EXPECT_LE(p.x, layout.width + 1e-9);
    EXPECT_GE(p.y, -1e-9);
    EXPECT_LE(p.y, layout.height + 1e-9);
    for (std::size_t j = i + 1; j < leaves.size(); ++j) {
      const auto& q = layout.positions[static_cast<std::size_t>(leaves[j])];
      const double dist = std::hypot(p.x - q.x, p.y - q.y);
      EXPECT_GT(dist, 1e-6) << "leaves must not collide";
    }
  }
}

TEST(Ascii, RendersEveryLeafLabelOnItsOwnLine) {
  const GeneralTree tree = sample_tree();
  const std::string art = render_ascii(tree);
  for (const char* label : {"a", "b", "c", "d", "e", "f"}) {
    EXPECT_NE(art.find(std::string(" ") + label), std::string::npos) << art;
  }
  // Contains drawing characters.
  EXPECT_NE(art.find('-'), std::string::npos);
  EXPECT_NE(art.find('+'), std::string::npos);
}

TEST(Ascii, SupportValuesShown) {
  GeneralTree tree = parse_newick("((a:1,b:1)0.85:1,c:1,d:1);");
  AsciiOptions options;
  options.show_support = true;
  const std::string art = render_ascii(tree, options);
  EXPECT_NE(art.find("85"), std::string::npos) << art;
}

TEST(Svg, SingleTreeDocumentIsWellFormedIsh) {
  const GeneralTree tree = sample_tree();
  const std::string svg = render_svg(tree);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  for (const char* label : {">a<", ">b<", ">f<"}) {
    EXPECT_NE(svg.find(label), std::string::npos);
  }
  // One path per non-root edge.
  std::size_t paths = 0;
  for (std::size_t at = svg.find("<path"); at != std::string::npos;
       at = svg.find("<path", at + 1)) {
    ++paths;
  }
  EXPECT_EQ(paths, tree.size() - 1);
}

TEST(Svg, EscapesLabels) {
  GeneralTree tree;
  tree.make_root();
  tree.add_child(tree.root(), "A&B<C>", 1.0);
  tree.add_child(tree.root(), "plain", 1.0);
  const std::string svg = render_svg(tree);
  EXPECT_NE(svg.find("A&amp;B&lt;C&gt;"), std::string::npos);
  EXPECT_EQ(svg.find("A&B<C>"), std::string::npos);
}

TEST(Svg, ComparisonPanelsAndTraces) {
  GeneralTree a = parse_newick("((x:1,y:1):1,(z:1,w:1):1);");
  GeneralTree b = parse_newick("((x:1,z:1):1,(y:1,w:1):1);");
  const std::string svg =
      render_comparison_svg({a, b}, {"x", "w"}, {"run 1", "run 2"});
  EXPECT_NE(svg.find("run 1"), std::string::npos);
  EXPECT_NE(svg.find("run 2"), std::string::npos);
  // Two polyline traces and 4 trace markers.
  std::size_t polylines = 0;
  for (std::size_t at = svg.find("<polyline"); at != std::string::npos;
       at = svg.find("<polyline", at + 1)) {
    ++polylines;
  }
  EXPECT_EQ(polylines, 2u);
  std::size_t circles = 0;
  for (std::size_t at = svg.find("<circle"); at != std::string::npos;
       at = svg.find("<circle", at + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, 4u);
}

TEST(Svg, CanonicalizationMakesEquivalentDrawingsIdentical) {
  // Same topology with reversed branch orders: after the comparison view's
  // pivot normalization, both panels render identical tree geometry.
  GeneralTree a = parse_newick("((b:1,a:1):1,(d:1,c:1):1);");
  GeneralTree b = parse_newick("((c:1,d:1):1,(a:1,b:1):1);");
  const SvgOptions options;
  const std::string one = render_svg([&] {
    GeneralTree t = a;
    t.canonicalize();
    return t;
  }(), options);
  const std::string two = render_svg([&] {
    GeneralTree t = b;
    t.canonicalize();
    return t;
  }(), options);
  EXPECT_EQ(one, two);
}

}  // namespace
}  // namespace fdml
