#include "tree/newick.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

namespace fdml {

namespace {

/// Appends `value` with `precision` significant digits. std::to_chars in
/// chars_format::general with a precision is specified as printf's "%.*g"
/// in the C locale, so the text is the same as snprintf's, without the
/// format parsing and the std::string per length.
void append_length(std::string& out, double value, int precision) {
  char buf[64];
  const auto [end, error] = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, precision);
  if (error != std::errc{}) {
    throw std::invalid_argument("to_newick: precision " +
                                std::to_string(precision) + " is too large");
  }
  out.append(buf, end);
}

void write_general(const GeneralTree& tree, int id, int precision,
                   std::string& out) {
  const auto& node = tree.node(id);
  if (!node.children.empty()) {
    out.push_back('(');
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) out.push_back(',');
      write_general(tree, node.children[i], precision, out);
    }
    out.push_back(')');
    if (!std::isnan(node.support)) {
      append_length(out, node.support, 6);
    } else {
      out += node.label;
    }
  } else {
    out += node.label;
  }
  if (id != tree.root()) {
    out.push_back(':');
    append_length(out, node.length, precision);
  }
}

void write_unrooted(const Tree& tree, int node, int from,
                    const std::vector<std::string>& names, int precision,
                    std::string& out) {
  if (tree.is_tip(node)) {
    out += names.at(static_cast<std::size_t>(node));
  } else {
    out.push_back('(');
    bool first = true;
    for (int s = 0; s < 3; ++s) {
      const int nbr = tree.neighbor(node, s);
      if (nbr == Tree::kNoNode || nbr == from) continue;
      if (!first) out.push_back(',');
      first = false;
      write_unrooted(tree, nbr, node, names, precision, out);
    }
    out.push_back(')');
  }
  if (from >= 0) {
    out.push_back(':');
    append_length(out, tree.length(from, node), precision);
  }
}

class NewickLexer {
 public:
  explicit NewickLexer(const std::string& text) : text_(text) {}

  char peek() {
    skip();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char take() {
    skip();
    if (pos_ >= text_.size()) throw std::runtime_error("Newick: unexpected end");
    return text_[pos_++];
  }

  void expect(char c) {
    const char got = take();
    if (got != c) {
      throw std::runtime_error(std::string("Newick: expected '") + c +
                               "' but found '" + got + "'");
    }
  }

  std::string label() {
    skip();
    std::string out;
    if (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      while (pos_ < text_.size()) {
        if (text_[pos_] == '\'') {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
            out.push_back('\'');
            pos_ += 2;
          } else {
            ++pos_;
            return out;
          }
        } else {
          out.push_back(text_[pos_++]);
        }
      }
      throw std::runtime_error("Newick: unterminated quoted label");
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
          c == '[' || std::isspace(static_cast<unsigned char>(c))) {
        break;
      }
      out.push_back(c);
      ++pos_;
    }
    return out;
  }

  double number() {
    skip();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) throw std::runtime_error("Newick: expected a number");
    pos_ += static_cast<std::size_t>(end - start);
    return value;
  }

 private:
  void skip() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ < text_.size() && text_[pos_] == '[') {
        // Bracketed comment, possibly nested.
        int depth = 0;
        while (pos_ < text_.size()) {
          if (text_[pos_] == '[') ++depth;
          if (text_[pos_] == ']') {
            --depth;
            ++pos_;
            if (depth == 0) break;
            continue;
          }
          ++pos_;
        }
        if (depth != 0) throw std::runtime_error("Newick: unterminated comment");
        continue;
      }
      return;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void parse_clade(NewickLexer& lexer, GeneralTree& tree, int node_id) {
  if (lexer.peek() == '(') {
    lexer.expect('(');
    for (;;) {
      const int child = tree.add_child(node_id);
      parse_clade(lexer, tree, child);
      const char c = lexer.take();
      if (c == ',') continue;
      if (c == ')') break;
      throw std::runtime_error("Newick: expected ',' or ')'");
    }
    // Optional internal label: numeric labels are stored as support.
    const std::string label = lexer.label();
    if (!label.empty()) {
      char* end = nullptr;
      const double support = std::strtod(label.c_str(), &end);
      if (end == label.c_str() + label.size()) {
        tree.node(node_id).support = support;
      } else {
        tree.node(node_id).label = label;
      }
    }
  } else {
    const std::string label = lexer.label();
    if (label.empty()) throw std::runtime_error("Newick: missing leaf label");
    tree.node(node_id).label = label;
  }
  if (lexer.peek() == ':') {
    lexer.expect(':');
    tree.node(node_id).length = lexer.number();
  }
}

}  // namespace

std::string to_newick(const GeneralTree& tree, int precision) {
  if (tree.empty()) return ";";
  std::string out;
  write_general(tree, tree.root(), precision, out);
  out.push_back(';');
  return out;
}

std::string to_newick(const Tree& tree, const std::vector<std::string>& names,
                      int precision) {
  const int root = tree.any_internal();
  if (root == Tree::kNoNode) throw std::invalid_argument("to_newick: empty tree");
  std::string out;
  write_unrooted(tree, root, -1, names, precision, out);
  out.push_back(';');
  return out;
}

GeneralTree parse_newick(const std::string& text) {
  NewickLexer lexer(text);
  GeneralTree tree;
  tree.make_root();
  parse_clade(lexer, tree, tree.root());
  if (lexer.peek() == ';') lexer.expect(';');
  return tree;
}

Tree tree_from_newick(const std::string& text,
                      const std::vector<std::string>& names) {
  const GeneralTree general = parse_newick(text);

  std::map<std::string, int> taxon_of;
  for (std::size_t i = 0; i < names.size(); ++i) {
    taxon_of[names[i]] = static_cast<int>(i);
  }

  Tree tree(static_cast<int>(names.size()));

  // Recursive conversion returning the Tree node id for a GeneralTree clade.
  auto convert = [&](auto&& self, int gt_id) -> int {
    const auto& node = general.node(gt_id);
    if (node.children.empty()) {
      const auto it = taxon_of.find(node.label);
      if (it == taxon_of.end()) {
        throw std::runtime_error("Newick: unknown taxon '" + node.label + "'");
      }
      return it->second;
    }
    if (node.children.size() != 2) {
      throw std::runtime_error("Newick: non-bifurcating internal node");
    }
    const int internal = tree.allocate_internal_node();
    for (int child_gt : node.children) {
      const int child = self(self, child_gt);
      tree.add_edge(internal, child, general.node(child_gt).length);
    }
    return internal;
  };

  const auto& root = general.node(general.root());
  if (root.children.size() == 3) {
    const int center = tree.allocate_internal_node();
    for (int child_gt : root.children) {
      const int child = convert(convert, child_gt);
      tree.add_edge(center, child, general.node(child_gt).length);
    }
  } else if (root.children.size() == 2) {
    // Rooted input: suppress the degree-2 root, fusing its two edges.
    const int a = convert(convert, root.children[0]);
    const int b = convert(convert, root.children[1]);
    const double joined = general.node(root.children[0]).length +
                          general.node(root.children[1]).length;
    tree.add_edge(a, b, std::max(joined, kMinBranchLength));
  } else {
    throw std::runtime_error("Newick: root must have 2 or 3 children");
  }
  tree.check_valid();
  return tree;
}

}  // namespace fdml
