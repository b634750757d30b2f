#include "nstate/alphabet.hpp"

#include <cctype>
#include <stdexcept>
#include <utility>

namespace fdml {

namespace {

constexpr std::uint32_t kA = 1u << 0;
constexpr std::uint32_t kC = 1u << 1;
constexpr std::uint32_t kG = 1u << 2;
constexpr std::uint32_t kT = 1u << 3;

/// IUPAC nucleotide codes other than the four bases, as base sets (U is T).
/// They cover bases only: a resolved R is A or G, never a gap.
constexpr std::pair<char, std::uint32_t> kIupacBases[] = {
    {'U', kT},           {'R', kA | kG},      {'Y', kC | kT},
    {'M', kA | kC},      {'K', kG | kT},      {'S', kC | kG},
    {'W', kA | kT},      {'B', kC | kG | kT}, {'D', kA | kG | kT},
    {'H', kA | kC | kT}, {'V', kA | kC | kG},
};

}  // namespace

StateAlphabet::StateAlphabet(std::string name, std::string symbols,
                             char unknown_char)
    : name_(std::move(name)),
      num_states_(static_cast<int>(symbols.size())),
      symbols_(std::move(symbols)),
      unknown_char_(unknown_char) {
  if (num_states_ < 2 || num_states_ > 32) {
    throw std::invalid_argument("StateAlphabet: 2..32 states supported");
  }
  unknown_mask_ = num_states_ == 32 ? ~std::uint32_t{0}
                                    : (std::uint32_t{1} << num_states_) - 1;
  for (int s = 0; s < num_states_; ++s) {
    map_state(symbols_[static_cast<std::size_t>(s)], s);
  }
}

void StateAlphabet::map(char c, std::uint32_t mask) {
  table_[static_cast<unsigned char>(std::toupper(static_cast<unsigned char>(c)))] =
      mask;
  table_[static_cast<unsigned char>(std::tolower(static_cast<unsigned char>(c)))] =
      mask;
}

std::vector<std::uint32_t> StateAlphabet::encode(const std::string& sequence) const {
  std::vector<std::uint32_t> out;
  out.reserve(sequence.size());
  for (char c : sequence) {
    const std::uint32_t mask = code(c);
    if (mask == 0) {
      throw std::invalid_argument(std::string("invalid ") + name_ +
                                  " character '" + c + "'");
    }
    out.push_back(mask);
  }
  return out;
}

std::string StateAlphabet::decode(const std::vector<std::uint32_t>& codes) const {
  std::string out;
  out.reserve(codes.size());
  for (std::uint32_t mask : codes) {
    char c = unknown_char_;
    for (int s = 0; s < num_states_; ++s) {
      if (mask == (std::uint32_t{1} << s)) {
        c = symbols_[static_cast<std::size_t>(s)];
        break;
      }
    }
    out.push_back(c);
  }
  return out;
}

StateAlphabet StateAlphabet::dna() {
  StateAlphabet a("dna", "ACGT", 'N');
  for (const auto& [c, bases] : kIupacBases) a.map(c, bases);
  for (char c : {'N', 'X', '?', 'O', '-', '.'}) a.map(c, a.unknown_mask());
  return a;
}

StateAlphabet StateAlphabet::dna_with_gap() {
  StateAlphabet a("dna+gap", "ACGT-", '?');
  for (const auto& [c, bases] : kIupacBases) a.map(c, bases);
  // N = any base (an unreadable residue is still a residue); '?' = truly
  // unknown, could also be a gap.
  const std::uint32_t any_base = kA | kC | kG | kT;
  a.map('N', any_base);
  a.map('X', any_base);
  for (char c : {'?', '.'}) a.map(c, a.unknown_mask());
  return a;
}

StateAlphabet StateAlphabet::protein() {
  StateAlphabet a("protein", "ARNDCQEGHILKMFPSTWYV", 'X');
  auto state_of = [&](char c) {
    for (int s = 0; s < a.num_states(); ++s) {
      if (a.symbol(s) == c) return s;
    }
    throw std::logic_error("protein alphabet internal error");
  };
  a.map('B', (1u << state_of('N')) | (1u << state_of('D')));
  a.map('Z', (1u << state_of('Q')) | (1u << state_of('E')));
  a.map('J', (1u << state_of('I')) | (1u << state_of('L')));
  for (char c : {'X', '?', '-', '.', '*'}) a.map(c, a.unknown_mask());
  return a;
}

}  // namespace fdml
