// Generalized state alphabets — the paper's highest-priority future work:
// "incorporating other models of sequence change. This will include protein
// sequences, handling of alignment gaps as another character state (rather
// than the current treatment as missing data), and more general models of
// nucleotide change."
//
// A state symbol maps to a 32-bit mask over up to 32 states; ambiguity
// codes set several bits, unknowns set all. The N-state engine consumes
// these masks directly as tip conditional likelihoods.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace fdml {

class StateAlphabet {
 public:
  /// Plain 4-state DNA (A C G T), gaps as missing — every character the
  /// core's char_to_code accepts maps to the same base set, so the two
  /// engines can cross-validate on the same data.
  static StateAlphabet dna();

  /// 5-state DNA where '-' is a real character state that substitutions can
  /// enter and leave (the paper's "handling of alignment gaps as another
  /// character state").
  static StateAlphabet dna_with_gap();

  /// 20-state amino acids (ARNDCQEGHILKMFPSTWYV order), with the standard
  /// ambiguity codes B = N/D, Z = Q/E, J = I/L; X, '-', '?', '.' unknown.
  static StateAlphabet protein();

  const std::string& name() const { return name_; }
  int num_states() const { return num_states_; }
  /// Canonical symbol for a pure state index.
  char symbol(int state) const { return symbols_[static_cast<std::size_t>(state)]; }
  /// Mask with every state set.
  std::uint32_t unknown_mask() const { return unknown_mask_; }

  /// Mask for an input character; 0 if invalid.
  std::uint32_t code(char c) const {
    return table_[static_cast<unsigned char>(c)];
  }
  bool is_valid(char c) const { return code(c) != 0; }

  /// Encodes a sequence string; throws std::invalid_argument on bad chars.
  std::vector<std::uint32_t> encode(const std::string& sequence) const;
  /// Decodes masks back to characters (pure states to their symbol;
  /// anything ambiguous to the unknown character).
  std::string decode(const std::vector<std::uint32_t>& codes) const;

 private:
  StateAlphabet(std::string name, std::string symbols, char unknown_char);
  void map(char c, std::uint32_t mask);
  void map_state(char c, int state) { map(c, std::uint32_t{1} << state); }

  std::string name_;
  int num_states_;
  std::string symbols_;
  char unknown_char_;
  std::uint32_t unknown_mask_;
  std::array<std::uint32_t, 256> table_{};
};

}  // namespace fdml
