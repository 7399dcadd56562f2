#ifndef COLSCOPE_TEXT_LEXICON_H_
#define COLSCOPE_TEXT_LEXICON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace colscope::text {

/// Semantic mapping of a single token: the canonical `concept_name` shared by
/// its synonym set (e.g. client/customer/partner -> "customer") and an
/// optional broader `category` (e.g. "geo", "person", "time") shared by
/// related concepts. The embedding encoder turns both into shared vector
/// components, which is what gives CLIENT and CUSTOMER a high cosine
/// similarity while ADDRESS and CITY get a weaker (sub-typed) one.
struct TokenSense {
  std::string concept_name;
  std::string category;  // empty when the token has no category.
};

/// Token -> sense dictionary with synonym groups and categories.
/// Lookups are lowercase-token based (use text::TokenizeIdentifier first).
class Lexicon {
 public:
  /// Registers `tokens` as synonyms of canonical `concept_name`, optionally
  /// tagging them with `category`. Later registrations win on conflict.
  void AddSynonyms(std::string_view concept_name,
                   const std::vector<std::string>& tokens,
                   std::string_view category = "");

  /// Assigns `category` to tokens already known or unknown (unknown
  /// tokens keep themselves as concept_name).
  void SetCategory(std::string_view category,
                   const std::vector<std::string>& tokens);

  /// Sense of `token`: registered sense, or identity concept_name with no
  /// category for out-of-vocabulary tokens.
  TokenSense Lookup(std::string_view token) const;

  /// True if the token is in the dictionary.
  bool Contains(std::string_view token) const;

  size_t size() const { return senses_.size(); }

  /// Order-independent stable content fingerprint (Checksum64 chained
  /// over the sorted token->sense entries). Mixed into encoder cache
  /// identities so an edited dictionary invalidates cached signatures;
  /// identical dictionaries built in any registration order fingerprint
  /// the same.
  uint64_t Fingerprint() const;

 private:
  std::unordered_map<std::string, TokenSense> senses_;
};

/// The built-in dictionary covering the order/customer business domain of
/// the OC3 schemas, the motor-sport domain of the Formula One schema, SQL
/// type names, and constraint keywords. Mirrors the semantic knowledge a
/// pretrained sentence encoder contributes in the paper (Section 2.3).
const Lexicon& DefaultSchemaLexicon();

}  // namespace colscope::text

#endif  // COLSCOPE_TEXT_LEXICON_H_
