#include "text/lexicon.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/strings.h"

namespace colscope::text {

void Lexicon::AddSynonyms(std::string_view concept_name,
                          const std::vector<std::string>& tokens,
                          std::string_view category) {
  for (const std::string& t : tokens) {
    TokenSense sense;
    sense.concept_name = std::string(concept_name);
    sense.category = std::string(category);
    senses_[colscope::ToLowerAscii(t)] = std::move(sense);
  }
}

void Lexicon::SetCategory(std::string_view category,
                          const std::vector<std::string>& tokens) {
  for (const std::string& t : tokens) {
    const std::string key = colscope::ToLowerAscii(t);
    auto it = senses_.find(key);
    if (it == senses_.end()) {
      TokenSense sense;
      sense.concept_name = key;
      sense.category = std::string(category);
      senses_[key] = std::move(sense);
    } else {
      it->second.category = std::string(category);
    }
  }
}

TokenSense Lexicon::Lookup(std::string_view token) const {
  const std::string key = colscope::ToLowerAscii(token);
  auto it = senses_.find(key);
  if (it != senses_.end()) return it->second;
  TokenSense sense;
  sense.concept_name = key;
  return sense;
}

bool Lexicon::Contains(std::string_view token) const {
  return senses_.find(colscope::ToLowerAscii(token)) != senses_.end();
}

uint64_t Lexicon::Fingerprint() const {
  // unordered_map has no stable order; sort keys so the fingerprint is a
  // pure function of the dictionary's content.
  std::vector<const std::string*> keys;
  keys.reserve(senses_.size());
  for (const auto& [token, sense] : senses_) keys.push_back(&token);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  uint64_t h = Checksum64("colscope-lexicon-fingerprint v1");
  for (const std::string* key : keys) {
    const TokenSense& sense = senses_.at(*key);
    h = Checksum64(*key, h);
    h = Checksum64("\x1f", h);
    h = Checksum64(sense.concept_name, h);
    h = Checksum64("\x1f", h);
    h = Checksum64(sense.category, h);
    h = Checksum64("\x1e", h);
  }
  return h;
}

namespace {

Lexicon BuildDefaultLexicon() {
  Lexicon lex;
  // --- Business entities -------------------------------------------------
  lex.AddSynonyms("customer",
                  {"customer", "customers", "client", "clients", "buyer",
                   "businesspartner", "partner", "partners", "clientele"},
                  "party");
  lex.AddSynonyms("employee", {"employee", "employees", "staff", "rep",
                               "salesrep"},
                  "party");
  lex.AddSynonyms("vendor", {"vendor", "supplier", "manufacturer"}, "party");
  lex.AddSynonyms("contact", {"contact"}, "party");
  // Stores and offices are related places (sub-typed, Table 3) but not
  // synonyms: they share the category, not the concept.
  lex.AddSynonyms("store", {"store", "stores", "shop", "outlet", "warehouse"},
                  "place");
  lex.AddSynonyms("office", {"office", "offices", "branch"}, "place");
  lex.AddSynonyms("product",
                  {"product", "products", "item", "items", "article",
                   "goods", "merchandise"},
                  "commerce");
  lex.AddSynonyms("productline", {"productline", "productlines", "line",
                                  "category", "assortment"},
                  "commerce");
  lex.AddSynonyms("order",
                  {"order", "orders", "salesorder", "salesorders",
                   "purchase", "purchases"},
                  "commerce");
  lex.AddSynonyms("orderitem", {"orderdetails", "orderdetail", "detail",
                                "details"},
                  "commerce");
  lex.AddSynonyms("shipment", {"shipment", "shipments", "delivery",
                               "deliveries", "shipping"},
                  "commerce");
  lex.AddSynonyms("payment", {"payment", "payments", "invoice", "invoices",
                              "billing", "check", "checknumber"},
                  "commerce");
  lex.AddSynonyms("inventory", {"inventory", "stock"}, "commerce");

  // --- Person / naming ----------------------------------------------------
  lex.AddSynonyms("name", {"name", "cname", "names"}, "person");
  lex.AddSynonyms("firstname", {"first", "forename", "given"}, "person");
  lex.AddSynonyms("lastname", {"last", "surname", "family"}, "person");
  lex.AddSynonyms("full", {"full"}, "person");
  lex.AddSynonyms("title", {"title", "job", "jobtitle"}, "person");
  lex.AddSynonyms("birthdate", {"dob", "birthday", "birthdate", "born"},
                  "person");
  lex.AddSynonyms("nationality", {"nationality", "citizenship"}, "geo");

  // --- Geography / address ------------------------------------------------
  lex.AddSynonyms("address", {"address", "addr", "addresses"}, "geo");
  lex.AddSynonyms("street", {"street", "road", "avenue"}, "geo");
  lex.AddSynonyms("city", {"city", "town", "location", "locality"}, "geo");
  lex.AddSynonyms("region", {"region", "state", "province"}, "geo");
  lex.AddSynonyms("territory", {"territory"}, "geo");
  lex.AddSynonyms("country", {"country", "nation"}, "geo");
  lex.AddSynonyms("postal", {"postal", "zip", "postcode", "postalcode"},
                  "geo");
  lex.AddSynonyms("latitude", {"latitude", "lat"}, "geo");
  lex.AddSynonyms("longitude", {"longitude", "lng", "lon"}, "geo");
  lex.AddSynonyms("altitude", {"altitude", "alt"}, "geo");

  // --- Communication ------------------------------------------------------
  lex.AddSynonyms("phone", {"phone", "telephone", "tel", "mobile", "fax",
                            "extension"},
                  "comm");
  lex.AddSynonyms("email", {"email", "mail"}, "comm");
  lex.AddSynonyms("web", {"web", "url", "website", "homepage"}, "comm");

  // --- Identifiers ----------------------------------------------------------
  lex.AddSynonyms("id", {"id", "identifier", "ids"}, "ident");
  lex.AddSynonyms("number", {"number", "num", "no", "nr"}, "ident");
  lex.AddSynonyms("code", {"code", "ref", "reference"}, "ident");
  lex.AddSynonyms("key", {"key"}, "ident");

  // --- Time -----------------------------------------------------------------
  lex.AddSynonyms("date", {"date", "day"}, "time");
  lex.AddSynonyms("datetime", {"datetime", "timestamp", "tms"}, "time");
  lex.AddSynonyms("time", {"time"}, "time");
  lex.AddSynonyms("year", {"year", "season", "seasons"}, "time");
  lex.AddSynonyms("month", {"month"}, "time");
  lex.AddSynonyms("created", {"created", "createdat", "changed", "updated",
                              "required", "shipped"},
                  "time");

  // --- Quantities / money ----------------------------------------------------
  lex.AddSynonyms("price", {"price", "cost"}, "money");
  lex.AddSynonyms("msrp", {"msrp"}, "money");
  lex.AddSynonyms("amount", {"amount", "total", "gross", "net", "sum"},
                  "money");
  lex.AddSynonyms("currency", {"currency"}, "money");
  lex.AddSynonyms("tax", {"tax", "vat"}, "money");
  lex.AddSynonyms("credit", {"credit", "limit", "creditlimit"}, "money");
  lex.AddSynonyms("quantity", {"quantity", "qty", "count", "ordered"},
                  "measure");
  lex.AddSynonyms("unit", {"unit", "units", "each"}, "measure");
  lex.AddSynonyms("scale", {"scale"}, "measure");
  lex.AddSynonyms("status", {"status", "flag", "stage"}, "state");
  lex.AddSynonyms("description",
                  {"description", "descriptions", "comment", "comments",
                   "text", "remarks", "note", "notes"},
                  "doc");
  lex.AddSynonyms("image", {"image", "picture", "photo", "logo"}, "doc");
  lex.AddSynonyms("document", {"mime", "charset", "filename", "html"},
                  "doc");

  // --- Formula One domain -----------------------------------------------------
  lex.AddSynonyms("driver", {"driver", "drivers", "pilot"}, "motorsport");
  lex.AddSynonyms("constructor", {"constructor", "constructors", "team",
                                  "teams"},
                  "motorsport");
  lex.AddSynonyms("race", {"race", "races", "grandprix", "gp"},
                  "motorsport");
  lex.AddSynonyms("circuit", {"circuit", "circuits", "track"},
                  "motorsport");
  lex.AddSynonyms("lap", {"lap", "laps"}, "motorsport");
  lex.AddSynonyms("pitstop", {"pit", "stop", "stops"}, "motorsport");
  lex.AddSynonyms("grid", {"grid"}, "motorsport");
  lex.AddSynonyms("qualifying", {"qualifying", "quali", "q1", "q2", "q3"},
                  "motorsport");
  lex.AddSynonyms("sprint", {"sprint"}, "motorsport");
  lex.AddSynonyms("standings", {"standings", "standing", "ranking"},
                  "motorsport");
  lex.AddSynonyms("points", {"points"}, "motorsport");
  lex.AddSynonyms("position", {"position", "rank", "positiontext"},
                  "motorsport");
  lex.AddSynonyms("wins", {"wins", "win"}, "motorsport");
  lex.AddSynonyms("fastest", {"fastest", "speed"}, "motorsport");
  lex.AddSynonyms("round", {"round"}, "motorsport");
  lex.AddSynonyms("milliseconds", {"milliseconds", "millis", "duration"},
                  "motorsport");
  lex.AddSynonyms("car", {"car", "cars", "vehicle", "chassis", "engine"},
                  "motorsport");

  // --- SQL data types (appear in the T^a serialization) ----------------------
  lex.AddSynonyms("typestring",
                  {"varchar", "varchar2", "char", "nchar", "nvarchar",
                   "clob", "string", "mediumtext", "longtext"},
                  "sqltype");
  lex.AddSynonyms("typenumeric",
                  {"integer", "int", "bigint", "smallint", "tinyint",
                   "numeric", "decimal", "float", "double", "real"},
                  "sqltype");
  lex.AddSynonyms("typedate", {"datetype"}, "sqltype");
  lex.AddSynonyms("typeblob", {"blob", "bytea", "binary"}, "sqltype");
  lex.AddSynonyms("typebool", {"boolean", "bool", "bit"}, "sqltype");

  // --- Constraint keywords -----------------------------------------------------
  lex.AddSynonyms("primarykey", {"primary"}, "constraint");
  lex.AddSynonyms("foreignkey", {"foreign"}, "constraint");

  return lex;
}

}  // namespace

const Lexicon& DefaultSchemaLexicon() {
  static const Lexicon* const kLexicon = new Lexicon(BuildDefaultLexicon());
  return *kLexicon;
}

}  // namespace colscope::text
