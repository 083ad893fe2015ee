// Minimal JSON value: what avmon_bench needs to pass results from a child
// process to its parent, write result files, and read them back for
// `compare`. Objects keep insertion order so written files are stable.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace avmon::bench {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), number_(d) {}
  Json(int i) : Json(static_cast<double>(i)) {}
  Json(unsigned i) : Json(static_cast<double>(i)) {}
  Json(unsigned long i) : Json(static_cast<double>(i)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  /// Parses one JSON document; throws std::runtime_error on malformed text.
  static Json parse(const std::string& text);

  /// Serializes; indent < 0 writes one line. Non-finite numbers become null.
  std::string dump(int indent = -1) const;

  double asNumber() const;
  const std::string& asString() const;
  const std::vector<Json>& items() const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Appends to an array.
  Json& push(Json value);
  /// Sets (or replaces) an object member; returns the stored value.
  Json& set(const std::string& key, Json value);
  /// Object member or nullptr.
  const Json* find(const std::string& key) const;
  /// Object member; throws std::runtime_error naming the key when absent.
  const Json& at(const std::string& key) const;

 private:
  void dumpTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace avmon::bench
