#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/format_double.hpp"

namespace avmon::bench {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json document() {
    Json value = parseValue();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool consume(const char* literal) {
    std::size_t i = 0;
    while (literal[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != literal[i]) {
        return false;
      }
      ++i;
    }
    pos_ += i;
    return true;
  }

  Json parseValue() {
    skipSpace();
    if (pos_ >= text_.size()) fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return parseObject();
    if (c == '[') return parseArray();
    if (c == '"') return Json(parseString());
    if (consume("true")) return Json(true);
    if (consume("false")) return Json(false);
    if (consume("null")) return Json();
    return Json(parseNumber());
  }

  Json parseObject() {
    ++pos_;
    Json obj = Json::object();
    skipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected key");
      std::string key = parseString();
      skipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') fail("expected ':'");
      ++pos_;
      obj.set(key, parseValue());
      skipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}'");
    }
  }

  Json parseArray() {
    ++pos_;
    Json arr = Json::array();
    skipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parseValue());
      skipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // The bench only ever escapes control characters this way.
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            c = static_cast<char>(
                std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: c = e; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  double parseNumber() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("unexpected character");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void appendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).document(); }

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber:
      if (!std::isfinite(number_)) {
        out += "null";
      } else if (number_ == std::trunc(number_) &&
                 std::fabs(number_) < 0x1p53) {
        // Counts stay integers on the wire ("10", not "1e+01").
        out += std::to_string(static_cast<long long>(number_));
      } else {
        out += formatDouble(number_);
      }
      break;
    case Type::kString: appendEscaped(out, string_); break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += indent < 0 ? ", " : ",";
        newline(out, indent, depth + 1);
        items_[i].dumpTo(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += indent < 0 ? ", " : ",";
        newline(out, indent, depth + 1);
        appendEscaped(out, members_[i].first);
        out += ": ";
        members_[i].second.dumpTo(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

double Json::asNumber() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& Json::asString() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return members_;
}

Json& Json::push(Json value) {
  if (type_ != Type::kArray) {
    throw std::runtime_error("json: push on non-array");
  }
  items_.push_back(std::move(value));
  return items_.back();
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) {
    throw std::runtime_error("json: set on non-object");
  }
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return member.second;
    }
  }
  members_.emplace_back(key, std::move(value));
  return members_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return *value;
}

}  // namespace avmon::bench
