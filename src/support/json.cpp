#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ompdart::json {

void Value::push(Value value) {
  if (kind_ == Kind::Null)
    kind_ = Kind::Array;
  items_.push_back(std::move(value));
}

void Value::set(const std::string &key, Value value) {
  if (kind_ == Kind::Null)
    kind_ = Kind::Object;
  for (auto &member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const Value *Value::find(const std::string &key) const {
  if (kind_ != Kind::Object)
    return nullptr;
  for (const auto &member : members_)
    if (member.first == key)
      return &member.second;
  return nullptr;
}

std::string Value::stringOr(const std::string &key,
                            const std::string &fallback) const {
  const Value *value = find(key);
  return value != nullptr && value->kind_ == Kind::String ? value->string_
                                                          : fallback;
}

std::int64_t Value::intOr(const std::string &key, std::int64_t fallback) const {
  const Value *value = find(key);
  return value != nullptr ? value->asInt(fallback) : fallback;
}

std::uint64_t Value::uintOr(const std::string &key,
                            std::uint64_t fallback) const {
  const Value *value = find(key);
  return value != nullptr ? value->asUint(fallback) : fallback;
}

double Value::doubleOr(const std::string &key, double fallback) const {
  const Value *value = find(key);
  return value != nullptr ? value->asDouble(fallback) : fallback;
}

bool Value::boolOr(const std::string &key, bool fallback) const {
  const Value *value = find(key);
  return value != nullptr ? value->asBool(fallback) : fallback;
}

bool Value::operator==(const Value &other) const {
  if (kind_ != other.kind_)
    return false;
  switch (kind_) {
  case Kind::Null:
    return true;
  case Kind::Bool:
    return bool_ == other.bool_;
  case Kind::Int:
    return int_ == other.int_;
  case Kind::Double:
    return double_ == other.double_;
  case Kind::String:
    return string_ == other.string_;
  case Kind::Array:
    return items_ == other.items_;
  case Kind::Object:
    return members_ == other.members_;
  }
  return false;
}

std::string escape(const std::string &text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\r':
      out += "\\r";
      break;
    case '\t':
      out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buffer;
      } else {
        out += c;
      }
    }
  }
  return out;
}

namespace {

void appendIndent(std::string &out, unsigned depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

std::string formatDouble(double value) {
  if (std::isnan(value) || std::isinf(value))
    return "null"; // JSON has no NaN/Inf; timings should never produce them.
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Ensure the token re-parses as a double, not an integer, so the value
  // kind survives a round trip.
  std::string out = buffer;
  if (out.find_first_of(".eE") == std::string::npos)
    out += ".0";
  return out;
}

} // namespace

void Value::dumpTo(std::string &out, bool pretty, unsigned depth) const {
  switch (kind_) {
  case Kind::Null:
    out += "null";
    return;
  case Kind::Bool:
    out += bool_ ? "true" : "false";
    return;
  case Kind::Int:
    out += std::to_string(int_);
    return;
  case Kind::Double:
    out += formatDouble(double_);
    return;
  case Kind::String:
    out += '"';
    out += escape(string_);
    out += '"';
    return;
  case Kind::Array: {
    if (items_.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Value &item : items_) {
      if (!first)
        out += ',';
      first = false;
      if (pretty) {
        out += '\n';
        appendIndent(out, depth + 1);
      }
      item.dumpTo(out, pretty, depth + 1);
    }
    if (pretty) {
      out += '\n';
      appendIndent(out, depth);
    }
    out += ']';
    return;
  }
  case Kind::Object: {
    if (members_.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto &member : members_) {
      if (!first)
        out += ',';
      first = false;
      if (pretty) {
        out += '\n';
        appendIndent(out, depth + 1);
      }
      out += '"';
      out += escape(member.first);
      out += "\":";
      if (pretty)
        out += ' ';
      member.second.dumpTo(out, pretty, depth + 1);
    }
    if (pretty) {
      out += '\n';
      appendIndent(out, depth);
    }
    out += '}';
    return;
  }
  }
}

std::string Value::dump(bool pretty) const {
  std::string out;
  dumpTo(out, pretty, 0);
  if (pretty)
    out += '\n';
  return out;
}

namespace {

class ParseCursor {
public:
  ParseCursor(const std::string &text, std::string *error)
      : text_(text), error_(error) {}

  std::optional<Value> parseDocument() {
    std::optional<Value> value = parseValue();
    if (!value)
      return std::nullopt;
    skipWhitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return value;
  }

private:
  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }

  void fail(const std::string &message) {
    if (error_ == nullptr || !error_->empty())
      return;
    unsigned line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    *error_ =
        std::to_string(line) + ":" + std::to_string(column) + ": " + message;
  }

  bool consumeLiteral(const char *literal) {
    std::size_t length = 0;
    while (literal[length] != '\0')
      ++length;
    if (text_.compare(pos_, length, literal) != 0) {
      fail(std::string("expected '") + literal + "'");
      return false;
    }
    pos_ += length;
    return true;
  }

  std::optional<Value> parseValue() {
    skipWhitespace();
    if (atEnd()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    switch (c) {
    case '{':
    case '[': {
      // Bounded nesting: deeper documents fail instead of overflowing the
      // stack here (or in the recursive destructor of the value tree).
      if (depth_ == kMaxNestingDepth) {
        fail("nesting exceeds the maximum depth of " +
             std::to_string(kMaxNestingDepth));
        return std::nullopt;
      }
      const Nesting nesting(depth_);
      return c == '{' ? parseObject() : parseArray();
    }
    case '"': {
      std::optional<std::string> str = parseString();
      if (!str)
        return std::nullopt;
      return Value(std::move(*str));
    }
    case 't':
      if (!consumeLiteral("true"))
        return std::nullopt;
      return Value(true);
    case 'f':
      if (!consumeLiteral("false"))
        return std::nullopt;
      return Value(false);
    case 'n':
      if (!consumeLiteral("null"))
        return std::nullopt;
      return Value();
    default:
      return parseNumber();
    }
  }

  std::optional<Value> parseObject() {
    ++pos_; // '{'
    Value object = Value::object();
    skipWhitespace();
    if (!atEnd() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skipWhitespace();
      if (atEnd() || text_[pos_] != '"') {
        fail("expected object key");
        return std::nullopt;
      }
      std::optional<std::string> key = parseString();
      if (!key)
        return std::nullopt;
      skipWhitespace();
      if (atEnd() || text_[pos_] != ':') {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      ++pos_;
      std::optional<Value> value = parseValue();
      if (!value)
        return std::nullopt;
      object.set(*key, std::move(*value));
      skipWhitespace();
      if (!atEnd() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!atEnd() && text_[pos_] == '}') {
        ++pos_;
        return object;
      }
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parseArray() {
    ++pos_; // '['
    Value array = Value::array();
    skipWhitespace();
    if (!atEnd() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      std::optional<Value> value = parseValue();
      if (!value)
        return std::nullopt;
      array.push(std::move(*value));
      skipWhitespace();
      if (!atEnd() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!atEnd() && text_[pos_] == ']') {
        ++pos_;
        return array;
      }
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> parseString() {
    ++pos_; // '"'
    std::string out;
    while (true) {
      if (atEnd()) {
        fail("unterminated string");
        return std::nullopt;
      }
      const char c = text_[pos_++];
      if (c == '"')
        return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (atEnd()) {
        fail("unterminated escape sequence");
        return std::nullopt;
      }
      const char esc = text_[pos_++];
      switch (esc) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) {
          fail("truncated \\u escape");
          return std::nullopt;
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9')
            code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else {
            fail("invalid \\u escape");
            return std::nullopt;
          }
        }
        // UTF-8 encode the BMP code point (reports only ever emit ASCII
        // control escapes, but accept the full range on input).
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        fail("invalid escape character");
        return std::nullopt;
      }
    }
  }

  std::optional<Value> parseNumber() {
    const std::size_t begin = pos_;
    if (!atEnd() && text_[pos_] == '-')
      ++pos_;
    bool isDouble = false;
    while (!atEnd()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E')
          isDouble = true;
        // '+'/'-' only valid inside an exponent; the strtod check below
        // rejects malformed placements.
        if (c == '+' || (c == '-' && pos_ > begin))
          isDouble = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(begin, pos_ - begin);
    if (token.empty() || token == "-") {
      fail("invalid number");
      return std::nullopt;
    }
    if (!isDouble) {
      errno = 0;
      char *end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0')
        return Value(static_cast<std::int64_t>(parsed));
    }
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("invalid number");
      return std::nullopt;
    }
    return Value(parsed);
  }

  static constexpr unsigned kMaxNestingDepth = 256;

  /// One level of object/array nesting, held while it is parsed.
  class Nesting {
  public:
    explicit Nesting(unsigned &depth) : depth_(depth) { ++depth_; }
    ~Nesting() { --depth_; }
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;

  private:
    unsigned &depth_;
  };

  const std::string &text_;
  std::string *error_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;
};

} // namespace

std::optional<Value> Value::parse(const std::string &text, std::string *error) {
  if (error != nullptr)
    error->clear();
  ParseCursor cursor(text, error);
  return cursor.parseDocument();
}

} // namespace ompdart::json
