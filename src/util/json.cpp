#include "phes/util/json.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace phes::util {

struct JsonValue::Parser {
  /// Nesting bound: parse_value recurses per '['/'{', and a server
  /// must answer a hostile deeply-nested line with an error response,
  /// not a stack overflow.  The documents parsed here nest 2-3 levels.
  static constexpr std::size_t kMaxDepth = 64;

  const std::string& text;
  std::size_t pos = 0;
  std::size_t depth = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos) + ": " + what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text[pos] + "'");
    }
    ++pos;
  }

  bool consume_literal(const char* lit) {
    std::size_t i = 0;
    while (lit[i] != '\0') {
      if (pos + i >= text.size() || text[pos + i] != lit[i]) return false;
      ++i;
    }
    pos += i;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += 10u + (h - 'a');
            else if (h >= 'A' && h <= 'F') code += 10u + (h - 'A');
            else fail("bad \\u escape digit");
          }
          // Minimal UTF-8 encoding (surrogate pairs unsupported: the
          // documents' strings are paths/names, and the writer only
          // emits \u for control characters).
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
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      v.type_ = Type::kNull;
    } else if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      v.type_ = Type::kBool;
      v.bool_ = true;
    } else if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      v.type_ = Type::kBool;
      v.bool_ = false;
    } else if (c == '"') {
      v.type_ = Type::kString;
      v.string_ = parse_string();
    } else if (c == '[') {
      ++pos;
      if (++depth > kMaxDepth) fail("nesting too deep");
      v.type_ = Type::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos;
      } else {
        for (;;) {
          v.items_.push_back(parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos;
            continue;
          }
          expect(']');
          break;
        }
      }
      --depth;
    } else if (c == '{') {
      ++pos;
      if (++depth > kMaxDepth) fail("nesting too deep");
      v.type_ = Type::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos;
      } else {
        for (;;) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          v.members_.emplace_back(std::move(key), parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos;
            continue;
          }
          expect('}');
          break;
        }
      }
      --depth;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t start = pos;
      if (peek() == '-') ++pos;
      while (pos < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
              text[pos] == '+' || text[pos] == '-')) {
        ++pos;
      }
      const std::string num = text.substr(start, pos - start);
      try {
        std::size_t used = 0;
        v.number_ = std::stod(num, &used);
        if (used != num.size()) fail("bad number '" + num + "'");
      } catch (const std::exception&) {
        fail("bad number '" + num + "'");
      }
      v.type_ = Type::kNumber;
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    return v;
  }
};

JsonValue JsonValue::parse(const std::string& text) {
  Parser parser{text};
  JsonValue v = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing content");
  return v;
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("JSON: not a number");
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  const double n = as_number();
  // 2^64 and above do not fit: casting them is undefined behaviour.
  if (n < 0.0 || std::floor(n) != n || n >= 18446744073709551616.0) {
    throw std::runtime_error("JSON: not a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("JSON: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) throw std::runtime_error("JSON: not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) throw std::runtime_error("JSON: not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

std::uint64_t JsonValue::uint_or(const std::string& key,
                                 std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_uint();
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_string();
}

}  // namespace phes::util
