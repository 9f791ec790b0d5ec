#include "src/experiment/json_out.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/sim/check.h"

namespace aql {

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  AQL_CHECK(type_ == Type::kObject);
  members_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::Push(JsonValue value) {
  AQL_CHECK(type_ == Type::kArray);
  items_.push_back(std::move(value));
  return *this;
}

size_t JsonValue::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  AQL_CHECK(type_ == Type::kObject);
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const std::vector<JsonValue>& JsonValue::Items() const {
  AQL_CHECK(type_ == Type::kArray);
  return items_;
}

const std::string& JsonValue::AsString() const {
  AQL_CHECK(type_ == Type::kString);
  return string_;
}

bool JsonValue::AsBool() const {
  AQL_CHECK(type_ == Type::kBool);
  return bool_;
}

double JsonValue::AsDouble() const {
  switch (type_) {
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kDouble:
      return double_;
    default:
      AQL_CHECK_MSG(false, "JsonValue::AsDouble on a non-number");
  }
}

int64_t JsonValue::AsInt() const {
  switch (type_) {
    case Type::kInt:
      return int_;
    case Type::kUint:
      AQL_CHECK(uint_ <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max()));
      return static_cast<int64_t>(uint_);
    case Type::kDouble:
      AQL_CHECK(double_ == static_cast<double>(static_cast<int64_t>(double_)));
      return static_cast<int64_t>(double_);
    default:
      AQL_CHECK_MSG(false, "JsonValue::AsInt on a non-number");
  }
}

uint64_t JsonValue::AsUint() const {
  switch (type_) {
    case Type::kUint:
      return uint_;
    case Type::kInt:
      AQL_CHECK(int_ >= 0);
      return static_cast<uint64_t>(int_);
    default:
      AQL_CHECK_MSG(false, "JsonValue::AsUint on a non-integer");
  }
}

namespace {

// Recursive-descent parser over the subset of JSON the writer emits (which
// is standard JSON; escapes beyond the writer's repertoire are accepted
// too). Keeps a byte offset for error messages.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing data after document");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      return Fail(std::string("expected '") + word + "'");
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        // Parsed documents are external input: bound the recursion so a
        // pathologically nested file fails cleanly instead of blowing the
        // stack. Real documents nest ~6 levels.
        if (depth_ >= kMaxDepth) {
          return Fail("nesting too deep");
        }
        ++depth_;
        {
          const bool ok = ParseObject(out);
          --depth_;
          return ok;
        }
      case '[':
        if (depth_ >= kMaxDepth) {
          return Fail("nesting too deep");
        }
        ++depth_;
        {
          const bool ok = ParseArray(out);
          --depth_;
          return ok;
        }
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        *out = JsonValue(true);
        return Literal("true");
      case 'f':
        *out = JsonValue(false);
        return Literal("false");
      case 'n':
        *out = JsonValue();
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' in object");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->Set(key, std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->Push(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          *out += esc;
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (the writer only ever emits
          // control characters here; surrogate pairs are not supported).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    const bool integral = token.find_first_of(".eE") == std::string::npos;
    if (integral && token != "-0") {  // "-0" must stay a (negative-zero) double
      errno = 0;
      char* end = nullptr;
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          *out = JsonValue(static_cast<int64_t>(v));
          return true;
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          *out = JsonValue(static_cast<uint64_t>(v));
          return true;
        }
      }
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Fail("malformed number");
    }
    *out = JsonValue(v);
    return true;
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonValue JsonValue::Parse(const std::string& text, std::string* error) {
  JsonParser parser(text);
  JsonValue out;
  if (!parser.Parse(&out)) {
    if (error != nullptr) {
      *error = parser.error();
    }
    return JsonValue();
  }
  if (error != nullptr) {
    error->clear();
  }
  return out;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[64];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

void JsonValue::DumpTo(std::string* out, int depth) const {
  const std::string pad(2 * (depth + 1), ' ');
  const std::string close_pad(2 * depth, ' ');
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      *out += std::to_string(int_);
      break;
    case Type::kUint:
      *out += std::to_string(uint_);
      break;
    case Type::kDouble:
      *out += JsonNumber(double_);
      break;
    case Type::kString:
      *out += JsonQuote(string_);
      break;
    case Type::kArray: {
      if (items_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (size_t i = 0; i < items_.size(); ++i) {
        *out += pad;
        items_[i].DumpTo(out, depth + 1);
        *out += i + 1 < items_.size() ? ",\n" : "\n";
      }
      *out += close_pad + "]";
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        *out += pad + JsonQuote(members_[i].first) + ": ";
        members_[i].second.DumpTo(out, depth + 1);
        *out += i + 1 < members_.size() ? ",\n" : "\n";
      }
      *out += close_pad + "}";
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out += '\n';
  return out;
}

}  // namespace aql
