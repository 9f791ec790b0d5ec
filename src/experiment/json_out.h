// Minimal ordered JSON emission and parsing: sweep results
// (BENCH_<name>.json) on the write side, trace files on the read side.
//
// JsonValue started as a write-only document builder: objects keep insertion
// order so output is stable, and numbers are printed with round-trip
// precision so two runs producing bit-identical doubles serialize to
// byte-identical text. The sweep engine uses this to make `aql_bench
// --jobs 1` and `--jobs N` output comparable byte-for-byte (wall-clock
// timing is segregated behind `include_timing`).
//
// The read side (Parse + accessors) serves the trace replayer
// (src/workload/trace_replay.cc, one document per JSON-lines record) and
// tools that read BENCH documents back, such as perfbench/.
// Numbers round-trip bit-exactly: integers without '.'/'e' parse into the
// int/uint arms, everything else goes through strtod against the same
// shortest-round-trip text JsonNumber produced.

#ifndef AQLSCHED_SRC_EXPERIMENT_JSON_OUT_H_
#define AQLSCHED_SRC_EXPERIMENT_JSON_OUT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aql {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  JsonValue(int v) : type_(Type::kInt), int_(v) {}             // NOLINT
  JsonValue(int64_t v) : type_(Type::kInt), int_(v) {}         // NOLINT
  JsonValue(uint64_t v) : type_(Type::kUint), uint_(v) {}      // NOLINT
  JsonValue(double v) : type_(Type::kDouble), double_(v) {}    // NOLINT
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}        // NOLINT
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT

  static JsonValue Object();
  static JsonValue Array();

  // Parses a JSON document. On failure returns kNull and, when `error` is
  // non-null, stores a message with the byte offset of the problem.
  static JsonValue Parse(const std::string& text, std::string* error = nullptr);

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsObject() const { return type_ == Type::kObject; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsNumber() const {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }

  // Object member insertion (keeps insertion order, aborts on non-objects).
  JsonValue& Set(const std::string& key, JsonValue value);

  // Array element insertion (aborts on non-arrays).
  JsonValue& Push(JsonValue value);

  size_t size() const;

  // --- read accessors (for parsed documents) ---

  // Object member lookup; nullptr when absent (aborts on non-objects).
  const JsonValue* Find(const std::string& key) const;
  // Array elements (aborts on non-arrays).
  const std::vector<JsonValue>& Items() const;
  // Typed scalar reads; abort on a type mismatch. AsDouble/AsInt/AsUint
  // accept any numeric arm (the writer emits integral doubles as bare
  // integers, so readers must not depend on the arm).
  const std::string& AsString() const;
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  uint64_t AsUint() const;

  // Serializes with 2-space indentation and a trailing newline at top level.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                               // kArray
  std::vector<std::pair<std::string, JsonValue>> members_;     // kObject
};

// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string JsonQuote(const std::string& s);

// Round-trip double formatting ("%.17g", with inf/nan mapped to null).
std::string JsonNumber(double v);

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_JSON_OUT_H_
