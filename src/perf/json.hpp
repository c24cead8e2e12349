// Minimal JSON writer for the benchmark reports (tcast_bench, service_bench
// and the end-to-end benchmark): objects, arrays, strings with escapes,
// doubles (%.17g, so every finite double reads back bit-exact), bools,
// null. The reports are read by Python tools, so there is no C++ parser.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace tcast::perf {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// std::map keeps key order deterministic, so serialised reports diff
  /// cleanly in version control.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(int i) : v_(static_cast<double>(i)) {}
  JsonValue(std::size_t u) : v_(static_cast<double>(u)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }

  /// Serialises; `indent` > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

}  // namespace tcast::perf
