// Minimal JSON value model and serializer, with no external dependencies.
//
// The benches build reports out of Values and dump them (bench_regression's
// BENCH_*.json, bench_e2e's result objects); format_double is the canonical
// double rendering behind those reports and the scn/svc digests. Nothing
// parses JSON back, so there is no parser.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace ovnes::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// Thrown on a type mismatch in an accessor.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(unsigned i) : v_(static_cast<double>(i)) {}
  Value(long i) : v_(static_cast<double>(i)) {}
  Value(unsigned long i) : v_(static_cast<double>(i)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  [[nodiscard]] bool as_bool() const { return get<bool>("bool"); }
  [[nodiscard]] double as_number() const { return get<double>("number"); }
  [[nodiscard]] const std::string& as_string() const { return get<std::string>("string"); }
  [[nodiscard]] const Array& as_array() const { return get<Array>("array"); }
  [[nodiscard]] const Object& as_object() const { return get<Object>("object"); }

  /// Serialize. `indent < 0` => compact single line.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  template <class T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    throw JsonError(std::string("json: value is not a ") + what);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Shortest round-trip decimal rendering of a finite double: the fewest
/// significant digits (tried in increasing order) whose strtod() parse
/// recovers the exact bit pattern. Integral values below 10^15 render
/// without a decimal point. The output is a pure function of the value —
/// independent of compiler, libc printf quirks and locale — so digests over
/// emitted JSON (BENCH_*.json, decision logs) are byte-stable everywhere.
/// Non-finite inputs render as "null" (JSON has no Inf/NaN literals).
[[nodiscard]] std::string format_double(double d);

}  // namespace ovnes::json
