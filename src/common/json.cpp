#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ovnes::json {

namespace {

void escape_to(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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

void number_to(double d, std::string& out) { out += format_double(d); }

struct Dumper {
  int indent;
  std::string out;

  void newline(int depth) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void dump(const Value& v, int depth) {
    if (v.is_null()) {
      out += "null";
    } else if (v.is_bool()) {
      out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
      number_to(v.as_number(), out);
    } else if (v.is_string()) {
      escape_to(v.as_string(), out);
    } else if (v.is_array()) {
      const Array& a = v.as_array();
      if (a.empty()) { out += "[]"; return; }
      out.push_back('[');
      bool first = true;
      for (const Value& e : a) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump(e, depth + 1);
      }
      newline(depth);
      out.push_back(']');
    } else {
      const Object& o = v.as_object();
      if (o.empty()) { out += "{}"; return; }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : o) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        escape_to(k, out);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        dump(e, depth + 1);
      }
      newline(depth);
      out.push_back('}');
    }
  }
};

}  // namespace

std::string Value::dump(int indent) const {
  Dumper d{indent, {}};
  d.dump(*this, 0);
  return d.out;
}

std::string format_double(double d) {
  if (!std::isfinite(d)) return "null";
  if (d == 0.0) return std::signbit(d) ? "-0" : "0";
  if (d == static_cast<long long>(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  // Shortest round-trip: %.{p}g for p = 1..17, first whose parse is
  // bit-exact. printf's %g digit generation for a given precision is fully
  // specified (correctly-rounded shortest-for-that-precision), so every
  // conforming libc emits the same bytes; 17 significant digits always
  // round-trips a double, so the loop cannot fall through.
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

}  // namespace ovnes::json
