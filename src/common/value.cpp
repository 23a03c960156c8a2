#include "src/common/value.h"

#include <sstream>

namespace proteus {

Result<Value> Value::GetField(const std::string& name) const {
  if (!is_record()) return Status::TypeError("GetField on non-record " + ToString());
  const RecordValue& r = record();
  for (size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return r.values[i];
  }
  return Status::NotFound("record has no field '" + name + "'");
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (is_string() && other.is_string()) {
    return s().compare(other.s()) < 0 ? -1 : (s() == other.s() ? 0 : 1);
  }
  if (is_bool() && other.is_bool()) {
    return static_cast<int>(b()) - static_cast<int>(other.b());
  }
  // Numeric comparison with widening.
  double a = AsFloat(), bb = other.AsFloat();
  if (a < bb) return -1;
  if (a > bb) return 1;
  return 0;
}

bool Value::Equals(const Value& other) const {
  if (v_.index() != other.v_.index()) {
    // Allow int/float cross-equality for numeric results.
    if ((is_int() || is_float()) && (other.is_int() || other.is_float())) {
      return AsFloat() == other.AsFloat();
    }
    return false;
  }
  if (is_null()) return true;
  if (is_int()) return i() == other.i();
  if (is_float()) return f() == other.f();
  if (is_bool()) return b() == other.b();
  if (is_string()) return s() == other.s();
  if (is_record()) {
    const auto& a = record();
    const auto& c = other.record();
    if (a.names != c.names || a.values.size() != c.values.size()) return false;
    for (size_t k = 0; k < a.values.size(); ++k) {
      if (!a.values[k].Equals(c.values[k])) return false;
    }
    return true;
  }
  const auto& a = list();
  const auto& c = other.list();
  if (a.size() != c.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (!a[k].Equals(c[k])) return false;
  }
  return true;
}

namespace {

/// Hash of a double: an integral value in int64 range hashes like that int
/// (so Int(2) and Float(2.0) meet, and -0.0 like 0), anything else — NaN,
/// ±inf, |d| >= 2^63, fractions — by its bits. The range test comes first:
/// converting such a double to int64 is undefined.
uint64_t DoubleHash(double d) {
  if (d >= -0x1p63 && d < 0x1p63) {
    const auto t = static_cast<int64_t>(d);
    if (static_cast<double>(t) == d) return HashMix64(static_cast<uint64_t>(t));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  return HashMix64(bits);
}

}  // namespace

uint64_t Value::HashInt(int64_t i) {
  // Beyond 2^53 an int Equals the double it rounds to, so it hashes like
  // that double; below, the double is the int itself.
  constexpr int64_t kExact = int64_t{1} << 53;
  if (i >= -kExact && i <= kExact) return HashMix64(static_cast<uint64_t>(i));
  return DoubleHash(static_cast<double>(i));
}

uint64_t Value::HashFloat(double f) { return DoubleHash(f); }

uint64_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_int()) return HashInt(i());
  if (is_float()) return DoubleHash(f());
  if (is_bool()) return HashMix64(b() ? 1 : 2);
  if (is_string()) return HashString(s());
  uint64_t h = 0x51ed270b;
  if (is_record()) {
    for (const auto& v : record().values) h = HashCombine(h, v.Hash());
    return h;
  }
  for (const auto& v : list()) h = HashCombine(h, v.Hash());
  return h;
}

std::string Value::ToString() const {
  if (is_null()) return "null";
  if (is_int()) return std::to_string(i());
  if (is_float()) {
    std::ostringstream os;
    os << f();
    return os.str();
  }
  if (is_bool()) return b() ? "true" : "false";
  if (is_string()) return "\"" + s() + "\"";
  std::ostringstream os;
  if (is_record()) {
    os << "{";
    const auto& r = record();
    for (size_t k = 0; k < r.names.size(); ++k) {
      if (k) os << ", ";
      os << r.names[k] << ": " << r.values[k].ToString();
    }
    os << "}";
    return os.str();
  }
  os << "[";
  const auto& l = list();
  for (size_t k = 0; k < l.size(); ++k) {
    if (k) os << ", ";
    os << l[k].ToString();
  }
  os << "]";
  return os.str();
}

}  // namespace proteus
