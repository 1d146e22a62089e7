#include "plan/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "core/error.h"

namespace qnn {
namespace {

// ------------------------------------------------------------- writer

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Link roles only exist in the routed plan an engine wires, never in a
/// CompiledPlan, so role_from_name refuses them.
const char* role_name(PlannedStream::Role role) {
  switch (role) {
    case PlannedStream::Role::kDirect:
      return "direct";
    case PlannedStream::Role::kOutput:
      return "output";
    case PlannedStream::Role::kLinkOut:
      return "link_out";
    case PlannedStream::Role::kLinkIn:
      return "link_in";
  }
  return "unknown";
}

PlannedStream::Role role_from_name(const std::string& name) {
  if (name == "direct") return PlannedStream::Role::kDirect;
  if (name == "output") return PlannedStream::Role::kOutput;
  throw Error("plan json: unknown stream role \"" + name + "\"");
}

std::string hash_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --------------------------------------------------------------- parser

/// One parsed JSON value. Objects keep insertion order; lookups are
/// linear (plans are small).
struct JVal {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  [[nodiscard]] const JVal& at(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return v;
    }
    throw Error("plan json: missing field \"" + key + "\"");
  }
  [[nodiscard]] const std::string& as_str(const std::string& key) const {
    const JVal& v = at(key);
    if (v.kind != Kind::kStr) {
      throw Error("plan json: field \"" + key + "\" is not a string");
    }
    return v.str;
  }
  [[nodiscard]] double as_num(const std::string& key) const {
    const JVal& v = at(key);
    if (v.kind != Kind::kNum) {
      throw Error("plan json: field \"" + key + "\" is not a number");
    }
    return v.num;
  }
  /// The field as a T: a fraction, NaN, an infinity or a value T cannot
  /// hold is an Error, never a conversion that overflows.
  template <typename T>
  [[nodiscard]] T as_whole(const std::string& key) const {
    return whole<T>(at(key), key);
  }
  template <typename T>
  [[nodiscard]] static T whole(const JVal& v, const std::string& what) {
    using Limits = std::numeric_limits<T>;
    const double hi = std::ldexp(1.0, Limits::digits);  // exclusive
    const double lo = Limits::is_signed ? -hi : 0.0;
    if (v.kind != Kind::kNum || !(v.num >= lo && v.num < hi) ||
        v.num != std::trunc(v.num)) {
      throw Error("plan json: field \"" + what +
                  "\" is not a whole number in range");
    }
    return static_cast<T>(v.num);
  }
  [[nodiscard]] bool as_bool(const std::string& key) const {
    const JVal& v = at(key);
    if (v.kind != Kind::kBool) {
      throw Error("plan json: field \"" + key + "\" is not a bool");
    }
    return v.b;
  }
  [[nodiscard]] const std::vector<JVal>& as_arr(const std::string& key) const {
    const JVal& v = at(key);
    if (v.kind != Kind::kArr) {
      throw Error("plan json: field \"" + key + "\" is not an array");
    }
    return v.arr;
  }
};

/// Caps on untrusted plan text. A real plan nests five deep, holds a few
/// thousand values and has no string over a few hundred bytes; past any
/// cap the file is rejected with Error before recursion overflows the
/// stack or a vector grows without bound.
constexpr int kMaxDepth = 64;
constexpr std::size_t kMaxStringBytes = std::size_t{1} << 16;
constexpr std::size_t kMaxValues = std::size_t{1} << 20;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JVal parse() {
    JVal v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("plan json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JVal value() {
    skip_ws();
    if (++values_ > kMaxValues) fail("too many values");
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JVal v;
      v.kind = JVal::Kind::kStr;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return JVal{};
    }
    return number();
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  JVal boolean() {
    JVal v;
    v.kind = JVal::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
      v.b = false;
    }
    return v;
  }

  JVal number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JVal v;
    v.kind = JVal::Kind::kNum;
    v.num = std::strtod(s_.c_str() + start, nullptr);
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      if (out.size() >= kMaxStringBytes) fail("string too long");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad unicode escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A') + 10;
            } else {
              fail("bad unicode escape");
            }
          }
          // Plans only ever escape control bytes; reject the rest.
          if (code > 0xff) fail("unsupported unicode escape");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JVal object() {
    expect('{');
    const Nest nest(*this);
    JVal v;
    v.kind = JVal::Kind::kObj;
    if (try_consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      if (try_consume('}')) return v;
      skip_ws();
      expect(',');
    }
  }

  JVal array() {
    expect('[');
    const Nest nest(*this);
    JVal v;
    v.kind = JVal::Kind::kArr;
    if (try_consume(']')) return v;
    for (;;) {
      v.arr.push_back(value());
      if (try_consume(']')) return v;
      skip_ws();
      expect(',');
    }
  }

  /// One level of object/array nesting, held for the container's parse.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) p_.fail("nesting too deep");
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::size_t values_ = 0;
};

std::uint64_t parse_hash(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) {
    throw Error("plan json: bad model hash \"" + hex + "\"");
  }
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v += static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v += static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      throw Error("plan json: bad model hash \"" + hex + "\"");
    }
  }
  return v;
}

}  // namespace

std::string to_json(const CompiledPlan& plan) {
  std::string o;
  o.reserve(1024 + 160 * plan.fifos.streams.size());
  o += "{\n";
  o += "  \"version\": " + std::to_string(plan.version) + ",\n";
  o += "  \"model\": ";
  write_escaped(o, plan.model);
  o += ",\n";
  o += "  \"key\": {\"model_hash\": \"" + hash_hex(plan.key.model_hash) +
       "\", \"machine\": ";
  write_escaped(o, plan.key.machine);
  o += ", \"slo_us\": " + std::to_string(plan.key.slo_us) + "},\n";
  o += "  \"fifo_capacity\": " + std::to_string(plan.fifo_capacity) + ",\n";
  o += "  \"burst\": " + std::to_string(plan.burst) + ",\n";
  o += std::string("  \"adaptive_burst\": ") +
       (plan.adaptive_burst ? "true" : "false") + ",\n";
  o += "  \"pool_threads\": " + std::to_string(plan.pool_threads) + ",\n";
  o += std::string("  \"pin_threads\": ") +
       (plan.pin_threads ? "true" : "false") + ",\n";
  o += "  \"pin_offset\": " + std::to_string(plan.pin_offset) + ",\n";
  o += "  \"cut_after_nodes\": [";
  for (std::size_t i = 0; i < plan.cut_after_nodes.size(); ++i) {
    if (i != 0) o += ", ";
    o += std::to_string(plan.cut_after_nodes[i]);
  }
  o += "],\n";
  o += "  \"fifos\": {\"burst\": " + std::to_string(plan.fifos.burst) +
       ", \"burst_clamped\": " +
       (plan.fifos.burst_clamped ? "true" : "false") + ", \"streams\": [\n";
  for (std::size_t i = 0; i < plan.fifos.streams.size(); ++i) {
    const PlannedStream& s = plan.fifos.streams[i];
    o += "    {\"name\": ";
    write_escaped(o, s.name);
    o += std::string(", \"role\": \"") + role_name(s.role) + "\"";
    o += ", \"producer\": " + std::to_string(s.producer);
    o += ", \"consumer\": " + std::to_string(s.consumer);
    o += std::string(", \"skip\": ") + (s.to_skip_port ? "true" : "false");
    o += ", \"capacity\": " + std::to_string(s.capacity);
    o += ", \"bits\": " + std::to_string(s.bits);
    o += ", \"burst\": " + std::to_string(s.burst) + "}";
    if (i + 1 != plan.fifos.streams.size()) o += ",";
    o += "\n";
  }
  o += "  ]},\n";
  o += "  \"link_bursts\": [";
  for (std::size_t i = 0; i < plan.link_bursts.size(); ++i) {
    const SimConfig::EdgeBurst& e = plan.link_bursts[i];
    if (i != 0) o += ", ";
    o += "{\"consumer\": " + std::to_string(e.consumer) +
         std::string(", \"skip\": ") + (e.to_skip_port ? "true" : "false") +
         ", \"values\": " + std::to_string(e.values) + "}";
  }
  o += "],\n";
  o += "  \"predicted_ips\": " + fmt_double(plan.predicted_ips) + ",\n";
  o += "  \"calibrated_ips\": " + fmt_double(plan.calibrated_ips) + "\n";
  o += "}\n";
  return o;
}

CompiledPlan plan_from_json(const std::string& text) {
  const JVal root = Parser(text).parse();
  if (root.kind != JVal::Kind::kObj) {
    throw Error("plan json: top level is not an object");
  }
  CompiledPlan plan;
  plan.version = root.as_whole<int>("version");
  if (plan.version != kPlanFormatVersion) {
    throw Error("plan json: format version " + std::to_string(plan.version) +
                " != supported " + std::to_string(kPlanFormatVersion));
  }
  plan.model = root.as_str("model");
  const JVal& key = root.at("key");
  plan.key.model_hash = parse_hash(key.as_str("model_hash"));
  plan.key.machine = key.as_str("machine");
  plan.key.slo_us = key.as_whole<std::int64_t>("slo_us");
  plan.fifo_capacity = root.as_whole<std::size_t>("fifo_capacity");
  plan.burst = root.as_whole<std::size_t>("burst");
  plan.adaptive_burst = root.as_bool("adaptive_burst");
  plan.pool_threads = root.as_whole<unsigned>("pool_threads");
  plan.pin_threads = root.as_bool("pin_threads");
  plan.pin_offset = root.as_whole<unsigned>("pin_offset");
  for (const JVal& v : root.as_arr("cut_after_nodes")) {
    plan.cut_after_nodes.push_back(JVal::whole<int>(v, "cut_after_nodes"));
  }
  const JVal& fifos = root.at("fifos");
  plan.fifos.burst = fifos.as_whole<std::size_t>("burst");
  plan.fifos.burst_clamped = fifos.as_bool("burst_clamped");
  for (const JVal& v : fifos.as_arr("streams")) {
    PlannedStream s;
    s.name = v.as_str("name");
    s.role = role_from_name(v.as_str("role"));
    s.producer = v.as_whole<int>("producer");
    s.consumer = v.as_whole<int>("consumer");
    s.to_skip_port = v.as_bool("skip");
    s.capacity = v.as_whole<std::size_t>("capacity");
    s.bits = v.as_whole<int>("bits");
    s.burst = v.as_whole<std::size_t>("burst");
    plan.fifos.streams.push_back(std::move(s));
  }
  for (const JVal& v : root.as_arr("link_bursts")) {
    SimConfig::EdgeBurst e;
    e.consumer = v.as_whole<int>("consumer");
    e.to_skip_port = v.as_bool("skip");
    e.values = v.as_whole<std::size_t>("values");
    plan.link_bursts.push_back(e);
  }
  plan.predicted_ips = root.as_num("predicted_ips");
  plan.calibrated_ips = root.as_num("calibrated_ips");
  return plan;
}

}  // namespace qnn
