#include "topo/serialize.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <unordered_map>

namespace syccl::topo {

namespace {

/// Shortest decimal representation that parses back to exactly the same
/// double (std::to_chars round-trip guarantee). Default ostream precision is
/// 6 significant digits, which silently truncates profiled α/bandwidth
/// values — the serve path ships topologies as text, so serialisation must
/// not perturb the canonical scenario key.
std::string exact_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc()) throw std::logic_error("double to_chars failed");
  return std::string(buf, res.ptr);
}

const char* kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::Gpu: return "gpu";
    case NodeKind::Nic: return "nic";
    case NodeKind::Switch: return "switch";
  }
  return "?";
}

NodeKind parse_kind(std::string_view word, int line) {
  if (word == "gpu") return NodeKind::Gpu;
  if (word == "nic") return NodeKind::Nic;
  if (word == "switch") return NodeKind::Switch;
  throw std::invalid_argument("line " + std::to_string(line) + ": unknown node kind '" +
                              std::string(word) + "'");
}

bool is_space(char c) { return std::string_view(" \t\n\v\f\r").find(c) != std::string_view::npos; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Reads one line's fields the way `std::istream >>` does in the classic
/// locale, so the format accepts and rejects exactly what a stream parser
/// would. Each read skips whitespace first. A word is a maximal run of
/// non-space bytes. A number is the longest prefix the stream's num_get
/// would take, which need not end at a space: "12abc" reads 12, then "abc".
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) : rest_(line) {}

  bool word(std::string_view& out) {
    skip_space();
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return n > 0;
  }

  /// [+-]digits, in int range.
  bool integer(int& out) {
    skip_space();
    std::size_t n = sign();
    const std::size_t digits = n;
    while (n < rest_.size() && is_digit(rest_[n])) ++n;
    if (n == digits) return false;
    if (std::from_chars(rest_.data() + plus(), rest_.data() + n, out).ec != std::errc()) {
      return false;  // out of int range
    }
    rest_.remove_prefix(n);
    return true;
  }

  /// [+-]digits[.digits][(e|E)[+-]digits], at least one mantissa digit, an
  /// exponent digit after an 'e', and a finite value; no "inf" or "nan".
  bool real(double& out) {
    skip_space();
    std::size_t n = sign();
    bool mantissa = false, dot = false, exponent = false, exponent_digit = false;
    for (; n < rest_.size(); ++n) {
      const char c = rest_[n];
      if (is_digit(c)) {
        (exponent ? exponent_digit : mantissa) = true;
      } else if (c == '.' && !dot && !exponent) {
        dot = true;
      } else if ((c == 'e' || c == 'E') && !exponent && mantissa) {
        exponent = true;
        if (n + 1 < rest_.size() && (rest_[n + 1] == '+' || rest_[n + 1] == '-')) ++n;
      } else {
        break;
      }
    }
    if (!mantissa || (exponent && !exponent_digit)) return false;
    const std::string_view number = rest_.substr(plus(), n - plus());
    double value = 0.0;
    const auto [end, ec] = std::from_chars(number.data(), number.data() + number.size(), value);
    if (ec == std::errc::result_out_of_range) {
      // Overflow fails; underflow yields what strtod gives (0 or subnormal).
      value = std::strtod(std::string(number).c_str(), nullptr);
    } else if (ec != std::errc() || end != number.data() + number.size()) {
      return false;
    }
    if (std::isinf(value)) return false;
    out = value;
    rest_.remove_prefix(n);
    return true;
  }

 private:
  void skip_space() {
    while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  }
  /// 1 past a leading sign, 1 past a leading '+' (std::from_chars takes no '+').
  std::size_t sign() const { return plus() + (!rest_.empty() && rest_.front() == '-' ? 1 : 0); }
  std::size_t plus() const { return !rest_.empty() && rest_.front() == '+' ? 1 : 0; }

  std::string_view rest_;
};

}  // namespace

std::string to_text(const Topology& topo) {
  std::ostringstream os;
  os << "# syccl topology, " << topo.num_gpus() << " GPUs\n";
  for (const Node& n : topo.nodes()) {
    os << "node " << kind_name(n.kind) << " " << n.server << " " << n.local_index << " "
       << n.name << "\n";
  }
  for (const Link& l : topo.links()) {
    os << "link " << topo.node(l.src).name << " " << topo.node(l.dst).name << " "
       << exact_double(l.alpha) << " " << exact_double(1.0 / l.beta) << " " << l.kind << "\n";
  }
  return os.str();
}

Topology from_text(const std::string& text) {
  Topology topo;
  std::unordered_map<std::string_view, NodeId> by_name;  // views into `text`
  const std::string_view all(text);
  int line_no = 0;
  for (std::size_t at = 0; at < all.size();) {
    const std::size_t nl = std::min(all.find('\n', at), all.size());
    FieldReader line(all.substr(at, nl - at));
    at = nl + 1;
    ++line_no;
    const auto fail = [&](const std::string& what) {
      return std::invalid_argument("line " + std::to_string(line_no) + ": " + what);
    };
    std::string_view word;
    if (!line.word(word) || word[0] == '#') continue;
    if (word == "node") {
      std::string_view kind, name;
      int server = 0, local = 0;
      if (!(line.word(kind) && line.integer(server) && line.integer(local) && line.word(name))) {
        throw fail("malformed node");
      }
      if (by_name.count(name) != 0) throw fail("duplicate node '" + std::string(name) + "'");
      by_name[name] = topo.add_node(parse_kind(kind, line_no), server, local, std::string(name));
    } else if (word == "link" || word == "duplex") {
      std::string_view a, b, kind;
      double alpha = 0.0, bandwidth = 0.0;
      if (!(line.word(a) && line.word(b) && line.real(alpha) && line.real(bandwidth) &&
            line.word(kind))) {
        throw fail("malformed link");
      }
      const auto ia = by_name.find(a);
      const auto ib = by_name.find(b);
      if (ia == by_name.end() || ib == by_name.end()) throw fail("unknown node name");
      if (bandwidth <= 0) throw fail("bandwidth must be positive");
      if (word == "link") {
        topo.add_link(ia->second, ib->second, alpha, 1.0 / bandwidth, std::string(kind));
      } else {
        topo.add_duplex_link(ia->second, ib->second, alpha, 1.0 / bandwidth, std::string(kind));
      }
    } else {
      throw fail("unknown directive '" + std::string(word) + "'");
    }
  }
  return topo;
}

}  // namespace syccl::topo
