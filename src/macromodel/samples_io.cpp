#include "phes/macromodel/samples_io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <sstream>
#include <vector>

#include "phes/util/check.hpp"

namespace phes::macromodel {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error("samples_io: line " + std::to_string(line) +
                           ": " + message);
}

/// Line-tracking whitespace tokenizer that skips '#' comment lines.
class Tokenizer {
 public:
  explicit Tokenizer(std::istream& is) : is_(is) {}

  /// Next token; throws with the current line number at end of input.
  std::string next(const char* expectation) {
    std::string token;
    while (true) {
      if (pos_ < tokens_.size()) return tokens_[pos_++];
      std::string raw;
      if (!std::getline(is_, raw)) {
        fail(line_, std::string("unexpected end of input (expected ") +
                        expectation + ")");
      }
      ++line_;
      std::istringstream ls(raw);
      std::string first;
      if (!(ls >> first) || first[0] == '#') continue;
      tokens_.clear();
      pos_ = 0;
      tokens_.push_back(first);
      while (ls >> token) {
        if (token[0] == '#') break;  // trailing same-line comment
        tokens_.push_back(token);
      }
    }
  }

  /// Strict finite double (the whole token must parse).
  double next_double(const char* expectation) {
    const std::string token = next(expectation);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      fail(line_, std::string("expected ") + expectation + ", got '" +
                      token + "'");
    }
    if (!std::isfinite(value)) {
      fail(line_, std::string("non-finite ") + expectation + " '" + token +
                      "'");
    }
    return value;
  }

  /// Strict non-negative integer, rejecting overflow and values beyond
  /// `max_value` (guards the downstream rows*cols allocations).
  std::size_t next_count(const char* expectation, std::size_t max_value) {
    const std::string token = next(expectation);
    char* end = nullptr;
    errno = 0;
    const unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || token[0] == '-') {
      fail(line_, std::string("expected ") + expectation + ", got '" +
                      token + "'");
    }
    if (errno == ERANGE || value > max_value) {
      fail(line_, std::string(expectation) + " " + token +
                      " exceeds the supported maximum of " +
                      std::to_string(max_value));
    }
    return value;
  }

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::istream& is_;
  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

/// Far above any physical interconnect, small enough that p*p complex
/// entries can never wrap a size_t allocation.
constexpr std::size_t kMaxPorts = 65536;
constexpr std::size_t kMaxPoints = 100'000'000;

}  // namespace

FrequencySamples load_samples(std::istream& is) {
  Tokenizer tok(is);

  if (tok.next("'ports' header") != "ports") {
    fail(tok.line(), "expected 'ports' header");
  }
  const std::size_t p = tok.next_count("port count", kMaxPorts);
  if (p == 0) fail(tok.line(), "ports must be positive");
  if (tok.next("'points' header") != "points") {
    fail(tok.line(), "expected 'points' header");
  }
  const std::size_t count = tok.next_count("point count", kMaxPoints);
  if (count == 0) fail(tok.line(), "points must be positive");

  FrequencySamples out;
  out.omega.reserve(count);
  out.h.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (tok.next("'omega' record") != "omega") {
      fail(tok.line(), "expected 'omega' record " + std::to_string(k + 1) +
                           " of " + std::to_string(count));
    }
    const double omega = tok.next_double("frequency");
    if (!out.omega.empty() && omega <= out.omega.back()) {
      fail(tok.line(), "frequencies must be strictly increasing");
    }
    out.omega.push_back(omega);
    la::ComplexMatrix h(p, p);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        const double re = tok.next_double("Re H entry");
        const double im = tok.next_double("Im H entry");
        h(i, j) = la::Complex(re, im);
      }
    }
    out.h.push_back(std::move(h));
  }
  out.check_consistency();
  return out;
}

FrequencySamples load_samples_file(const std::string& path) {
  std::ifstream is(path);
  util::require(is.is_open(), "load_samples_file: cannot open " + path);
  try {
    return load_samples(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace phes::macromodel
