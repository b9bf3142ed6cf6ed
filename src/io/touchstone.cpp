#include "phes/io/touchstone.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <istream>
#include <numbers>
#include <ostream>
#include <string_view>
#include <vector>

#include "phes/util/check.hpp"

namespace phes::io {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kDegToRad = std::numbers::pi / 180.0;

/// Far above any physical interconnect, small enough that p*p complex
/// entries can never wrap a size_t allocation.
constexpr std::size_t kMaxPorts = 65536;

/// dB floor written for exactly-zero entries (20*log10(0) = -inf would
/// make the writer emit a file its own reader rejects).
constexpr double kZeroDb = -400.0;

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error("touchstone: line " + std::to_string(line) + ": " +
                           message);
}

std::string upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// Strict double parse: the whole token must be a finite decimal
/// number.  One leading '+' is allowed, as strtod took it (from_chars
/// takes none); hexadecimal floats are not numbers here.
double parse_number(std::string_view token, std::size_t line) {
  std::string_view digits = token;
  if (digits.starts_with('+') && !digits.substr(1).starts_with('-')) {
    digits.remove_prefix(1);
  }
  const char* const last = digits.data() + digits.size();
  double value = 0.0;
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  if (end != last || ec == std::errc::invalid_argument) {
    fail(line, "expected a number, got '" + std::string(token) + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    // Overflow or underflow: take strtod's saturated value (+-inf, or
    // the nearest subnormal or zero), as the reader always has.
    value = std::strtod(std::string(token).c_str(), nullptr);
  }
  if (!std::isfinite(value)) {
    fail(line, "non-finite value '" + std::string(token) + "'");
  }
  return value;
}

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Append the whitespace-separated tokens of `text` to `tokens`.
void split_tokens(std::string_view text,
                  std::vector<std::string_view>& tokens) {
  std::size_t i = 0;
  while (true) {
    while (i < text.size() && is_space(text[i])) ++i;
    if (i == text.size()) return;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    tokens.push_back(text.substr(start, i - start));
  }
}

/// Line-aware tokenizer over the whole input, read once: strips '!'
/// comments, remembers the line each token came from, and exposes the
/// raw line for option-line handling.  Tokens are views into the
/// buffer, valid for the tokenizer's lifetime.
class Tokenizer {
 public:
  explicit Tokenizer(std::istream& is) {
    char chunk[1 << 16];
    while (is.read(chunk, sizeof chunk) || is.gcount() > 0) {
      text_.append(chunk, static_cast<std::size_t>(is.gcount()));
    }
  }

  /// Next data token, or false at end of input.  Option lines (leading
  /// '#') are dispatched to `on_option` as whole lines.
  template <typename OptionHandler>
  bool next(std::string_view& token, OptionHandler&& on_option) {
    while (true) {
      if (pos_ < tokens_.size()) {
        token = tokens_[pos_++];
        return true;
      }
      if (at_ == text_.size()) return false;
      const std::size_t eol = std::min(text_.find('\n', at_), text_.size());
      std::string_view raw = std::string_view(text_).substr(at_, eol - at_);
      at_ = eol == text_.size() ? eol : eol + 1;
      ++line_;
      raw = raw.substr(0, raw.find('!'));
      tokens_.clear();
      pos_ = 0;
      split_tokens(raw, tokens_);
      if (tokens_.empty()) continue;  // blank / comment-only line
      if (tokens_.front().front() == '#') {
        tokens_.clear();
        on_option(raw, line_);
      }
    }
  }

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::string text_;
  std::size_t at_ = 0;  ///< start of the next unread line
  std::vector<std::string_view> tokens_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

double unit_scale(const std::string& unit_upper, std::size_t line) {
  if (unit_upper == "HZ") return 1.0;
  if (unit_upper == "KHZ") return 1e3;
  if (unit_upper == "MHZ") return 1e6;
  if (unit_upper == "GHZ") return 1e9;
  fail(line, "unknown frequency unit '" + unit_upper + "'");
}

void parse_option_line(std::string_view raw, std::size_t line,
                       TouchstoneMetadata& meta, bool& seen) {
  if (seen) fail(line, "duplicate option line");
  seen = true;
  std::vector<std::string_view> tokens;
  split_tokens(raw, tokens);
  // Drop the '#' (possibly glued to the first field).
  if (tokens.front().size() > 1) {
    tokens.front().remove_prefix(1);
  } else {
    tokens.erase(tokens.begin());
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const std::string t = upper(std::string(tok));
    if (t == "HZ" || t == "KHZ" || t == "MHZ" || t == "GHZ") {
      meta.frequency_scale = unit_scale(t, line);
      meta.unit = t == "HZ" ? "Hz" : t == "KHZ" ? "kHz"
                                   : t == "MHZ" ? "MHz" : "GHz";
    } else if (t == "S") {
      // scattering parameters: the only supported type
    } else if (t == "Y" || t == "Z" || t == "G" || t == "H") {
      fail(line, "unsupported parameter type '" + t +
                     "' (only scattering 'S' data is accepted)");
    } else if (t == "RI") {
      meta.format = TouchstoneFormat::kRI;
    } else if (t == "MA") {
      meta.format = TouchstoneFormat::kMA;
    } else if (t == "DB") {
      meta.format = TouchstoneFormat::kDB;
    } else if (t == "R") {
      if (++i == tokens.size()) {
        fail(line, "option 'R' missing its resistance value");
      }
      meta.reference_resistance = parse_number(tokens[i], line);
    } else if (t.size() > 2 && t.ends_with("HZ")) {
      fail(line, "unknown frequency unit '" + t + "'");
    } else {
      fail(line, "unknown option token '" + std::string(tok) + "'");
    }
  }
}

la::Complex decode_pair(TouchstoneFormat format, double a, double b) {
  switch (format) {
    case TouchstoneFormat::kRI:
      return {a, b};
    case TouchstoneFormat::kMA:
      return std::polar(a, b * kDegToRad);
    case TouchstoneFormat::kDB:
      return std::polar(std::pow(10.0, a / 20.0), b * kDegToRad);
  }
  return {};
}

void encode_pair(TouchstoneFormat format, la::Complex value, std::ostream& os) {
  switch (format) {
    case TouchstoneFormat::kRI:
      os << value.real() << ' ' << value.imag();
      return;
    case TouchstoneFormat::kMA:
      os << std::abs(value) << ' ' << std::arg(value) / kDegToRad;
      return;
    case TouchstoneFormat::kDB: {
      const double mag = std::abs(value);
      os << (mag > 0.0 ? 20.0 * std::log10(mag) : kZeroDb) << ' '
         << std::arg(value) / kDegToRad;
      return;
    }
  }
}

/// Matrix slot of the v-th data pair of a record (the .s2p quirk:
/// 2-port files are column-major, everything else row-major).
std::pair<std::size_t, std::size_t> pair_slot(std::size_t v,
                                              std::size_t ports) {
  return ports == 2 ? std::make_pair(v % 2, v / 2)
                    : std::make_pair(v / ports, v % ports);
}

}  // namespace

const char* format_name(TouchstoneFormat format) noexcept {
  switch (format) {
    case TouchstoneFormat::kRI: return "RI";
    case TouchstoneFormat::kMA: return "MA";
    case TouchstoneFormat::kDB: return "DB";
  }
  return "?";
}

bool is_touchstone_path(const std::string& path) noexcept {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = upper(path.substr(dot + 1));
  if (ext.size() < 3 || ext.front() != 'S' || ext.back() != 'P') {
    return false;
  }
  for (std::size_t i = 1; i + 1 < ext.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(ext[i])) == 0) return false;
  }
  return true;
}

std::size_t ports_from_extension(const std::string& path) {
  util::require(is_touchstone_path(path),
                "touchstone: '" + path + "' is not a .sNp file");
  const auto dot = path.rfind('.');
  const std::string digits = path.substr(dot + 2, path.size() - dot - 3);
  errno = 0;
  const unsigned long ports = std::strtoul(digits.c_str(), nullptr, 10);
  util::require(errno != ERANGE && ports <= kMaxPorts,
                "touchstone: '" + path + "' declares more than " +
                    std::to_string(kMaxPorts) + " ports");
  util::require(ports >= 1,
                "touchstone: '" + path + "' declares zero ports");
  return ports;
}

TouchstoneData load_touchstone(std::istream& is, std::size_t ports) {
  util::check(ports >= 1 && ports <= kMaxPorts,
              "load_touchstone: ports must be in [1, " +
                  std::to_string(kMaxPorts) + "]");
  TouchstoneData out;
  bool option_seen = false;
  bool data_seen = false;
  auto on_option = [&](std::string_view raw, std::size_t line) {
    // The spec puts the option line before the data; accepting one
    // mid-stream would silently re-interpret records already parsed.
    if (data_seen) {
      fail(line, "option line after data records");
    }
    parse_option_line(raw, line, out.metadata, option_seen);
  };

  Tokenizer tok(is);
  const std::size_t values_per_record = 2 * ports * ports;
  std::string_view token;
  double previous_freq = -1.0;
  while (tok.next(token, on_option)) {
    const std::size_t record_line = tok.line();
    data_seen = true;
    const double freq = parse_number(token, record_line);
    if (freq < 0.0) fail(record_line, "negative frequency");
    if (ports == 2 && !out.samples.h.empty() && freq < previous_freq) {
      break;  // 2-port noise-parameter section: frequency restarts lower
    }
    if (freq <= previous_freq) {
      fail(record_line, "frequencies must be strictly increasing");
    }
    previous_freq = freq;

    la::ComplexMatrix h(ports, ports);
    for (std::size_t v = 0; v < values_per_record; v += 2) {
      std::string_view a_tok, b_tok;
      if (!tok.next(a_tok, on_option) || !tok.next(b_tok, on_option)) {
        fail(tok.line(), "truncated record: expected " +
                             std::to_string(values_per_record) +
                             " values after the frequency");
      }
      const double a = parse_number(a_tok, tok.line());
      const double b = parse_number(b_tok, tok.line());
      const auto [row, col] = pair_slot(v / 2, ports);
      h(row, col) = decode_pair(out.metadata.format, a, b);
    }
    out.samples.omega.push_back(kTwoPi * freq *
                                out.metadata.frequency_scale);
    out.samples.h.push_back(std::move(h));
  }
  if (out.samples.h.empty()) {
    fail(tok.line(), "no data records found");
  }
  out.samples.check_consistency();
  return out;
}

TouchstoneData load_touchstone_file(const std::string& path) {
  const std::size_t ports = ports_from_extension(path);
  std::ifstream is(path);
  util::require(is.is_open(), "touchstone: cannot open " + path);
  try {
    return load_touchstone(is, ports);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void save_touchstone(const macromodel::FrequencySamples& samples,
                     std::ostream& os, const TouchstoneMetadata& metadata) {
  samples.check_consistency();
  util::check(samples.count() > 0, "save_touchstone: no samples");
  const double scale = unit_scale(upper(metadata.unit), 0);
  const std::size_t p = samples.ports();

  os << "! " << p << "-port scattering data (phes export)\n";
  os << "# " << metadata.unit << " S " << format_name(metadata.format)
     << " R " << metadata.reference_resistance << '\n';
  os << std::setprecision(17);
  for (std::size_t k = 0; k < samples.count(); ++k) {
    os << samples.omega[k] / (kTwoPi * scale);
    for (std::size_t v = 0; v < p * p; ++v) {
      const auto [row, col] = pair_slot(v, p);
      os << ' ';
      encode_pair(metadata.format, samples.h[k](row, col), os);
    }
    os << '\n';
  }
  util::require(os.good(), "save_touchstone: stream write failed");
}

void save_touchstone_file(const macromodel::FrequencySamples& samples,
                          const std::string& path,
                          const TouchstoneMetadata& metadata) {
  const std::size_t ports = ports_from_extension(path);
  util::check(ports == samples.ports(),
              "save_touchstone_file: extension of '" + path +
                  "' contradicts the sample port count");
  std::ofstream os(path);
  util::require(os.is_open(), "touchstone: cannot open " + path);
  save_touchstone(samples, os, metadata);
}

}  // namespace phes::io
