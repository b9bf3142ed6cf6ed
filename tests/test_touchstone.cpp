// Touchstone reader/writer tests: round trips across formats and
// frequency units, the 2-port ordering quirk, noise-section handling,
// a malformed-input table with line-numbered diagnostics, and bitwise
// agreement of the in-place from_chars reader with the istringstream +
// strtod reader it replaced.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "phes/io/touchstone.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using io::load_touchstone;
using io::save_touchstone;
using io::TouchstoneFormat;
using io::TouchstoneMetadata;
using test::sampled_synthetic;

// Shared seeded-sample fixture (tests/test_support.hpp).
macromodel::FrequencySamples make_samples(std::size_t ports) {
  return sampled_synthetic(ports);
}

double round_trip_error(std::size_t ports, TouchstoneFormat format,
                        const std::string& unit) {
  const auto original = make_samples(ports);
  TouchstoneMetadata meta;
  meta.format = format;
  meta.unit = unit;
  std::stringstream ss;
  save_touchstone(original, ss, meta);
  const auto loaded = load_touchstone(ss, ports);
  EXPECT_EQ(loaded.metadata.format, format);
  EXPECT_EQ(loaded.metadata.unit, unit);
  EXPECT_EQ(loaded.samples.count(), original.count());
  double worst = 0.0;
  for (std::size_t k = 0; k < original.count(); ++k) {
    worst = std::max(worst, std::abs(loaded.samples.omega[k] -
                                     original.omega[k]) /
                                original.omega[k]);
    worst = std::max(worst,
                     test::max_abs_diff(loaded.samples.h[k], original.h[k]));
  }
  return worst;
}

TEST(Touchstone, RoundTripAllFormatsAndUnits) {
  for (const auto format : {TouchstoneFormat::kRI, TouchstoneFormat::kMA,
                            TouchstoneFormat::kDB}) {
    for (const std::string unit : {"Hz", "kHz", "MHz", "GHz"}) {
      EXPECT_LT(round_trip_error(3, format, unit), 1e-12)
          << io::format_name(format) << " / " << unit;
    }
  }
}

TEST(Touchstone, RoundTripOnePortAndTwoPort) {
  EXPECT_LT(round_trip_error(1, TouchstoneFormat::kRI, "GHz"), 1e-12);
  EXPECT_LT(round_trip_error(2, TouchstoneFormat::kMA, "MHz"), 1e-12);
}

TEST(Touchstone, FrequencyUnitScaling) {
  // 1 MHz -> omega = 2 pi 1e6 rad/s.
  std::stringstream ss("# MHz S RI R 50\n1.0 0.5 0.0\n");
  const auto data = load_touchstone(ss, 1);
  ASSERT_EQ(data.samples.count(), 1u);
  EXPECT_NEAR(data.samples.omega[0], 2.0 * std::numbers::pi * 1e6, 1e-3);
  EXPECT_DOUBLE_EQ(data.samples.h[0](0, 0).real(), 0.5);
}

TEST(Touchstone, TwoPortDataIsColumnMajor) {
  // Spec quirk: .s2p rows are S11 S21 S12 S22.
  std::stringstream ss(
      "# Hz S RI R 50\n"
      "1.0  11 0  21 0  12 0  22 0\n");
  const auto data = load_touchstone(ss, 2);
  EXPECT_DOUBLE_EQ(data.samples.h[0](0, 0).real(), 11.0);
  EXPECT_DOUBLE_EQ(data.samples.h[0](1, 0).real(), 21.0);
  EXPECT_DOUBLE_EQ(data.samples.h[0](0, 1).real(), 12.0);
  EXPECT_DOUBLE_EQ(data.samples.h[0](1, 1).real(), 22.0);
}

TEST(Touchstone, ThreePortDataIsRowMajorAndMayWrapLines) {
  std::stringstream ss(
      "# Hz S RI\n"
      "1.0  11 0 12 0 13 0\n"
      "     21 0 22 0 23 0\n"
      "     31 0 32 0 33 0\n"
      "2.0  11 0 12 0 13 0  21 0 22 0 23 0  31 0 32 0 33 0\n");
  const auto data = load_touchstone(ss, 3);
  ASSERT_EQ(data.samples.count(), 2u);
  EXPECT_DOUBLE_EQ(data.samples.h[0](0, 1).real(), 12.0);
  EXPECT_DOUBLE_EQ(data.samples.h[0](1, 0).real(), 21.0);
  EXPECT_DOUBLE_EQ(data.samples.h[0](2, 2).real(), 33.0);
}

TEST(Touchstone, CommentsAndBlankLinesAreIgnored) {
  std::stringstream ss(
      "! header comment\n"
      "\n"
      "# Hz S RI R 50\n"
      "! another comment\n"
      "1.0 0.5 0.25  ! trailing comment\n");
  const auto data = load_touchstone(ss, 1);
  ASSERT_EQ(data.samples.count(), 1u);
  EXPECT_DOUBLE_EQ(data.samples.h[0](0, 0).imag(), 0.25);
}

TEST(Touchstone, DefaultsApplyWithoutOptionLine) {
  // Spec defaults: GHz, S, MA, R 50.
  std::stringstream ss("1.0 0.5 90.0\n");
  const auto data = load_touchstone(ss, 1);
  EXPECT_EQ(data.metadata.format, TouchstoneFormat::kMA);
  EXPECT_NEAR(data.samples.omega[0], 2.0 * std::numbers::pi * 1e9, 1.0);
  EXPECT_NEAR(data.samples.h[0](0, 0).imag(), 0.5, 1e-12);  // 0.5 at 90deg
}

TEST(Touchstone, TwoPortNoiseSectionIsSkipped) {
  std::stringstream ss(
      "# Hz S RI R 50\n"
      "1.0  1 0 0 0 0 0 1 0\n"
      "2.0  1 0 0 0 0 0 1 0\n"
      "! noise parameters restart at a lower frequency\n"
      "0.5  3.0 0.4 110 20\n");
  const auto data = load_touchstone(ss, 2);
  EXPECT_EQ(data.samples.count(), 2u);
}

TEST(Touchstone, PortsFromExtension) {
  EXPECT_EQ(io::ports_from_extension("a/b/model.s2p"), 2u);
  EXPECT_EQ(io::ports_from_extension("model.S16P"), 16u);
  EXPECT_THROW((void)io::ports_from_extension("model.txt"),
               std::runtime_error);
  EXPECT_THROW((void)io::ports_from_extension("model"), std::runtime_error);
  EXPECT_THROW((void)io::ports_from_extension("model.s0p"),
               std::runtime_error);
  EXPECT_THROW((void)io::ports_from_extension("model.sp"),
               std::runtime_error);
  // Overflowing / absurd port counts must not wrap allocations.
  EXPECT_THROW(
      (void)io::ports_from_extension("model.s18446744073709551617p"),
      std::runtime_error);
  EXPECT_THROW((void)io::ports_from_extension("model.s99999999p"),
               std::runtime_error);
  EXPECT_TRUE(io::is_touchstone_path("a/b.s12p"));
  EXPECT_TRUE(io::is_touchstone_path("a/b.S2P"));
  EXPECT_FALSE(io::is_touchstone_path("a/b.txt"));
  EXPECT_FALSE(io::is_touchstone_path("a/b.sp"));
}

TEST(Touchstone, DbFormatRoundTripsExactZeroEntries) {
  macromodel::FrequencySamples samples;
  samples.omega = {1.0, 2.0};
  la::ComplexMatrix h(2, 2);
  h(0, 0) = {0.5, 0.1};  // h(0,1), h(1,0) stay exactly zero
  h(1, 1) = {-0.2, 0.3};
  samples.h = {h, h};
  TouchstoneMetadata meta;
  meta.format = TouchstoneFormat::kDB;
  meta.unit = "Hz";
  std::stringstream ss;
  save_touchstone(samples, ss, meta);
  const auto loaded = load_touchstone(ss, 2);  // must not see '-inf'
  EXPECT_LT(std::abs(loaded.samples.h[0](0, 1)), 1e-19);
  EXPECT_NEAR(loaded.samples.h[0](0, 0).real(), 0.5, 1e-12);
}

struct MalformedCase {
  const char* label;
  const char* text;
  const char* expect_in_message;
};

TEST(Touchstone, MalformedInputTable) {
  const MalformedCase cases[] = {
      {"empty input", "", "no data records"},
      {"comment only", "! nothing here\n", "no data records"},
      {"bad unit", "# THz S RI\n1.0 0 0\n", "unknown frequency unit"},
      {"admittance data", "# Hz Y RI\n1.0 0 0\n", "unsupported parameter"},
      {"unknown option", "# Hz S XX\n1.0 0 0\n", "unknown option"},
      {"duplicate option line", "# Hz S RI\n# Hz S RI\n1.0 0 0\n",
       "duplicate option"},
      {"missing R value", "# Hz S RI R\n1.0 0 0\n", "missing its"},
      {"non-numeric value", "# Hz S RI\n1.0 abc 0\n", "expected a number"},
      {"non-finite value", "# Hz S RI\n1.0 nan 0\n", "non-finite"},
      {"negative frequency", "# Hz S RI\n-1.0 0 0\n", "negative frequency"},
      {"non-increasing frequency", "# Hz S RI\n1.0 0 0\n1.0 0 0\n",
       "strictly increasing"},
      {"truncated record", "# Hz S RI\n1.0 0.5\n", "truncated record"},
      {"option line after data", "# Hz S RI\n1.0 0 0\n# Hz S MA\n2.0 0 0\n",
       "option line after data"},
  };
  for (const auto& c : cases) {
    std::stringstream ss(c.text);
    try {
      (void)load_touchstone(ss, 1);
      FAIL() << c.label << ": expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << c.label << ": got '" << e.what() << "'";
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << c.label << ": message has no line number: '" << e.what() << "'";
    }
  }
}

TEST(Touchstone, ErrorMessagesCarryTheRightLine) {
  std::stringstream ss("# Hz S RI\n1.0 0 0\n2.0 bad 0\n");
  try {
    (void)load_touchstone(ss, 1);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Touchstone, FileRoundTripAndExtensionChecks) {
  const auto samples = make_samples(2);
  const std::string path = "/tmp/phes_touchstone_test.s2p";
  io::save_touchstone_file(samples, path, {});
  const auto loaded = io::load_touchstone_file(path);
  EXPECT_EQ(loaded.samples.count(), samples.count());
  EXPECT_EQ(loaded.samples.ports(), 2u);
  // Extension contradicting the data is refused.
  EXPECT_THROW(
      io::save_touchstone_file(samples, "/tmp/phes_touchstone_test.s3p", {}),
      std::invalid_argument);
  EXPECT_THROW((void)io::load_touchstone_file("/nonexistent/x.s2p"),
               std::runtime_error);
}

// ---- Golden fixture directory (tests/data) ----------------------------
// Committed .s2p/.s4p exports; the server integration test feeds the
// same files through the job server, so a reader regression shows up in
// both suites.

TEST(Touchstone, GoldenS2pLoadsAndRoundTrips) {
  const auto data = io::load_touchstone_file(test::fixture_path("golden.s2p"));
  EXPECT_EQ(data.samples.ports(), 2u);
  EXPECT_EQ(data.samples.count(), 200u);
  EXPECT_EQ(data.metadata.format, TouchstoneFormat::kRI);
  EXPECT_EQ(data.metadata.unit, "GHz");
  ASSERT_GT(data.samples.omega.size(), 1u);
  EXPECT_LT(data.samples.omega.front(), data.samples.omega.back());

  // Save -> reload must reproduce the loaded data essentially exactly
  // (one text round trip of already-text-rounded values).
  std::stringstream ss;
  save_touchstone(data.samples, ss, data.metadata);
  const auto reloaded = load_touchstone(ss, 2);
  ASSERT_EQ(reloaded.samples.count(), data.samples.count());
  for (std::size_t k = 0; k < data.samples.count(); ++k) {
    EXPECT_NEAR(reloaded.samples.omega[k], data.samples.omega[k],
                1e-9 * data.samples.omega[k]);
    EXPECT_LT(test::max_abs_diff(reloaded.samples.h[k], data.samples.h[k]),
              1e-12);
  }
}

TEST(Touchstone, GoldenS4pLoadsAndRoundTrips) {
  const auto data = io::load_touchstone_file(test::fixture_path("golden.s4p"));
  EXPECT_EQ(data.samples.ports(), 4u);
  EXPECT_EQ(data.samples.count(), 60u);
  EXPECT_EQ(data.metadata.format, TouchstoneFormat::kMA);
  EXPECT_EQ(data.metadata.unit, "MHz");

  std::stringstream ss;
  save_touchstone(data.samples, ss, data.metadata);
  const auto reloaded = load_touchstone(ss, 4);
  ASSERT_EQ(reloaded.samples.count(), data.samples.count());
  for (std::size_t k = 0; k < data.samples.count(); ++k) {
    EXPECT_LT(test::max_abs_diff(reloaded.samples.h[k], data.samples.h[k]),
              1e-12);
  }
}

// ---- Bitwise oracle: the istringstream + strtod reader -----------------
// The reader before the in-place tokenizer, reduced to well-formed
// input: per-line istringstream tokens, strtod, the same decoding.

macromodel::FrequencySamples reference_load(std::istream& is,
                                            std::size_t ports) {
  double scale = 1e9;
  TouchstoneFormat format = TouchstoneFormat::kMA;
  std::vector<double> values;
  std::string raw;
  while (std::getline(is, raw)) {
    if (const auto bang = raw.find('!'); bang != std::string::npos) {
      raw.erase(bang);
    }
    std::istringstream ls(raw);
    std::string tok;
    if (!(ls >> tok)) continue;
    if (tok[0] == '#') {
      if (tok.size() > 1) tok.erase(0, 1); else if (!(ls >> tok)) continue;
      do {
        for (char& c : tok) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        if (tok == "HZ") scale = 1.0;
        if (tok == "KHZ") scale = 1e3;
        if (tok == "MHZ") scale = 1e6;
        if (tok == "GHZ") scale = 1e9;
        if (tok == "RI") format = TouchstoneFormat::kRI;
        if (tok == "MA") format = TouchstoneFormat::kMA;
        if (tok == "DB") format = TouchstoneFormat::kDB;
        if (tok == "R") ls >> tok;
      } while (ls >> tok);
      continue;
    }
    do {
      values.push_back(std::strtod(tok.c_str(), nullptr));
    } while (ls >> tok);
  }
  const double deg = std::numbers::pi / 180.0;
  const std::size_t per_record = 1 + 2 * ports * ports;
  macromodel::FrequencySamples out;
  for (std::size_t r = 0; r + per_record <= values.size(); r += per_record) {
    out.omega.push_back(2.0 * std::numbers::pi * values[r] * scale);
    la::ComplexMatrix h(ports, ports);
    for (std::size_t v = 0; v < ports * ports; ++v) {
      const double a = values[r + 1 + 2 * v];
      const double b = values[r + 2 + 2 * v];
      const std::size_t row = ports == 2 ? v % 2 : v / ports;
      const std::size_t col = ports == 2 ? v / 2 : v % ports;
      h(row, col) = format == TouchstoneFormat::kRI ? la::Complex(a, b)
                    : format == TouchstoneFormat::kMA
                        ? std::polar(a, b * deg)
                        : std::polar(std::pow(10.0, a / 20.0), b * deg);
    }
    out.h.push_back(std::move(h));
  }
  return out;
}

void expect_bitwise_equal(const macromodel::FrequencySamples& got,
                          const macromodel::FrequencySamples& want,
                          const std::string& label) {
  ASSERT_EQ(got.count(), want.count()) << label;
  ASSERT_GT(got.count(), 0u) << label;
  EXPECT_EQ(std::memcmp(got.omega.data(), want.omega.data(),
                        got.count() * sizeof(double)),
            0)
      << label;
  for (std::size_t k = 0; k < got.count(); ++k) {
    ASSERT_EQ(std::memcmp(got.h[k].data(), want.h[k].data(),
                          got.h[k].size() * sizeof(la::Complex)),
              0)
        << label << " record " << k;
  }
}

TEST(Touchstone, GoldenFilesMatchStrtodReaderBitwise) {
  for (const auto& [name, ports] :
       {std::pair<const char*, std::size_t>{"golden.s2p", 2},
        {"golden.s4p", 4}}) {
    const auto got = io::load_touchstone_file(test::fixture_path(name));
    std::ifstream is(test::fixture_path(name));
    expect_bitwise_equal(got.samples, reference_load(is, ports), name);
  }
}

TEST(Touchstone, GenFilesMatchStrtodReaderBitwise) {
  // The `phes_pipeline gen` mix: 2-4 ports, RI/MA/DB, 200 samples.
  const TouchstoneFormat formats[] = {TouchstoneFormat::kRI,
                                      TouchstoneFormat::kMA,
                                      TouchstoneFormat::kDB};
  for (std::size_t i = 0; i < 6; ++i) {
    macromodel::SyntheticModelSpec spec;
    spec.ports = 2 + i % 3;
    spec.states = 24 + 12 * (i % 4);
    spec.omega_min = 1.0;
    spec.omega_max = 30.0;
    spec.target_peak_gain = i % 2 == 0 ? 1.04 : 0.95;
    spec.seed = 2011 + i;
    const auto samples = macromodel::sample_model(
        macromodel::make_synthetic_model(spec), 0.3, 90.0, 200);
    TouchstoneMetadata meta;
    meta.format = formats[i % 3];
    std::stringstream text;
    save_touchstone(samples, text, meta);
    std::stringstream a(text.str());
    std::stringstream b(text.str());
    expect_bitwise_equal(load_touchstone(a, spec.ports).samples,
                         reference_load(b, spec.ports),
                         "gen case" + std::to_string(i + 1));
  }
}

TEST(Touchstone, NumberSyntaxEdges) {
  // One leading '+' is accepted, as strtod did; a sign after it is not.
  std::stringstream plus("# Hz S RI\n+1.0 +0.5 -0.25\n");
  const auto data = load_touchstone(plus, 1);
  EXPECT_EQ(data.samples.h[0](0, 0), la::Complex(0.5, -0.25));
  // Underflow keeps strtod's nearest value; overflow is non-finite.
  std::stringstream tiny("# Hz S RI\n1.0 1e-400 4.9e-324\n");
  const auto small = load_touchstone(tiny, 1);
  EXPECT_EQ(small.samples.h[0](0, 0).real(), std::strtod("1e-400", nullptr));
  EXPECT_EQ(small.samples.h[0](0, 0).imag(),
            std::strtod("4.9e-324", nullptr));

  const MalformedCase cases[] = {
      // strtod read hexadecimal floats; the reader does not.
      {"hex float", "# Hz S RI\n1.0 0x1p-1 0\n",
       "line 2: expected a number, got '0x1p-1'"},
      {"plus minus", "# Hz S RI\n1.0 +-1 0\n", "line 2: expected a number"},
      {"double plus", "# Hz S RI\n1.0 ++1 0\n", "line 2: expected a number"},
      {"lone plus", "# Hz S RI\n1.0 + 0\n", "line 2: expected a number"},
      {"trailing junk", "# Hz S RI\n1.0 1e 0\n", "line 2: expected a number"},
      {"overflow", "# Hz S RI\n1.0 1e400 0\n",
       "line 2: non-finite value '1e400'"},
      {"infinity", "# Hz S RI\n1.0 -inf 0\n", "line 2: non-finite"},
      {"hex R value", "# Hz S RI R 0x10\n1.0 0 0\n",
       "line 1: expected a number"},
  };
  for (const auto& c : cases) {
    std::stringstream ss(c.text);
    try {
      (void)load_touchstone(ss, 1);
      FAIL() << c.label << ": expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << c.label << ": got '" << e.what() << "'";
    }
  }
}

TEST(Touchstone, ValueSplitAcrossLinesReportsTheLaterLine) {
  // A pair whose second value sits on the next line: a bad first value
  // is reported at the line the pair ends on, as before.
  std::stringstream ss("# Hz S RI\n1.0 bad\n0\n");
  try {
    (void)load_touchstone(ss, 1);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: expected a number"),
              std::string::npos)
        << e.what();
  }
}

TEST(Touchstone, SaveRejectsUnknownUnit) {
  const auto samples = make_samples(1);
  TouchstoneMetadata meta;
  meta.unit = "THz";
  std::stringstream ss;
  EXPECT_THROW(save_touchstone(samples, ss, meta), std::runtime_error);
}

}  // namespace
}  // namespace phes
