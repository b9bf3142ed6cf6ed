// Round-trip and error-path tests for the tabulated-samples text format.

#include <gtest/gtest.h>

#include <sstream>

#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/samples_io.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using macromodel::load_samples;
using macromodel::sample_model;
using test::save_samples;

macromodel::FrequencySamples make_samples() {
  macromodel::SyntheticModelSpec spec;
  spec.ports = 3;
  spec.states = 18;
  spec.seed = 9;
  const auto model = macromodel::make_synthetic_model(spec);
  return sample_model(model, 0.5, 20.0, 25);
}

TEST(SamplesIo, RoundTripIsExact) {
  const auto original = make_samples();
  std::stringstream ss;
  save_samples(original, ss);
  const auto loaded = load_samples(ss);
  ASSERT_EQ(loaded.count(), original.count());
  ASSERT_EQ(loaded.ports(), original.ports());
  for (std::size_t k = 0; k < original.count(); ++k) {
    EXPECT_DOUBLE_EQ(loaded.omega[k], original.omega[k]);
    EXPECT_LT(test::max_abs_diff(loaded.h[k], original.h[k]), 0.0 + 1e-300);
  }
}

TEST(SamplesIo, CommentsAreIgnored) {
  const auto original = make_samples();
  std::stringstream ss;
  save_samples(original, ss);
  std::string text = "# leading comment line\n" + ss.str();
  std::stringstream annotated(text);
  const auto loaded = load_samples(annotated);
  EXPECT_EQ(loaded.count(), original.count());
}

TEST(SamplesIo, TruncatedInputThrows) {
  const auto original = make_samples();
  std::stringstream ss;
  save_samples(original, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_samples(truncated), std::runtime_error);
}

TEST(SamplesIo, BadHeaderThrows) {
  std::stringstream ss("bogus 3\npoints 1\n");
  EXPECT_THROW(load_samples(ss), std::runtime_error);
}

TEST(SamplesIo, MalformedHeadersAndValuesThrow) {
  struct Case {
    const char* label;
    const char* text;
    const char* expect_in_message;
  };
  const Case cases[] = {
      {"zero ports", "ports 0\npoints 1\n", "ports must be positive"},
      {"zero points", "ports 1\npoints 0\n", "points must be positive"},
      {"negative ports", "ports -2\npoints 1\n", "expected port count"},
      {"non-numeric count", "ports x\npoints 1\n", "expected port count"},
      {"non-finite omega",
       "ports 1\npoints 1\nomega inf\n0 0\n", "non-finite"},
      {"non-finite entry",
       "ports 1\npoints 1\nomega 1.0\nnan 0\n", "non-finite"},
      {"non-numeric entry",
       "ports 1\npoints 1\nomega 1.0\n0.5z 0\n", "expected Re H entry"},
      {"non-increasing omega",
       "ports 1\npoints 2\nomega 1.0\n0 0\nomega 1.0\n0 0\n",
       "strictly increasing"},
      {"truncated record",
       "ports 1\npoints 2\nomega 1.0\n0 0\n", "unexpected end of input"},
      {"overflowing ports",
       "ports 18446744073709551617\npoints 1\n", "exceeds the supported"},
      {"absurd ports", "ports 1000000\npoints 1\n", "exceeds the supported"},
      {"absurd points", "ports 1\npoints 999999999999\n",
       "exceeds the supported"},
  };
  for (const auto& c : cases) {
    std::stringstream ss(c.text);
    try {
      (void)load_samples(ss);
      FAIL() << c.label << ": expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << c.label << ": got '" << e.what() << "'";
    }
  }
}

TEST(SamplesIo, TrailingSameLineCommentsAreIgnored) {
  std::stringstream ss(
      "ports 1\npoints 1\nomega 1.0 # measured at 25C\n0.5 0.25 # entry\n");
  const auto loaded = load_samples(ss);
  ASSERT_EQ(loaded.count(), 1u);
  EXPECT_DOUBLE_EQ(loaded.h[0](0, 0).real(), 0.5);
}

TEST(SamplesIo, ErrorsCarryLineNumbers) {
  std::stringstream ss("ports 1\npoints 1\nomega 1.0\nbad 0\n");
  try {
    (void)load_samples(ss);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(SamplesIo, FileRoundTrip) {
  const auto original = make_samples();
  const std::string path = "/tmp/phes_samples_io_test.txt";
  test::save_samples_file(original, path);
  const auto loaded = macromodel::load_samples_file(path);
  EXPECT_EQ(loaded.count(), original.count());
  EXPECT_THROW(macromodel::load_samples_file("/nonexistent/path.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace phes
