#pragma once
// Plain-text reader for tabulated frequency responses — the
// interchange format between a field solver / VNA export and the
// Vector Fitting front end.  Format (self-describing header):
//
//   # phes-samples v1
//   ports <p>
//   points <K>
//   omega <w>            (repeated K times, each followed by p*p pairs)
//   <Re H(0,0)> <Im H(0,0)>  ... row-major ...
//
// Lines starting with '#' are comments.  All values are %.17g doubles.

#include <iosfwd>
#include <string>

#include "phes/macromodel/samples.hpp"

namespace phes::macromodel {

/// Parse samples from a stream.  Throws std::runtime_error with a
/// "samples_io: line N:" prefix on malformed content: zero ports or
/// points, non-finite or non-numeric values, non-increasing
/// frequencies, and truncated records are all rejected.
[[nodiscard]] FrequencySamples load_samples(std::istream& is);

/// File-path convenience wrapper; errors are prefixed with the path.
[[nodiscard]] FrequencySamples load_samples_file(const std::string& path);

}  // namespace phes::macromodel
