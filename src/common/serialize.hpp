// Exact, line-oriented serialization primitives shared by the sweep's
// machine-readable artifacts (per-shard result dumps, resumable
// checkpoints) and trace files; common/record_reader reads those formats'
// lines and fields with them.
//
// The merge contract of the fleet-scale sweep is *byte identity*: a table
// rendered from deserialized results must equal the table rendered from the
// in-memory originals. That forces two properties on these helpers:
//
//   * doubles round-trip bit-exactly — append_double_exact emits C99
//     hexfloat, the exact text of glibc's %a, built from the bits with
//     integer arithmetic; parse_double_exact reads that canonical form back
//     the same way and hands any other spelling to strtod, so it accepts
//     exactly what strtod accepts and returns strtod's bits, including ±0,
//     denormals, ±inf and NaN;
//   * free-form strings (scenario names, exception texts) survive embedding
//     in a tab-separated record — escape_field turns the record separators
//     into backslash escapes and unescape_field inverts it exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tscclock {

/// The longest text write_double_exact writes: "-0x1." + 13 hex digits +
/// "p-1022".
inline constexpr std::size_t kDoubleExactMaxChars = 24;

/// Write a double at `out` so that parse_double_exact returns the identical
/// bits (hexfloat for finite values; "inf"/"-inf"/"nan" otherwise) and
/// return the end of the text. `out` must have room for
/// kDoubleExactMaxChars. The one spelling of an exact double; record
/// writers call it to format in place.
char* write_double_exact(char* out, double value);

/// write_double_exact's text appended to `out`.
void append_double_exact(std::string& out, double value);

/// append_double_exact's text as a new string.
std::string format_double_exact(double value);

/// Inverse of format_double_exact; also accepts anything else strtod reads
/// in full (plain decimal, uppercase hex, ...). Throws
/// std::runtime_error on empty input, leading or trailing whitespace,
/// trailing garbage, an embedded NUL or no conversion.
double parse_double_exact(std::string_view text);

/// Strict non-negative integer parse: digits only, no sign, no whitespace,
/// no overflow. Throws std::runtime_error otherwise.
std::uint64_t parse_u64_exact(std::string_view text);

/// Escape a free-form string into a token safe inside a tab-separated,
/// newline-terminated record: \t, \n, \r and backslash become two-character
/// backslash escapes; everything else passes through verbatim.
std::string escape_field(std::string_view text);

/// Inverse of escape_field. Throws std::runtime_error on an unknown escape
/// or a dangling trailing backslash (a torn record, not a valid field).
std::string unescape_field(std::string_view text);

/// FNV-1a 64-bit hash (the repo's canonical cheap content hash: scenario
/// seed identities and sweep grid fingerprints both use it).
std::uint64_t fnv1a64(std::string_view text);

}  // namespace tscclock
