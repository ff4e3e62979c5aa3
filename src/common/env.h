#ifndef MATOPT_COMMON_ENV_H_
#define MATOPT_COMMON_ENV_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace matopt {

/// Typed parsing of the MATOPT_* environment knobs.
///
/// Library call sites keep their historical lenient behaviour (an
/// unparseable value falls back to the default so a misconfigured shell
/// cannot crash an embedding process), but every CLI entry point — the
/// tools, the serve daemon, the bench binaries — calls ValidateMatoptEnv()
/// at startup and refuses to run with a typed error naming the offending
/// knob, instead of silently computing with a default the user did not ask
/// for.

/// Parses `text` as a strict boolean knob value: exactly "0" (off) or "1"
/// (on). The historical knob semantics treated any non-"0" first byte as
/// on, so "abc" silently enabled features; strict validation rejects it.
Result<bool> ParseEnvBool(const std::string& name, const std::string& text);

/// Parses `text` as an integer in [min_value, max_value]. Rejects empty
/// strings, trailing junk ("4x"), and out-of-range values with an
/// InvalidArgument naming the knob.
Result<int64_t> ParseEnvInt(const std::string& name, const std::string& text,
                            int64_t min_value, int64_t max_value);

/// One registered knob: its name, kind, and legal range (for integers).
struct EnvKnob {
  enum class Kind { kBool, kInt, kString };
  std::string name;
  Kind kind = Kind::kBool;
  int64_t min_value = 0;
  int64_t max_value = 0;
};

/// The full knob registry (README's environment table). Append-only.
const std::vector<EnvKnob>& MatoptEnvKnobs();

/// Validates every set MATOPT_* knob against the registry. Returns the
/// first violation as InvalidArgument naming the knob and its value, e.g.
///   "MATOPT_WORKERS=abc: expected an integer in [0, 4096]".
/// Unset knobs and registered string-valued knobs always pass; *unknown*
/// MATOPT_-prefixed variables in `extra_names` (callers pass environ-scans
/// when available) are not checked — the registry is the contract.
Status ValidateMatoptEnv();

/// Lenient boolean read for library switches that default to off: true
/// only when the knob is set to exactly "1".
bool EnvFlag(const char* name);

/// Lenient integer read for library defaults: the knob's value when set
/// and parseable within [min_value, max_value], nullopt otherwise.
std::optional<int64_t> EnvIntOrNull(const char* name, int64_t min_value,
                                    int64_t max_value);

}  // namespace matopt

#endif  // MATOPT_COMMON_ENV_H_
