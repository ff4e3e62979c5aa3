#include "common/env.h"

#include <cerrno>
#include <cstdlib>

namespace matopt {

Result<bool> ParseEnvBool(const std::string& name, const std::string& text) {
  if (text == "0") return false;
  if (text == "1") return true;
  return Status::InvalidArgument(name + "=" + text +
                                 ": expected 0 or 1 for a boolean knob");
}

Result<int64_t> ParseEnvInt(const std::string& name, const std::string& text,
                            int64_t min_value, int64_t max_value) {
  auto fail = [&]() {
    return Status::InvalidArgument(
        name + "=" + text + ": expected an integer in [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  };
  if (text.empty()) return fail();
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return fail();
  if (parsed < min_value || parsed > max_value) return fail();
  return static_cast<int64_t>(parsed);
}

const std::vector<EnvKnob>& MatoptEnvKnobs() {
  static const std::vector<EnvKnob> kKnobs = {
      {"MATOPT_THREADS", EnvKnob::Kind::kInt, 1, 1024},
      {"MATOPT_WORKERS", EnvKnob::Kind::kInt, 0, 4096},
      {"MATOPT_POOL", EnvKnob::Kind::kBool, 0, 0},
      {"MATOPT_SIMD", EnvKnob::Kind::kBool, 0, 0},
      {"MATOPT_FUSION", EnvKnob::Kind::kBool, 0, 0},
      {"MATOPT_REWRITE", EnvKnob::Kind::kBool, 0, 0},
      {"MATOPT_SERVE_CACHE_ENTRIES", EnvKnob::Kind::kInt, 1, 1 << 20},
      {"MATOPT_SERVE_SOCKET", EnvKnob::Kind::kString, 0, 0},
      {"MATOPT_BENCH_DIR", EnvKnob::Kind::kString, 0, 0},
      {"MATOPT_FRONTIER_DEBUG", EnvKnob::Kind::kBool, 0, 0},
  };
  return kKnobs;
}

Status ValidateMatoptEnv() {
  for (const EnvKnob& knob : MatoptEnvKnobs()) {
    const char* value = std::getenv(knob.name.c_str());
    if (value == nullptr) continue;
    switch (knob.kind) {
      case EnvKnob::Kind::kBool: {
        Result<bool> parsed = ParseEnvBool(knob.name, value);
        if (!parsed.ok()) return parsed.status();
        break;
      }
      case EnvKnob::Kind::kInt: {
        Result<int64_t> parsed =
            ParseEnvInt(knob.name, value, knob.min_value, knob.max_value);
        if (!parsed.ok()) return parsed.status();
        break;
      }
      case EnvKnob::Kind::kString:
        break;  // any value is legal (paths)
    }
  }
  return Status::OK();
}

bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::string(value) == "1";
}

std::optional<int64_t> EnvIntOrNull(const char* name, int64_t min_value,
                                    int64_t max_value) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  Result<int64_t> parsed = ParseEnvInt(name, value, min_value, max_value);
  if (!parsed.ok()) return std::nullopt;
  return parsed.value();
}

}  // namespace matopt
