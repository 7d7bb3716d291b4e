#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file cli.hpp
/// Minimal command-line option parsing for example and benchmark binaries.
///
/// Accepted syntax: `--name=value`, `--name value`, and boolean `--flag`.
/// `unknown(known_names)` returns the parsed option names outside a known
/// set so binaries (and the serve daemon's request parser) can fail fast
/// with a usage string instead of silently ignoring a typo.

namespace goc {

/// User input for an error message: `text` itself when it is at most 64
/// bytes, else its first 64 bytes, then `... [N bytes]` with the original
/// length, so an error line stays short whatever the input size.
std::string clip_input(const std::string& text);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  const std::string& program() const noexcept { return program_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_i64(const std::string& name, std::int64_t fallback) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Boolean flags: present without value (or "true"/"1") → true;
  /// "false"/"0" → false.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Parsed option names NOT in `known` (sorted, as parsed order is lost
  /// to the map). Empty means every option was recognised; non-empty is
  /// the fail-fast signal — a typo like `--stop-maxx` never silently
  /// falls back to a default again.
  std::vector<std::string> unknown(const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace goc
