#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
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

/// The strict value parsers behind `Cli::get_*`, also for values that are
/// not options (job ids, comma-list items): the whole text must parse, and
/// the error names `what` (e.g. "option --miners") and quotes the text.
std::uint64_t parse_u64(const std::string& what, const std::string& text);
double parse_double(const std::string& what, const std::string& text);
bool parse_bool(const std::string& what, const std::string& text);

/// One row of a command's flag table, the single declaration of a flag:
/// its name, how its value parses, the inclusive bounds of a number (of
/// every item, for the list kinds), one line of help, and the fixed names
/// of the name kinds (an item parses to its index in `names`).
struct Flag {
  enum Kind { kU64, kU64List, kDouble, kBool, kName, kNameList };
  Flag(std::string name, Kind kind, double min, double max, std::string help,
       std::vector<std::string> names = {})
      : name(std::move(name)), kind(kind), min(min), max(max),
        help(std::move(help)), names(std::move(names)) {}
  std::string name;
  Kind kind;
  double min;
  double max;  ///< infinity when unbounded
  std::string help;
  std::vector<std::string> names;
};
using FlagTable = std::vector<Flag>;

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
