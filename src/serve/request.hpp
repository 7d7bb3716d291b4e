#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/cli.hpp"

/// \file request.hpp
/// Parsing for the serve daemon's line protocol.
///
/// A request line is whitespace-separated tokens: a verb, then the same
/// `--name=value` / `--name value` / `--flag` option syntax every binary
/// in this repo speaks — the tokens are handed to `goc::Cli` verbatim, so
/// the daemon's flags parse (and fail) exactly like the CLI's. No quoting:
/// values cannot contain whitespace (none of the option surface needs it).
///
/// Each command declares its flags once, in a `FlagTable` (util/cli.hpp):
/// the validator checks requests against it and `help` prints it.

namespace goc::serve {

/// Splits a protocol line on runs of whitespace, so the trailing '\r' of a
/// CRLF client over TCP is dropped too.
std::vector<std::string> tokenize(const std::string& line);

/// One command's flag table. `batch` has one per scenario, each led by a
/// `--scenario` row naming that scenario alone.
struct Command {
  std::string name;
  FlagTable flags;
};

/// Every command's table, in `help` order; `lanes` (the daemon pool's
/// lane count) bounds `--epoch-lanes`.
std::vector<Command> command_tables(std::size_t lanes);

/// A request's options after validation against its command's table.
struct Request {
  Cli cli;
  const FlagTable* flags;
  /// The items of a name or list flag: a list's numbers, or each name's
  /// index in the flag's `names`; empty when the flag is absent.
  std::vector<std::size_t> items(const std::string& name) const;
};

/// The one validator, run before any job exists: finds `command`'s table
/// (a batch's by its `--scenario`, the first one by default) and checks
/// `args` against it. Throws std::invalid_argument naming an unknown flag,
/// a value the strict `Cli` parsers refuse, or one outside its range.
Request parse_request(const std::vector<Command>& commands,
                      const std::string& command,
                      const std::vector<std::string>& args);

/// Prints every table as `#` comment lines, one per flag.
void write_help(std::ostream& out, const std::vector<Command>& commands);

}  // namespace goc::serve
