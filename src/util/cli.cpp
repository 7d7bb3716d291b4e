#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace goc {

std::string clip_input(const std::string& text) {
  constexpr std::size_t kMaxBytes = 64;
  if (text.size() <= kMaxBytes) return text;
  return text.substr(0, kMaxBytes) + "... [" + std::to_string(text.size()) +
         " bytes]";
}

Cli::Cli(int argc, const char* const* argv) {
  GOC_CHECK_ARG(argc >= 1 && argv != nullptr, "Cli requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself an option or absent —
    // then it is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

namespace {

/// Runs `parse(text, &consumed)` (a `std::sto*` function) and accepts the
/// result only when the whole value was consumed and in range; otherwise
/// the error names `what`.
template <typename Parse>
auto parse_whole(const std::string& what, const std::string& text,
                 const char* expects, Parse parse) {
  try {
    std::size_t consumed = 0;
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(what + " expects " + expects + ", got '" +
                              clip_input(text) + "'");
}

}  // namespace

std::uint64_t parse_u64(const std::string& what, const std::string& text) {
  return parse_whole(what, text, "an unsigned integer",
                     [](const std::string& s, std::size_t* pos) {
                       // std::stoull accepts a sign and wraps "-5"; only
                       // plain digits are an unsigned integer here.
                       if (s.empty() || s[0] < '0' || s[0] > '9') {
                         throw std::invalid_argument("not a digit");
                       }
                       return std::stoull(s, pos);
                     });
}

double parse_double(const std::string& what, const std::string& text) {
  return parse_whole(what, text, "a number",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stod(s, pos);
                     });
}

bool parse_bool(const std::string& what, const std::string& text) {
  if (text.empty() || text == "true" || text == "1" || text == "yes") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no") return false;
  throw std::invalid_argument(what + " expects a boolean, got '" +
                              clip_input(text) + "'");
}

std::int64_t Cli::get_i64(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole("option --" + name, it->second, "an integer",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stoll(s, pos);
                     });
}

std::uint64_t Cli::get_u64(const std::string& name,
                           std::uint64_t fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback
                              : parse_u64("option --" + name, it->second);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback
                              : parse_double("option --" + name, it->second);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback
                              : parse_bool("option --" + name, it->second);
}

std::vector<std::string> Cli::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> stray;
  for (const auto& [name, _] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      stray.push_back(name);
    }
  }
  return stray;
}

}  // namespace goc
