#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace goc {

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
/// the error names the flag.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const char* expects, Parse parse) {
  try {
    std::size_t consumed = 0;
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("option --" + name + " expects " + expects +
                              ", got '" + text + "'");
}

}  // namespace

std::int64_t Cli::get_i64(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole(name, it->second, "an integer",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stoll(s, pos);
                     });
}

std::uint64_t Cli::get_u64(const std::string& name,
                           std::uint64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole(name, it->second, "an unsigned integer",
                     [](const std::string& s, std::size_t* pos) {
                       // std::stoull accepts a sign and wraps "-5"; only
                       // plain digits are an unsigned integer here.
                       if (s.empty() || s[0] < '0' || s[0] > '9') {
                         throw std::invalid_argument("not a digit");
                       }
                       return std::stoull(s, pos);
                     });
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole(name, it->second, "a number",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stod(s, pos);
                     });
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("option --" + name + " expects a boolean, got '" +
                              v + "'");
}

std::vector<std::string> Cli::option_names() const {
  std::vector<std::string> names;
  names.reserve(options_.size());
  for (const auto& [k, _] : options_) names.push_back(k);
  return names;
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
