/// \file goc_serve.cpp
/// The engine daemon binary.
///
/// Default mode reads the line protocol from stdin and answers on stdout —
/// scriptable with a heredoc or a coprocess, and what the CI smoke lane
/// drives. `--port=N` serves the same protocol over a loopback-only TCP
/// listener instead (one client at a time; jobs are still asynchronous
/// on the shared pool): `quit` ends that client's connection and the
/// daemon accepts the next one. Both modes run the one line loop,
/// `Server::serve`, and its line-length limit. Port 0 asks the OS for a free port; the
/// chosen one is announced on stdout. Remote exposure, auth, and
/// admission control are explicitly out of scope (see ROADMAP follow-ups)
/// — the listener binds 127.0.0.1 only.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <istream>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/stats_log.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

/// A connected socket as a stream buffer, so a TCP client runs through
/// `Server::serve` like stdin does: reads refill a small get area, writes
/// collect in a put area that `sync` (the serve loop's flush) sends.
class SocketBuf : public std::streambuf {
 public:
  explicit SocketBuf(int fd) : fd_(fd) { setp(out_, out_ + sizeof(out_)); }

 protected:
  int_type underflow() override {
    const ::ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }
  int_type overflow(int_type c) override {
    if (sync() != 0) return traits_type::eof();
    return traits_type::eq_int_type(c, traits_type::eof())
               ? traits_type::not_eof(c)
               : sputc(traits_type::to_char_type(c));
  }
  int sync() override {
    for (const char* p = pbase(); p < pptr();) {
      const ::ssize_t n =
          ::send(fd_, p, static_cast<std::size_t>(pptr() - p), 0);
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

int serve_tcp(goc::serve::Server& server, std::uint16_t port) {
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    GOC_LOG(Error) << "goc-serve: socket: " << std::strerror(errno);
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 4) != 0) {
    GOC_LOG(Error) << "goc-serve: bind/listen: " << std::strerror(errno);
    ::close(listener);
    return 1;
  }
  ::socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<::sockaddr*>(&addr), &len) ==
      0) {
    std::cout << "listening on 127.0.0.1:" << ntohs(addr.sin_port)
              << std::endl;
  }
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      GOC_LOG(Error) << "goc-serve: accept: " << std::strerror(errno);
      break;
    }
    GOC_LOG(Debug) << "goc-serve: client connected";
    SocketBuf buffer(fd);
    std::istream in(&buffer);
    std::ostream out(&buffer);
    server.serve(in, out);
    ::close(fd);
  }
  ::close(listener);
  return 0;
}

int run(int argc, char** argv) {
  const goc::Cli cli(argc, argv);
  const std::vector<std::string> stray = cli.unknown(
      {"threads", "port", "help", "verbose", "stats-log", "stats-interval"});
  if (!stray.empty()) {
    std::cerr << "goc-serve: unknown option(s):";
    for (const auto& name : stray) std::cerr << " --" << name;
    std::cerr << "\n";
    return 2;
  }
  if (cli.get_bool("help", false)) {
    std::cout << "goc-serve [--threads=N] [--port=P] [--verbose]\n"
              << "          [--stats-log=PATH] [--stats-interval=MS]\n"
              << "  line protocol on stdin/stdout (or a loopback TCP\n"
              << "  listener with --port; port 0 = OS-assigned).\n"
              << "  --verbose lowers the stderr log level to debug\n"
              << "  (GOC_LOG_LEVEL presets it); --stats-log appends one\n"
              << "  JSON metrics snapshot per interval (default 1000 ms)\n"
              << "  to PATH as JSONL.\n"
              << "  Type 'help' at the prompt for the command grammar.\n";
    return 0;
  }
  if (cli.get_bool("verbose", false)) {
    goc::set_log_level(goc::LogLevel::Debug);
  }
  std::unique_ptr<goc::obs::StatsLogger> stats_log;
  if (cli.has("stats-log")) {
    goc::obs::StatsLogger::Options log_options;
    log_options.path = cli.get_string("stats-log", "");
    log_options.interval_ms = cli.get_u64("stats-interval", 1000);
    try {
      stats_log = std::make_unique<goc::obs::StatsLogger>(log_options);
    } catch (const std::exception& error) {
      std::cerr << "goc-serve: " << error.what() << "\n";
      return 2;
    }
    GOC_LOG(Info) << "goc-serve: stats JSONL -> " << log_options.path
                  << " every " << log_options.interval_ms << " ms";
  }
  goc::serve::ServerOptions options;
  options.threads = cli.get_u64("threads", 0);
  goc::serve::Server server(options);
  GOC_LOG(Debug) << "goc-serve: pool ready with " << server.lanes()
                 << " lanes";
  if (cli.has("port")) {
    return serve_tcp(server,
                     static_cast<std::uint16_t>(cli.get_u64("port", 0)));
  }
  server.serve(std::cin, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
