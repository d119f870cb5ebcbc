#include "pipeline/metrics_exporter.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace nuevomatch::pipeline {

namespace {

/// Serve one accepted connection: best-effort request read (we only care
/// whether the path asks for JSON), full response write, close.
void serve_client(int fd, const telemetry::Snapshot& snap) {
  // A stuck client must not wedge the exporter thread: short I/O timeouts.
  timeval tv{};
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  char req[1024];
  const ssize_t n = ::recv(fd, req, sizeof(req) - 1, 0);
  bool want_json = false;
  if (n > 0) {
    req[n] = '\0';
    want_json = std::strstr(req, "json") != nullptr;
  }

  const std::string body = want_json ? snap.to_json() : snap.to_prometheus();
  std::string resp = "HTTP/1.0 200 OK\r\nContent-Type: ";
  resp += want_json ? "application/json" : "text/plain; version=0.0.4";
  resp += "\r\nContent-Length: " + std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n";
  resp += body;

  size_t off = 0;
  while (off < resp.size()) {
    const ssize_t w = ::send(fd, resp.data() + off, resp.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (w <= 0) break;
    off += static_cast<size_t>(w);
  }
  ::close(fd);
}

/// Constructor failure: close what was opened, report errno by name.
[[noreturn]] void fail(int fd, const std::string& what) {
  const std::string err = std::strerror(errno);
  if (fd >= 0) ::close(fd);
  throw std::runtime_error("MetricsExporter: " + what + ": " + err);
}

}  // namespace

MetricsExporter::MetricsExporter(Options opt,
                                 std::function<telemetry::Snapshot()> source)
    : opt_(std::move(opt)), source_(std::move(source)) {
  if (opt_.port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail(fd, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(opt_.port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      fail(fd, "bind 127.0.0.1:" + std::to_string(opt_.port));
    socklen_t len = sizeof(addr);
    if (::listen(fd, 8) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      fail(fd, "listen");
    // Nonblocking accept: a client that hangs up between poll() and
    // accept() must not park the thread.
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    listen_fd_ = fd;
    port_ = ntohs(addr.sin_port);
  }
  if (listen_fd_ < 0 && opt_.file.empty()) return;  // nothing to serve
  if (::pipe(wake_) != 0) {
    const int fd = listen_fd_;
    listen_fd_ = -1;
    fail(fd, "pipe");
  }
  thread_ = std::thread([this] { loop(); });
}

MetricsExporter::~MetricsExporter() {
  if (thread_.joinable()) {
    const char stop = 0;
    [[maybe_unused]] const ssize_t w = ::write(wake_[1], &stop, 1);
    thread_.join();
  }
  if (!opt_.file.empty()) dump_file();
  for (const int fd : {listen_fd_, wake_[0], wake_[1]})
    if (fd >= 0) ::close(fd);
}

void MetricsExporter::loop() {
  const uint64_t interval_ns = opt_.interval_ms * 1'000'000ULL;
  uint64_t next_dump = telemetry::now_ns() + interval_ns;
  pollfd fds[2] = {{wake_[0], POLLIN, 0}, {listen_fd_, POLLIN, 0}};
  const nfds_t nfds = listen_fd_ >= 0 ? 2 : 1;
  for (;;) {
    int timeout_ms = -1;  // no file: sleep until a scrape or the stop byte
    if (!opt_.file.empty()) {
      uint64_t now = telemetry::now_ns();
      if (now >= next_dump) {
        dump_file();
        now = telemetry::now_ns();
        next_dump = now + interval_ns;
      }
      timeout_ms = static_cast<int>(
          std::min<uint64_t>((next_dump - now) / 1'000'000 + 1, INT_MAX));
    }
    if (::poll(fds, nfds, timeout_ms) < 0 && errno != EINTR) return;
    if (fds[0].revents != 0) return;  // the destructor's stop byte
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) continue;  // the client hung up first
      serve_client(client, source_());
      scrapes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void MetricsExporter::dump_file() {
  const telemetry::Snapshot s = source_();
  const std::string tmp = opt_.file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << (opt_.json ? s.to_json() : s.to_prometheus());
  }
  std::rename(tmp.c_str(), opt_.file.c_str());
  dumps_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace nuevomatch::pipeline
