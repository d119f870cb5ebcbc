// MetricsExporter — the dataplane's scrape surface, a control-plane object
// beside the graph (never an element in it: the packet path pays nothing).
//
// It owns one thread that serves two sinks, both optional:
//
//   * a tiny TCP listener on 127.0.0.1:<port> (plain sockets, bound in the
//     constructor, blocking per-client I/O with short timeouts) answering
//     any HTTP GET with the current telemetry::Snapshot — Prometheus text
//     by default, JSON when the request path contains "json";
//   * an interval file dump (same two formats, picked by `json`), written
//     once more when the exporter is destroyed.
//
// The snapshot comes from the source callback, normally
// `[&g] { return telemetry::snapshot(g); }` for the graph being run. The
// callback runs on the exporter thread while the graph runs, which is what
// telemetry::snapshot() is built for; it must stay valid until the
// exporter is destroyed (the final dump calls it from the destructor).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "pipeline/telemetry.hpp"

namespace nuevomatch::pipeline {

class MetricsExporter {
 public:
  struct Options {
    /// >= 0: serve scrapes on 127.0.0.1:port (0 = ephemeral). -1: no listener.
    int port = -1;
    /// Non-empty: dump a snapshot to this path every interval (and on
    /// destruction). Written atomically via rename of a .tmp sibling.
    std::string file;
    uint64_t interval_ms = 1000;
    bool json = false;  ///< file-dump format (the listener serves both)
  };

  /// Binds the listener (throws std::runtime_error if the bind fails, e.g.
  /// the port is taken) and starts the exporter thread.
  MetricsExporter(Options opt, std::function<telemetry::Snapshot()> source);
  /// Stops the thread, writes the final file dump, closes the listener.
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Bound listener port (the real one when Options::port was 0), or -1.
  [[nodiscard]] int port() const noexcept { return port_; }

  [[nodiscard]] uint64_t scrapes() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t dumps() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void dump_file();

  Options opt_;
  std::function<telemetry::Snapshot()> source_;
  int listen_fd_ = -1;
  int port_ = -1;
  int wake_[2] = {-1, -1};  // self-pipe: the destructor wakes loop() through it
  std::atomic<uint64_t> scrapes_{0};
  std::atomic<uint64_t> dumps_{0};
  std::thread thread_;
};

}  // namespace nuevomatch::pipeline
