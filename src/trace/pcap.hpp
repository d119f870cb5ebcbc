// Libpcap-free pcap file I/O + header parsing for the dataplane pipeline
// (src/pipeline): PcapSource reads capture files straight into the repo's
// five-tuple Packet model, PcapWriter / write_pcap write synthesized frames
// back out, and the golden-trace CI smoke runs the router example over a
// checked-in file.
//
// Format coverage (the classic fixed-header container, not pcapng):
//
//   * both magic numbers — 0xA1B2C3D4 (microsecond timestamps) and
//     0xA1B23C4D (nanosecond) — in both byte orders, so files written on a
//     foreign-endian machine load transparently;
//   * link types EN10MB (Ethernet, with one optional 802.1Q VLAN tag) and
//     RAW (bare IPv4);
//   * IPv4 with options (IHL honored); TCP/UDP ports; SCTP/UDP-Lite share
//     the TCP/UDP port layout and parse the same way; other protocols (and
//     non-first fragments, whose L4 header is absent) get ports 0 — they
//     still classify on the three remaining fields.
//
// Frames that cannot be projected onto a five-tuple (ARP, IPv6, truncated
// captures) are skipped and counted, never fabricated.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nuevomatch {

/// One capture record: raw frame bytes + capture timestamp. `frame` is a
/// view into the reader's block buffer, valid until the reader's next
/// next() call (or its destruction); copy the bytes to keep them longer.
struct PcapRecord {
  uint64_t ts_ns = 0;               ///< capture timestamp, nanoseconds since epoch
  uint64_t number = 0;              ///< 1-based record number within this reader's walk
  uint32_t orig_len = 0;            ///< original wire length (frame may be truncated)
  std::span<const uint8_t> frame;   ///< captured bytes (incl_len of them)
};

/// pcap link types this reader understands.
inline constexpr uint32_t kLinkEthernet = 1;    // LINKTYPE_EN10MB
inline constexpr uint32_t kLinkRawIpv4 = 101;   // LINKTYPE_RAW

/// Streaming reader. Construction reads and validates the global header:
/// a bad magic, truncated header, unsupported format version, or a link
/// type this parser cannot project onto five-tuples (anything but EN10MB /
/// RAW) leaves the reader !ok() with a per-file error message — callers
/// never have to discover a garbage link type by watching every frame
/// skip. Record-level damage (truncated header/body, incl_len > orig_len,
/// implausible lengths) fails next() with the 1-based record index in the
/// error. No exceptions on the data path.
///
/// The file is read in fixed blocks into a buffer the reader owns, and
/// next() hands out views into it: no copy and no stdio call per record.
/// The buffer grows only to hold a record larger than one block.
class PcapReader {
 public:
  explicit PcapReader(const std::string& path);
  ~PcapReader();
  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] uint32_t link_type() const noexcept { return link_type_; }
  [[nodiscard]] bool nanosecond() const noexcept { return nanosecond_; }
  [[nodiscard]] bool byte_swapped() const noexcept { return swapped_; }

  /// Read the next record. Returns false at clean EOF or on error (check
  /// ok() to tell the two apart — a record truncated mid-file is an error).
  /// The previous record's frame view is invalid once this is called.
  bool next(PcapRecord& out);

 private:
  /// Make at least `need` unread bytes available at pos_, refilling from
  /// the file; false when the file ends first.
  bool fill(size_t need);

  std::FILE* f_ = nullptr;
  std::vector<uint8_t> buf_;  ///< block buffer; bytes [pos_, end_) are unread
  size_t pos_ = 0;
  size_t end_ = 0;
  std::string error_;
  uint32_t link_type_ = kLinkEthernet;
  bool nanosecond_ = false;
  bool swapped_ = false;
  uint64_t n_records_ = 0;  ///< records read so far (PcapRecord::number, error index)
};

struct PcapWriterOptions {
  bool nanosecond = false;   ///< write the 0xA1B23C4D nanosecond variant
  bool byte_swapped = false; ///< emit the opposite byte order (test fodder)
  uint32_t link_type = kLinkEthernet;
  uint32_t snaplen = 65535;
};

/// Streaming writer; the global header is written on construction.
class PcapWriter {
 public:
  PcapWriter(const std::string& path, PcapWriterOptions opts = {});
  ~PcapWriter();
  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  void write(uint64_t ts_ns, std::span<const uint8_t> frame);
  /// Flush and close early (the destructor does the same).
  void close();

 private:
  std::FILE* f_ = nullptr;
  std::string error_;
  PcapWriterOptions opts_;
};

/// True when `proto`'s L4 header starts with (src port, dst port) — TCP,
/// UDP, SCTP, UDP-Lite. For any other protocol the wire carries no ports,
/// so a five-tuple with nonzero ports cannot round-trip through a frame;
/// sanitize with zero ports before synthesizing (the golden-trace recipe
/// and the pipeline tests do).
[[nodiscard]] bool proto_has_ports(uint8_t proto) noexcept;

/// Project one captured frame onto the classification five-tuple.
/// nullopt when the frame is not parseable IPv4 (wrong ethertype, truncated,
/// bad IHL...). Ports are 0 for port-less protocols and non-first fragments.
[[nodiscard]] std::optional<Packet> parse_frame(std::span<const uint8_t> frame,
                                                uint32_t link_type = kLinkEthernet);

/// parse_frame for a record a PcapReader walk produced, with the
/// `pcap.parse` failpoint decided on the record's number: an injected
/// failure reports through the same nullopt (skip-and-count) channel as real
/// damage, and lands on the same record in every walk of the capture.
[[nodiscard]] std::optional<Packet> parse_record(const PcapRecord& rec,
                                                 uint32_t link_type);

/// Synthesize a minimal, well-formed frame for a five-tuple: Ethernet +
/// IPv4 (correct header checksum) + TCP/UDP header when the protocol has
/// ports, so parse_frame(synthesize_frame(p)) == p for any in-domain packet.
[[nodiscard]] std::vector<uint8_t> synthesize_frame(const Packet& p);

/// Convenience: parse every projectable frame in a file. Frames that don't
/// parse are counted in *skipped (if given). Returns nullopt when the file
/// itself is unreadable (error in *err if given).
[[nodiscard]] std::optional<std::vector<Packet>> read_pcap_packets(
    const std::string& path, size_t* skipped = nullptr, std::string* err = nullptr);

/// Convenience: write packets as synthesized frames, 1 µs apart starting at
/// `base_ts_ns` (deterministic output — golden files diff bit-for-bit).
bool write_pcap_packets(const std::string& path, std::span<const Packet> packets,
                        PcapWriterOptions opts = {},
                        uint64_t base_ts_ns = 1'700'000'000ull * 1'000'000'000ull);

}  // namespace nuevomatch
