#include "trace/pcap.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/failpoint.hpp"

namespace nuevomatch {

namespace {

constexpr uint32_t kMagicUsec = 0xA1B2C3D4u;
constexpr uint32_t kMagicNsec = 0xA1B23C4Du;

/// Reader block size. Small on purpose: a refill is one copy of a block,
/// and it lands inside a single burst. 256 KiB blocks set the pipeline's
/// p99 burst latency; 16 KiB blocks lower it along with the per-record
/// cost (DESIGN.md "Packet I/O" has the measurements).
constexpr size_t kBlockBytes = 16 * 1024;

constexpr uint32_t bswap32(uint32_t v) noexcept {
  return (v >> 24) | ((v >> 8) & 0x0000FF00u) | ((v << 8) & 0x00FF0000u) | (v << 24);
}
constexpr uint16_t bswap16(uint16_t v) noexcept {
  return static_cast<uint16_t>((v >> 8) | (v << 8));
}

/// pcap global header (24 bytes) in file order.
struct GlobalHeader {
  uint32_t magic;
  uint16_t version_major;
  uint16_t version_minor;
  int32_t thiszone;
  uint32_t sigfigs;
  uint32_t snaplen;
  uint32_t network;
};
static_assert(sizeof(GlobalHeader) == 24);

/// Per-record header (16 bytes): seconds, fraction (µs or ns), lengths.
struct RecordHeader {
  uint32_t ts_sec;
  uint32_t ts_frac;
  uint32_t incl_len;
  uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

// Big-endian byte readers for the network headers.
uint16_t be16(const uint8_t* p) noexcept {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}
uint32_t be32(const uint8_t* p) noexcept {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}
void put_be16(std::vector<uint8_t>& v, uint16_t x) {
  v.push_back(static_cast<uint8_t>(x >> 8));
  v.push_back(static_cast<uint8_t>(x));
}
void put_be32(std::vector<uint8_t>& v, uint32_t x) {
  v.push_back(static_cast<uint8_t>(x >> 24));
  v.push_back(static_cast<uint8_t>(x >> 16));
  v.push_back(static_cast<uint8_t>(x >> 8));
  v.push_back(static_cast<uint8_t>(x));
}

constexpr uint16_t kEtherIpv4 = 0x0800;
constexpr uint16_t kEtherVlan = 0x8100;

}  // namespace

bool proto_has_ports(uint8_t proto) noexcept {
  return proto == 6 || proto == 17 || proto == 132 || proto == 136;
}

// --- reader ----------------------------------------------------------------

PcapReader::PcapReader(const std::string& path) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr) {
    error_ = "cannot open " + path;
    return;
  }
  // The block buffer below is the only buffer: stdio's would add a second
  // copy of every byte.
  std::setvbuf(f_, nullptr, _IONBF, 0);
  buf_.resize(kBlockBytes);
  if (!fill(sizeof(GlobalHeader))) {
    error_ = path + ": truncated pcap global header";
    return;
  }
  GlobalHeader gh;
  std::memcpy(&gh, buf_.data() + pos_, sizeof gh);
  pos_ += sizeof gh;
  switch (gh.magic) {
    case kMagicUsec: break;
    case kMagicNsec: nanosecond_ = true; break;
    default:
      if (bswap32(gh.magic) == kMagicUsec) {
        swapped_ = true;
      } else if (bswap32(gh.magic) == kMagicNsec) {
        swapped_ = true;
        nanosecond_ = true;
      } else {
        char buf[64];
        std::snprintf(buf, sizeof buf, ": bad pcap magic 0x%08X", gh.magic);
        error_ = path + buf;
        return;
      }
  }
  const uint16_t version = swapped_ ? bswap16(gh.version_major) : gh.version_major;
  if (version != 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ": unsupported pcap version %u", version);
    error_ = path + buf;
    return;
  }
  link_type_ = swapped_ ? bswap32(gh.network) : gh.network;
  if (link_type_ != kLinkEthernet && link_type_ != kLinkRawIpv4) {
    // Reject at open: every frame of an unknown link type would fail to
    // project onto a five-tuple, and a silent 100% skip rate looks exactly
    // like an empty trace. Better one clean per-file error.
    char buf[64];
    std::snprintf(buf, sizeof buf, ": unsupported pcap link type %u", link_type_);
    error_ = path + buf;
    return;
  }
}

PcapReader::~PcapReader() {
  if (f_ != nullptr) std::fclose(f_);
}

bool PcapReader::fill(size_t need) {
  if (end_ - pos_ >= need) return true;
  // Move the unread tail (less than one record) to the front, then read up
  // to one block — or the whole record when it is larger than a block.
  const size_t tail = end_ - pos_;
  if (tail > 0 && pos_ > 0) std::memmove(buf_.data(), buf_.data() + pos_, tail);
  pos_ = 0;
  end_ = tail;
  const size_t want = std::max(need, kBlockBytes);
  if (buf_.size() < want) buf_.resize(want);
  end_ += std::fread(buf_.data() + end_, 1, want - end_, f_);
  return end_ >= need;
}

bool PcapReader::next(PcapRecord& out) {
  if (!ok() || f_ == nullptr) return false;
  // Per-record errors carry the 1-based record index: "record 3: ..." is
  // actionable on a multi-gigabyte capture, "truncated body" is not.
  const auto fail = [&](const char* what) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "pcap record %llu: %s",
                  static_cast<unsigned long long>(n_records_ + 1), what);
    error_ = buf;
    return false;
  };
  if (!fill(sizeof(RecordHeader))) {
    if (end_ == pos_) return false;  // clean EOF
    return fail("truncated record header");
  }
  RecordHeader rh;
  std::memcpy(&rh, buf_.data() + pos_, sizeof rh);
  if (swapped_) {
    rh.ts_sec = bswap32(rh.ts_sec);
    rh.ts_frac = bswap32(rh.ts_frac);
    rh.incl_len = bswap32(rh.incl_len);
    rh.orig_len = bswap32(rh.orig_len);
  }
  if (rh.incl_len > (1u << 26))  // 64 MiB: no sane snaplen, corrupt file
    return fail("incl_len implausibly large");
  if (rh.incl_len > rh.orig_len)
    return fail("incl_len exceeds orig_len (corrupt lengths)");
  if (!fill(sizeof rh + rh.incl_len)) return fail("truncated record body");
  out.frame = {buf_.data() + pos_ + sizeof rh, rh.incl_len};
  pos_ += sizeof rh + rh.incl_len;
  out.orig_len = rh.orig_len;
  out.ts_ns = static_cast<uint64_t>(rh.ts_sec) * 1'000'000'000ull +
              static_cast<uint64_t>(rh.ts_frac) * (nanosecond_ ? 1ull : 1'000ull);
  ++n_records_;
  return true;
}

// --- writer ----------------------------------------------------------------

PcapWriter::PcapWriter(const std::string& path, PcapWriterOptions opts)
    : opts_(opts) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    error_ = "cannot open " + path + " for writing";
    return;
  }
  GlobalHeader gh{};
  gh.magic = opts_.nanosecond ? kMagicNsec : kMagicUsec;
  gh.version_major = 2;
  gh.version_minor = 4;
  gh.snaplen = opts_.snaplen;
  gh.network = opts_.link_type;
  if (opts_.byte_swapped) {
    gh.magic = bswap32(gh.magic);
    gh.version_major = bswap16(gh.version_major);
    gh.version_minor = bswap16(gh.version_minor);
    gh.snaplen = bswap32(gh.snaplen);
    gh.network = bswap32(gh.network);
  }
  if (std::fwrite(&gh, sizeof gh, 1, f_) != 1) error_ = "short write: global header";
}

PcapWriter::~PcapWriter() { close(); }

void PcapWriter::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

void PcapWriter::write(uint64_t ts_ns, std::span<const uint8_t> frame) {
  if (!ok() || f_ == nullptr) return;
  RecordHeader rh;
  rh.ts_sec = static_cast<uint32_t>(ts_ns / 1'000'000'000ull);
  const uint64_t frac_ns = ts_ns % 1'000'000'000ull;
  rh.ts_frac = static_cast<uint32_t>(opts_.nanosecond ? frac_ns : frac_ns / 1'000ull);
  rh.incl_len = static_cast<uint32_t>(frame.size());
  rh.orig_len = static_cast<uint32_t>(frame.size());
  if (opts_.byte_swapped) {
    rh.ts_sec = bswap32(rh.ts_sec);
    rh.ts_frac = bswap32(rh.ts_frac);
    rh.incl_len = bswap32(rh.incl_len);
    rh.orig_len = bswap32(rh.orig_len);
  }
  if (std::fwrite(&rh, sizeof rh, 1, f_) != 1 ||
      (!frame.empty() &&
       std::fwrite(frame.data(), 1, frame.size(), f_) != frame.size())) {
    error_ = "short write: pcap record";
  }
}

// --- frame parse / synthesis ------------------------------------------------

std::optional<Packet> parse_frame(std::span<const uint8_t> frame, uint32_t link_type) {
  // Injected parse failure (failpoint "pcap.parse"): the frame reports as
  // unprojectable through the same skip-and-count channel as real damage.
  if (failpoint::should_fire(failpoint::kPcapParse)) return std::nullopt;
  size_t off = 0;
  if (link_type == kLinkEthernet) {
    if (frame.size() < 14) return std::nullopt;
    uint16_t ethertype = be16(frame.data() + 12);
    off = 14;
    if (ethertype == kEtherVlan) {  // one 802.1Q tag
      if (frame.size() < 18) return std::nullopt;
      ethertype = be16(frame.data() + 16);
      off = 18;
    }
    if (ethertype != kEtherIpv4) return std::nullopt;
  } else if (link_type != kLinkRawIpv4) {
    return std::nullopt;
  }

  if (frame.size() < off + 20) return std::nullopt;
  const uint8_t* ip = frame.data() + off;
  if ((ip[0] >> 4) != 4) return std::nullopt;
  const size_t ihl = static_cast<size_t>(ip[0] & 0x0F) * 4;
  if (ihl < 20 || frame.size() < off + ihl) return std::nullopt;

  Packet p;
  p.field[kSrcIp] = be32(ip + 12);
  p.field[kDstIp] = be32(ip + 16);
  const uint8_t proto = ip[9];
  p.field[kProto] = proto;
  p.field[kSrcPort] = 0;
  p.field[kDstPort] = 0;
  // L4 ports: only for the first fragment (offset 0) of a port-bearing
  // protocol, and only when the capture actually includes them.
  const uint16_t frag = be16(ip + 6);
  const bool first_fragment = (frag & 0x1FFF) == 0;
  if (proto_has_ports(proto) && first_fragment && frame.size() >= off + ihl + 4) {
    p.field[kSrcPort] = be16(ip + ihl);
    p.field[kDstPort] = be16(ip + ihl + 2);
  }
  return p;
}

std::vector<uint8_t> synthesize_frame(const Packet& p) {
  std::vector<uint8_t> f;
  f.reserve(64);
  // Ethernet: locally-administered placeholder MACs, IPv4 ethertype.
  const uint8_t dst_mac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
  const uint8_t src_mac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  f.insert(f.end(), dst_mac, dst_mac + 6);
  f.insert(f.end(), src_mac, src_mac + 6);
  put_be16(f, kEtherIpv4);

  const uint8_t proto = static_cast<uint8_t>(p[kProto]);
  const bool ports = proto_has_ports(proto);
  // TCP gets its full 20-byte minimal header; every other port-bearing
  // protocol gets the 8-byte UDP-shaped header; port-less protocols carry
  // a 4-byte dummy payload so the datagram is non-empty.
  const size_t l4_len = proto == 6 ? 20 : (ports ? 8 : 4);
  const size_t ip_total = 20 + l4_len;

  const size_t ip_off = f.size();
  f.push_back(0x45);  // v4, IHL 5
  f.push_back(0);     // DSCP/ECN
  put_be16(f, static_cast<uint16_t>(ip_total));
  put_be16(f, 0);       // identification
  put_be16(f, 0x4000);  // don't-fragment
  f.push_back(64);      // TTL
  f.push_back(proto);
  put_be16(f, 0);  // checksum placeholder
  put_be32(f, p[kSrcIp]);
  put_be32(f, p[kDstIp]);
  // IPv4 header checksum: one's-complement sum of the 10 header words.
  uint32_t sum = 0;
  for (size_t i = 0; i < 20; i += 2) sum += be16(f.data() + ip_off + i);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const uint16_t csum = static_cast<uint16_t>(~sum);
  f[ip_off + 10] = static_cast<uint8_t>(csum >> 8);
  f[ip_off + 11] = static_cast<uint8_t>(csum);

  if (ports) {
    put_be16(f, static_cast<uint16_t>(p[kSrcPort]));
    put_be16(f, static_cast<uint16_t>(p[kDstPort]));
    if (proto == 6) {
      put_be32(f, 0);       // seq
      put_be32(f, 0);       // ack
      f.push_back(0x50);    // data offset 5
      f.push_back(0x02);    // SYN
      put_be16(f, 0xFFFF);  // window
      put_be16(f, 0);       // checksum (not validated by parse_frame)
      put_be16(f, 0);       // urgent
    } else {
      put_be16(f, static_cast<uint16_t>(l4_len));  // UDP length
      put_be16(f, 0);                              // checksum optional
    }
  } else {
    f.insert(f.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  }
  return f;
}

std::optional<std::vector<Packet>> read_pcap_packets(const std::string& path,
                                                     size_t* skipped,
                                                     std::string* err) {
  PcapReader r{path};
  if (!r.ok()) {
    if (err != nullptr) *err = r.error();
    return std::nullopt;
  }
  std::vector<Packet> out;
  size_t skip = 0;
  PcapRecord rec;
  while (r.next(rec)) {
    if (auto p = parse_frame(rec.frame, r.link_type()); p.has_value()) {
      out.push_back(*p);
    } else {
      ++skip;
    }
  }
  if (!r.ok()) {
    if (err != nullptr) *err = r.error();
    return std::nullopt;
  }
  if (skipped != nullptr) *skipped = skip;
  return out;
}

bool write_pcap_packets(const std::string& path, std::span<const Packet> packets,
                        PcapWriterOptions opts, uint64_t base_ts_ns) {
  if (opts.link_type != kLinkEthernet && opts.link_type != kLinkRawIpv4)
    return false;  // records would not parse back; refuse to write them
  PcapWriter w{path, opts};
  uint64_t ts = base_ts_ns;
  for (const Packet& p : packets) {
    const std::vector<uint8_t> frame = synthesize_frame(p);
    // RAW records carry the bare IP datagram: strip the 14-byte Ethernet
    // header synthesize_frame always emits.
    const std::span<const uint8_t> record =
        opts.link_type == kLinkRawIpv4 ? std::span{frame}.subspan(14)
                                       : std::span{frame};
    w.write(ts, record);
    ts += 1'000;  // 1 µs spacing keeps µs and ns variants both exact
  }
  w.close();
  return w.ok();
}

}  // namespace nuevomatch
