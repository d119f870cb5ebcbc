// The libpcap-free pcap reader/writer (trace/pcap.hpp): round-trips through
// every header variant the reader claims to support — both magic-number
// byte orders AND the nanosecond-timestamp magic — plus the frame
// parse/synthesize differential and the failure paths (bad magic,
// truncated records), so PcapSource can trust the layer beneath it.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <algorithm>
#include <span>

#include "classbench/generator.hpp"
#include "common/failpoint.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"

namespace nuevomatch {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Deterministic mixed-protocol packet sample: TCP, UDP, ICMP (port-less),
/// SCTP, odd protocols — the synthesis/parse pair must round-trip each.
std::vector<Packet> sample_packets() {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 7);
  std::vector<Packet> pkts = representative_packets(rules, 7);
  pkts.resize(64);
  const uint32_t protos[] = {6, 17, 1, 132, 47};  // tcp udp icmp sctp gre
  for (size_t i = 0; i < pkts.size(); ++i) {
    pkts[i].field[kProto] = protos[i % std::size(protos)];
    if (pkts[i][kProto] == 1 || pkts[i][kProto] == 47) {
      // Port-less protocols carry no L4 ports on the wire; the parsed
      // packet comes back with 0 there, so put 0 in to round-trip exactly.
      pkts[i].field[kSrcPort] = 0;
      pkts[i].field[kDstPort] = 0;
    }
  }
  return pkts;
}

struct Variant {
  bool nanosecond;
  bool byte_swapped;
};

class PcapRoundTrip : public ::testing::TestWithParam<Variant> {};

TEST_P(PcapRoundTrip, PacketsAndTimestampsSurviveEveryHeaderVariant) {
  const auto [nanosecond, swapped] = GetParam();
  const std::vector<Packet> pkts = sample_packets();
  const std::string path = tmp_path("roundtrip.pcap");

  PcapWriterOptions opts;
  opts.nanosecond = nanosecond;
  opts.byte_swapped = swapped;
  constexpr uint64_t kBase = 1'700'000'000ull * 1'000'000'000ull;
  ASSERT_TRUE(write_pcap_packets(path, pkts, opts, kBase));

  PcapReader r{path};
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.nanosecond(), nanosecond);
  EXPECT_EQ(r.byte_swapped(), swapped);
  EXPECT_EQ(r.link_type(), kLinkEthernet);

  PcapRecord rec;
  size_t i = 0;
  while (r.next(rec)) {
    ASSERT_LT(i, pkts.size());
    // 1 µs spacing is exact in both timestamp precisions.
    EXPECT_EQ(rec.ts_ns, kBase + i * 1'000) << "packet " << i;
    const auto parsed = parse_frame(rec.frame, r.link_type());
    ASSERT_TRUE(parsed.has_value()) << "packet " << i;
    EXPECT_EQ(parsed->field, pkts[i].field) << "packet " << i;
    ++i;
  }
  EXPECT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(i, pkts.size());

  // The convenience loader agrees.
  size_t skipped = 123;
  const auto all = read_pcap_packets(path, &skipped);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(all->size(), pkts.size());
  for (size_t k = 0; k < pkts.size(); ++k) EXPECT_EQ((*all)[k].field, pkts[k].field);
}

INSTANTIATE_TEST_SUITE_P(Variants, PcapRoundTrip,
                         ::testing::Values(Variant{false, false},
                                           Variant{false, true},
                                           Variant{true, false},
                                           Variant{true, true}),
                         [](const auto& info) {
                           return std::string(info.param.nanosecond ? "nsec" : "usec") +
                                  (info.param.byte_swapped ? "_swapped" : "_native");
                         });

TEST(PcapRoundTripRaw, RawLinkTypeFilesRoundTripToo) {
  const std::vector<Packet> pkts = sample_packets();
  const std::string path = tmp_path("roundtrip_raw.pcap");
  PcapWriterOptions opts;
  opts.link_type = kLinkRawIpv4;  // records are bare IP datagrams
  ASSERT_TRUE(write_pcap_packets(path, pkts, opts));
  PcapReader r{path};
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.link_type(), kLinkRawIpv4);
  size_t skipped = 9;
  const auto back = read_pcap_packets(path, &skipped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back->size(), pkts.size());
  for (size_t i = 0; i < pkts.size(); ++i) EXPECT_EQ((*back)[i].field, pkts[i].field);

  // A link type the parser cannot read back is refused up front, never
  // written as a silently unparseable file.
  PcapWriterOptions bogus;
  bogus.link_type = 12345;
  EXPECT_FALSE(write_pcap_packets(tmp_path("bogus_lt.pcap"), pkts, bogus));
}

TEST(PcapFrameParse, SynthesisDifferentialPerProtocol) {
  for (const uint32_t proto : {6u, 17u, 132u, 136u}) {
    Packet p;
    p.field = {0x0A000001, 0xC0A80102, 443, 51515, proto};
    const auto back = parse_frame(synthesize_frame(p));
    ASSERT_TRUE(back.has_value()) << "proto " << proto;
    EXPECT_EQ(back->field, p.field) << "proto " << proto;
  }
  // Port-less protocol: ports do not survive (there is no L4 header).
  Packet icmp;
  icmp.field = {1, 2, 0, 0, 1};
  const auto back = parse_frame(synthesize_frame(icmp));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->field, icmp.field);
}

TEST(PcapFrameParse, VlanTagAndRawLinkType) {
  Packet p;
  p.field = {0x01020304, 0x05060708, 1000, 2000, 6};
  std::vector<uint8_t> frame = synthesize_frame(p);
  // Splice one 802.1Q tag after the MACs: TPID 0x8100, TCI, old ethertype.
  std::vector<uint8_t> tagged(frame.begin(), frame.begin() + 12);
  tagged.insert(tagged.end(), {0x81, 0x00, 0x00, 0x2A});
  tagged.insert(tagged.end(), frame.begin() + 12, frame.end());
  const auto via_vlan = parse_frame(tagged);
  ASSERT_TRUE(via_vlan.has_value());
  EXPECT_EQ(via_vlan->field, p.field);

  // LINKTYPE_RAW: the frame IS the IP datagram.
  const std::vector<uint8_t> ip_only(frame.begin() + 14, frame.end());
  const auto via_raw = parse_frame(ip_only, kLinkRawIpv4);
  ASSERT_TRUE(via_raw.has_value());
  EXPECT_EQ(via_raw->field, p.field);
}

TEST(PcapFrameParse, RejectsWhatItCannotProject) {
  Packet p;
  p.field = {1, 2, 3, 4, 6};
  std::vector<uint8_t> frame = synthesize_frame(p);

  // Non-IPv4 ethertype (ARP).
  std::vector<uint8_t> arp = frame;
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_FALSE(parse_frame(arp).has_value());

  // Truncated mid-IP-header.
  EXPECT_FALSE(parse_frame({frame.data(), 20}).has_value());
  EXPECT_FALSE(parse_frame({frame.data(), 0}).has_value());

  // Non-first fragment: no L4 header to read; ports must come back 0, not
  // garbage read from payload bytes.
  std::vector<uint8_t> frag = frame;
  frag[14 + 6] = 0x00;
  frag[14 + 7] = 0x10;  // fragment offset 16
  const auto parsed = parse_frame(frag);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ((*parsed)[kSrcPort], 0u);
  EXPECT_EQ((*parsed)[kDstPort], 0u);
  EXPECT_EQ((*parsed)[kProto], 6u);
}

TEST(PcapReaderErrors, BadMagicAndTruncatedRecord) {
  const std::string bad = tmp_path("bad_magic.pcap");
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint8_t junk[24] = {0xDE, 0xAD, 0xBE, 0xEF};
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  PcapReader r1{bad};
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.error().find("magic"), std::string::npos);

  // A valid file cut off mid-record must report an error, not a clean EOF.
  const std::string truncated = tmp_path("truncated.pcap");
  const std::vector<Packet> pkts = sample_packets();
  ASSERT_TRUE(write_pcap_packets(truncated, {pkts.data(), 2}));
  const auto full = std::filesystem::file_size(truncated);
  std::filesystem::resize_file(truncated, full - 7);
  PcapReader r2{truncated};
  ASSERT_TRUE(r2.ok());
  PcapRecord rec;
  EXPECT_TRUE(r2.next(rec));   // first record intact
  EXPECT_FALSE(r2.next(rec));  // second is cut off...
  EXPECT_FALSE(r2.ok());       // ...and that is an ERROR, not EOF
}

TEST(PcapReaderErrors, MissingFile) {
  PcapReader r{tmp_path("does_not_exist.pcap")};
  EXPECT_FALSE(r.ok());
}

// --- hardening: corrupt captures fail cleanly, never crash ------------------

std::vector<uint8_t> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + got);
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(PcapHardening, TruncationAtEveryByteFailsCleanlyOrEofExactly) {
  // A capture cut at ANY byte must either read back as a clean EOF (cuts
  // exactly on a record boundary) or surface an error — never crash, never
  // silently drop a half-read record. The boundary set makes the assertion
  // exact, not just "no crash".
  std::vector<Packet> pkts = sample_packets();
  pkts.resize(3);
  const std::string full_path = tmp_path("sweep_full.pcap");
  ASSERT_TRUE(write_pcap_packets(full_path, pkts));
  const std::vector<uint8_t> full = slurp(full_path);

  std::vector<size_t> boundaries{24};  // global header alone = empty capture
  for (const Packet& p : pkts)
    boundaries.push_back(boundaries.back() + 16 + synthesize_frame(p).size());
  ASSERT_EQ(boundaries.back(), full.size());

  const std::string cut_path = tmp_path("sweep_cut.pcap");
  for (size_t keep = 0; keep < full.size(); ++keep) {
    spit(cut_path, std::span{full}.first(keep));
    PcapReader r{cut_path};
    if (keep < 24) {
      EXPECT_FALSE(r.ok()) << "keep " << keep;
      EXPECT_FALSE(r.error().empty()) << "keep " << keep;
      continue;
    }
    ASSERT_TRUE(r.ok()) << "keep " << keep;
    PcapRecord rec;
    size_t n = 0;
    while (r.next(rec)) ++n;
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), keep) != boundaries.end();
    EXPECT_EQ(r.ok(), on_boundary) << "keep " << keep;
    if (!on_boundary) EXPECT_FALSE(r.error().empty()) << "keep " << keep;
  }
}

TEST(PcapHardening, GarbageLinkTypeRejectedAtOpen) {
  const std::vector<Packet> pkts = sample_packets();
  const std::string path = tmp_path("badlink.pcap");
  ASSERT_TRUE(write_pcap_packets(path, {pkts.data(), 2}));
  std::vector<uint8_t> bytes = slurp(path);
  bytes[20] = 147;  // network field (offset 20), little-endian
  bytes[21] = bytes[22] = bytes[23] = 0;
  spit(path, bytes);
  PcapReader r{path};
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unsupported pcap link type 147"), std::string::npos)
      << r.error();
  EXPECT_NE(r.error().find("badlink.pcap"), std::string::npos)
      << "per-file errors must name the file: " << r.error();
}

TEST(PcapHardening, BadVersionRejectedAtOpen) {
  const std::vector<Packet> pkts = sample_packets();
  const std::string path = tmp_path("badver.pcap");
  ASSERT_TRUE(write_pcap_packets(path, {pkts.data(), 1}));
  std::vector<uint8_t> bytes = slurp(path);
  bytes[4] = 7;  // version_major (offset 4), little-endian
  bytes[5] = 0;
  spit(path, bytes);
  PcapReader r{path};
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unsupported pcap version 7"), std::string::npos)
      << r.error();
}

TEST(PcapHardening, CorruptLengthsCarryRecordIndex) {
  const std::vector<Packet> pkts = sample_packets();
  const std::string path = tmp_path("badlen.pcap");
  ASSERT_TRUE(write_pcap_packets(path, {pkts.data(), 2}));
  const std::vector<uint8_t> good = slurp(path);
  const size_t rec2 = 24 + 16 + synthesize_frame(pkts[0]).size();

  // incl_len > orig_len: declared capture longer than the original frame.
  {
    std::vector<uint8_t> bytes = good;
    bytes[rec2 + 8] += 1;  // incl_len (record header offset 8), little-endian
    spit(path, bytes);
    PcapReader r{path};
    ASSERT_TRUE(r.ok());
    PcapRecord rec;
    EXPECT_TRUE(r.next(rec));   // record 1 untouched
    EXPECT_FALSE(r.next(rec));  // record 2 corrupt
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("record 2"), std::string::npos) << r.error();
    EXPECT_NE(r.error().find("incl_len exceeds orig_len"), std::string::npos)
        << r.error();
  }

  // Absurd incl_len: rejected before any allocation attempt.
  {
    std::vector<uint8_t> bytes = good;
    bytes[rec2 + 8] = bytes[rec2 + 9] = bytes[rec2 + 10] = 0xFF;
    bytes[rec2 + 11] = 0x7F;
    spit(path, bytes);
    PcapReader r{path};
    ASSERT_TRUE(r.ok());
    PcapRecord rec;
    EXPECT_TRUE(r.next(rec));
    EXPECT_FALSE(r.next(rec));
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("record 2"), std::string::npos) << r.error();
    EXPECT_NE(r.error().find("implausibly large"), std::string::npos) << r.error();
  }
}

// --- block reads: records that straddle refills -----------------------------

// The reader refills a 16 KiB block (pcap.cpp kBlockBytes); its first read
// covers file bytes [0, 16 KiB). These captures put a record boundary, a
// straddling record, and a frame larger than a block where the refills land.
constexpr size_t kFirstBlock = 16 * 1024;

struct BlockCapture {
  std::vector<Packet> pkts;
  std::vector<size_t> frame_len;  ///< written incl_len == orig_len per record
  std::vector<size_t> start;      ///< file offset of each record header
  size_t size = 0;                ///< total file bytes
  size_t jumbo = 0;               ///< index of the larger-than-a-block frame
};

constexpr uint64_t kBlockBase = 1'600'000'000ull * 1'000'000'000ull;

/// 2400 mixed-protocol records (several blocks), record `jumbo` padded to
/// 40000 bytes. With `align`, the record crossing the first block's end is
/// padded to end exactly on it instead.
BlockCapture write_block_capture(const std::string& path, bool align) {
  BlockCapture c;
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 11);
  TraceConfig tc;
  tc.n_packets = 2'400;
  c.pkts = generate_trace(rules, tc);
  for (Packet& p : c.pkts) {
    if (!proto_has_ports(static_cast<uint8_t>(p[kProto]))) {
      p.field[kSrcPort] = 0;
      p.field[kDstPort] = 0;
    }
  }
  c.jumbo = 1'500;
  PcapWriter w{path, PcapWriterOptions{.nanosecond = true}};
  size_t off = 24;
  for (size_t i = 0; i < c.pkts.size(); ++i) {
    std::vector<uint8_t> frame = synthesize_frame(c.pkts[i]);
    // parse_frame reads the headers only: trailing padding round-trips.
    if (i == c.jumbo) frame.resize(40'000);
    const size_t end = off + 16 + frame.size();
    if (align && off < kFirstBlock && end + 16 + 64 > kFirstBlock)
      frame.resize(kFirstBlock - off - 16);
    c.start.push_back(off);
    c.frame_len.push_back(frame.size());
    w.write(kBlockBase + i * 7'919, frame);
    off += 16 + frame.size();
  }
  w.close();
  EXPECT_TRUE(w.ok()) << w.error();
  c.size = off;
  return c;
}

/// Read `path` to the end; every record must equal the capture's.
size_t read_and_check(const std::string& path, const BlockCapture& c,
                      PcapReader& r) {
  PcapRecord rec;
  size_t n = 0;
  while (r.next(rec)) {
    if (n >= c.pkts.size()) {
      ADD_FAILURE() << "more records than written";
      break;
    }
    EXPECT_EQ(rec.number, n + 1) << path << " record " << n;
    EXPECT_EQ(rec.ts_ns, kBlockBase + n * 7'919) << path << " record " << n;
    EXPECT_EQ(rec.frame.size(), c.frame_len[n]) << "record " << n;
    EXPECT_EQ(rec.orig_len, c.frame_len[n]) << "record " << n;
    const auto parsed = parse_frame(rec.frame, r.link_type());
    EXPECT_TRUE(parsed.has_value()) << "record " << n;
    if (parsed.has_value()) {
      EXPECT_EQ(parsed->field, c.pkts[n].field) << "record " << n;
    }
    ++n;
  }
  return n;
}

TEST(PcapBlockReads, MultiBlockCaptureWithJumboFrameReadsBackExactly) {
  const std::string path = tmp_path("blocks.pcap");
  const BlockCapture c = write_block_capture(path, /*align=*/false);
  ASSERT_GT(c.size, 6 * kFirstBlock) << "capture must span several blocks";
  ASSERT_GT(c.frame_len[c.jumbo], kFirstBlock);
  PcapReader r{path};
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(read_and_check(path, c, r), c.pkts.size());
  EXPECT_TRUE(r.ok()) << r.error();

  // The convenience loader agrees.
  size_t skipped = 5;
  const auto all = read_pcap_packets(path, &skipped);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(all->size(), c.pkts.size());
  for (size_t i = 0; i < c.pkts.size(); ++i) EXPECT_EQ((*all)[i].field, c.pkts[i].field);
}

TEST(PcapBlockReads, EofExactlyOnABlockBoundaryIsClean) {
  const std::string path = tmp_path("blocks_aligned.pcap");
  const BlockCapture c = write_block_capture(path, /*align=*/true);
  const auto at = std::find(c.start.begin(), c.start.end(), kFirstBlock);
  ASSERT_NE(at, c.start.end()) << "a record must start on the block boundary";
  const size_t records = static_cast<size_t>(at - c.start.begin());

  std::filesystem::resize_file(path, kFirstBlock);
  PcapReader r{path};
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(read_and_check(path, c, r), records);
  EXPECT_TRUE(r.ok()) << "a cut on a record boundary is a clean EOF: " << r.error();
}

/// The 1-based record index and message a cut at `keep` bytes must report,
/// or "" when the cut lands on a record boundary (clean EOF).
std::string expected_cut_error(const BlockCapture& c, size_t keep) {
  for (size_t i = 0; i < c.start.size(); ++i) {
    const size_t end = c.start[i] + 16 + c.frame_len[i];
    if (keep == c.start[i]) return "";
    if (keep < end) {
      return "pcap record " + std::to_string(i + 1) +
             (keep < c.start[i] + 16 ? ": truncated record header"
                                     : ": truncated record body");
    }
  }
  return "";
}

TEST(PcapBlockReads, TruncationInsideAStraddlingRecordNamesIt) {
  const std::string full_path = tmp_path("blocks_full.pcap");
  const BlockCapture c = write_block_capture(full_path, /*align=*/false);
  const std::vector<uint8_t> full = slurp(full_path);
  ASSERT_EQ(full.size(), c.size);

  // The record whose body crosses the end of the first block.
  size_t straddler = 0;
  while (c.start[straddler] + 16 + c.frame_len[straddler] <= kFirstBlock) ++straddler;
  ASSERT_LT(c.start[straddler] + 16, kFirstBlock) << "its header fits the block";

  // Every cut around the first refill and across the jumbo frame either
  // reads back as a clean EOF with exactly the records before it, or fails
  // naming the record it lands in.
  std::vector<size_t> cuts;
  for (size_t k = kFirstBlock - 160; k <= kFirstBlock + 160; ++k) cuts.push_back(k);
  const size_t j = c.start[c.jumbo];
  for (const size_t k : {j, j + 1, j + 15, j + 16, j + 17, j + 16 + kFirstBlock,
                         j + 16 + c.frame_len[c.jumbo] - 1,
                         j + 16 + c.frame_len[c.jumbo]})
    cuts.push_back(k);

  const std::string cut_path = tmp_path("blocks_cut.pcap");
  size_t body_cuts_past_block = 0;
  for (const size_t keep : cuts) {
    spit(cut_path, std::span{full}.first(keep));
    PcapReader r{cut_path};
    ASSERT_TRUE(r.ok()) << r.error();
    PcapRecord rec;
    size_t n = 0;
    while (r.next(rec)) ++n;
    const std::string want = expected_cut_error(c, keep);
    EXPECT_EQ(r.error(), want) << "keep " << keep;
    const auto rec_at = std::lower_bound(c.start.begin(), c.start.end(), keep);
    const size_t whole = static_cast<size_t>(rec_at - c.start.begin()) -
                         (want.empty() ? 0 : 1);
    EXPECT_EQ(n, whole) << "keep " << keep;
    if (keep > kFirstBlock && keep < c.start[straddler] + 16 + c.frame_len[straddler]) {
      EXPECT_EQ(want, "pcap record " + std::to_string(straddler + 1) +
                          ": truncated record body");
      ++body_cuts_past_block;
    }
  }
  EXPECT_GT(body_cuts_past_block, 0u) << "no cut landed in the straddling body";
  EXPECT_EQ(expected_cut_error(c, j + 16 + kFirstBlock),
            "pcap record " + std::to_string(c.jumbo + 1) + ": truncated record body");
}

TEST(PcapFailpoint, InjectedParseFailureCountsAsSkip) {
  const std::vector<Packet> pkts = sample_packets();
  const std::string path = tmp_path("fp_parse.pcap");
  ASSERT_TRUE(write_pcap_packets(path, {pkts.data(), 5}));

  {
    // Exactly the 2nd frame "fails to parse": skipped, not fatal.
    failpoint::Scoped arm{failpoint::kPcapParse, failpoint::Trigger::nth(2)};
    size_t skipped = 0;
    const auto got = read_pcap_packets(path, &skipped);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(skipped, 1u);
    EXPECT_EQ(got->size(), 4u);
    EXPECT_EQ((*got)[1].field, pkts[2].field) << "the skip must not shift "
                                                 "neighboring frames";
  }
  // Disarmed: the same file reads in full.
  size_t skipped = 9;
  const auto got = read_pcap_packets(path, &skipped);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(got->size(), 5u);
}

}  // namespace
}  // namespace nuevomatch
