// Unit and property tests for the util substrate.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <set>
#include <string_view>
#include <vector>

#include "util/arena.hpp"
#include "util/crc32.hpp"
#include "util/dates.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/reader.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/writer.hpp"

namespace iotls {
namespace {

// ---------------------------------------------------------------- hex

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(BytesView(data.data(), data.size())), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), data);
}

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, UpperCaseAccepted) {
  EXPECT_EQ(from_hex("DEADBEEF"), from_hex("deadbeef"));
}

TEST(Hex, OddLengthThrows) { EXPECT_THROW(from_hex("abc"), ParseError); }

TEST(Hex, NonHexThrows) { EXPECT_THROW(from_hex("zz"), ParseError); }

// ---------------------------------------------------------------- reader/writer

TEST(ReaderWriter, IntegersRoundTripBigEndian) {
  Writer w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u24(0x789abc);
  w.u32(0xdef01234);
  w.u64(0x0123456789abcdefull);
  Bytes b = w.take();
  EXPECT_EQ(b.size(), 1u + 2 + 3 + 4 + 8);
  EXPECT_EQ(b[1], 0x34);  // u16 MSB first

  Reader r(BytesView(b.data(), b.size()));
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u24(), 0x789abcu);
  EXPECT_EQ(r.u32(), 0xdef01234u);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.empty());
}

TEST(ReaderWriter, UnderflowThrows) {
  Bytes b = {1, 2};
  Reader r(BytesView(b.data(), b.size()));
  EXPECT_THROW(r.u32(), ParseError);
  // Reader state is unchanged after a failed read.
  EXPECT_EQ(r.u16(), 0x0102);
}

TEST(ReaderWriter, ExpectEndThrowsOnTrailing) {
  Bytes b = {1};
  Reader r(BytesView(b.data(), b.size()));
  EXPECT_THROW(r.expect_end("ctx"), ParseError);
  r.u8();
  EXPECT_NO_THROW(r.expect_end("ctx"));
}

TEST(ReaderWriter, LengthPrefixBackpatch) {
  Writer w;
  auto t = w.begin_length(2);
  w.str("hello");
  w.end_length(t);
  Bytes b = w.take();
  Reader r(BytesView(b.data(), b.size()));
  EXPECT_EQ(r.u16(), 5);
  EXPECT_EQ(r.str(5), "hello");
}

TEST(ReaderWriter, NestedLengthPrefixes) {
  Writer w;
  auto outer = w.begin_length(3);
  auto inner = w.begin_length(1);
  w.str("abc");
  w.end_length(inner);
  w.end_length(outer);
  Bytes b = w.take();
  Reader r(BytesView(b.data(), b.size()));
  EXPECT_EQ(r.u24(), 4u);  // 1-byte prefix + "abc"
  EXPECT_EQ(r.u8(), 3);
  EXPECT_EQ(r.str(3), "abc");
}

TEST(ReaderWriter, U24OverflowThrows) {
  Writer w;
  EXPECT_THROW(w.u24(1u << 24), EncodeError);
}

TEST(ReaderWriter, LengthPrefixOverflowThrows) {
  Writer w;
  auto t = w.begin_length(1);
  Bytes big(300, 0xaa);
  w.raw(BytesView(big.data(), big.size()));
  EXPECT_THROW(w.end_length(t), EncodeError);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.fork("devices");
  Rng c2 = parent.fork("servers");
  Rng c1again = Rng(7).fork("devices");
  EXPECT_NE(c1.next(), c2.next());
  Rng c1b = Rng(7).fork("devices");
  EXPECT_EQ(c1again.next(), c1b.next());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(7, 7), 7u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::size_t pick = rng.weighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(Rng, WeightedThrowsOnAllZero) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ZipfHeadHeavierThanTail) {
  Rng rng(23);
  int head = 0, tail = 0;
  for (int i = 0; i < 5000; ++i) {
    std::size_t k = rng.zipf(100, 1.0);
    if (k == 0) ++head;
    if (k == 99) ++tail;
  }
  EXPECT_GT(head, tail * 5);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(29);
  auto idx = rng.sample_indices(50, 20);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 20u);
  for (std::size_t i : idx) EXPECT_LT(i, 50u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitAndJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, SecondLevelDomain) {
  EXPECT_EQ(second_level_domain("a2.tuyaus.com"), "tuyaus.com");
  EXPECT_EQ(second_level_domain("services.tegrazone.com"), "tegrazone.com");
  EXPECT_EQ(second_level_domain("netflix.com"), "netflix.com");
  EXPECT_EQ(second_level_domain("pavv.co.kr"), "pavv.co.kr");
  EXPECT_EQ(second_level_domain("x.pavv.co.kr"), "pavv.co.kr");
  EXPECT_EQ(second_level_domain("localhost"), "localhost");
}

/// The split-and-join body second_level_domain had before it moved to
/// string_view suffix scans, kept as the reference the rewrite must match.
std::string reference_second_level_domain(std::string_view fqdn) {
  static const std::array<std::string_view, 6> kTwoPartSuffixes = {
      "co.kr", "co.uk", "co.jp", "com.cn", "com.br", "net.au"};
  std::vector<std::string> labels = split(fqdn, '.');
  if (labels.size() <= 2) return std::string(fqdn);
  std::string last_two = labels[labels.size() - 2] + "." + labels.back();
  bool two_part_suffix = false;
  for (auto suffix : kTwoPartSuffixes) {
    if (last_two == suffix) {
      two_part_suffix = true;
      break;
    }
  }
  std::size_t keep = two_part_suffix ? 3 : 2;
  if (labels.size() <= keep) return std::string(fqdn);
  std::vector<std::string> tail(labels.end() - static_cast<std::ptrdiff_t>(keep),
                                labels.end());
  return join(tail, ".");
}

// Every name of 1-4 labels over an alphabet with the empty label (leading,
// trailing and doubled dots), plain labels and every part of every two-part
// suffix, so each two-part suffix appears with 0, 1 and 2 labels in front.
TEST(Strings, SecondLevelDomainMatchesReferenceOnAllShortNames) {
  const std::vector<std::string> alphabet = {"",   "a",  "pavv", "co", "com",
                                             "net", "kr", "uk",  "jp", "cn",
                                             "br",  "au"};
  std::vector<std::string> names;
  std::vector<std::string> frontier = {""};
  for (int labels = 1; labels <= 4; ++labels) {
    std::vector<std::string> next;
    for (const std::string& prefix : frontier) {
      for (const std::string& label : alphabet) {
        next.push_back(labels == 1 ? label : prefix + "." + label);
      }
    }
    names.insert(names.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  ASSERT_EQ(names.size(), 12u + 144u + 1728u + 20736u);
  for (const std::string& name : names) {
    ASSERT_EQ(second_level_domain(name), reference_second_level_domain(name))
        << "fqdn '" << name << "'";
  }
}

TEST(Strings, Percent) {
  EXPECT_EQ(fmt_percent(0.7747), "77.47%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

// ---------------------------------------------------------------- dates

TEST(Dates, EpochIsZero) { EXPECT_EQ(days(1970, 1, 1), 0); }

TEST(Dates, KnownDates) {
  EXPECT_EQ(days(2019, 4, 29), 18015);   // IoT Inspector capture start
  EXPECT_EQ(days(2020, 8, 1), 18475);    // capture end
  EXPECT_EQ(format_date(days(2022, 4, 15)), "2022-04-15");
  EXPECT_EQ(format_date(kCaptureEnd), "2020-08-01");
  EXPECT_EQ(format_date(kProbeDay), "2022-04-15");
}

TEST(Dates, RoundTripAcrossRange) {
  // Property: days -> civil -> days is the identity over a broad range,
  // and consecutive days produce strictly increasing calendar dates.
  for (std::int64_t d = -1000; d <= 40000; d += 17) {
    CivilDate c = civil_from_days(d);
    EXPECT_EQ(days_from_civil(c), d);
  }
}

TEST(Dates, LeapYearHandling) {
  EXPECT_EQ(days(2020, 2, 29) + 1, days(2020, 3, 1));
  EXPECT_EQ(days(2019, 2, 28) + 1, days(2019, 3, 1));
  EXPECT_EQ(days(2000, 2, 29) + 1, days(2000, 3, 1));  // century leap year
}

TEST(Dates, LeapYearRule) {
  EXPECT_TRUE(is_leap_year(2020));
  EXPECT_TRUE(is_leap_year(2000));    // divisible by 400
  EXPECT_FALSE(is_leap_year(1900));   // century, not by 400
  EXPECT_FALSE(is_leap_year(2100));
  EXPECT_FALSE(is_leap_year(2019));
  EXPECT_EQ(days_in_month(2020, 2), 29);
  EXPECT_EQ(days_in_month(2019, 2), 28);
  EXPECT_EQ(days_in_month(2021, 4), 30);
  EXPECT_EQ(days_in_month(2021, 12), 31);
  EXPECT_EQ(days_in_month(2021, 0), 0);   // out-of-range months are empty
  EXPECT_EQ(days_in_month(2021, 13), 0);
}

TEST(Dates, RoundTripEveryCivilDay1600To2400) {
  // Property: for every real calendar day across eight centuries (both
  // Gregorian century exceptions included), civil -> days -> civil is the
  // identity and the serial number advances by exactly one per day.
  std::int64_t expected = days_from_civil({1600, 1, 1});
  for (int y = 1600; y <= 2400; ++y) {
    for (int m = 1; m <= 12; ++m) {
      for (int d = 1; d <= days_in_month(y, m); ++d) {
        std::int64_t serial = days_from_civil({y, m, d});
        ASSERT_EQ(serial, expected) << y << "-" << m << "-" << d;
        CivilDate back = civil_from_days(serial);
        ASSERT_TRUE(back.year == y && back.month == m && back.day == d)
            << y << "-" << m << "-" << d << " came back as " << back.year
            << "-" << back.month << "-" << back.day;
        ++expected;
      }
    }
  }
}

TEST(Dates, ParseFormatsRoundTrip) {
  EXPECT_EQ(parse_date("2021-12-31"), days(2021, 12, 31));
  EXPECT_EQ(format_date(parse_date("1999-01-02")), "1999-01-02");
  EXPECT_THROW(parse_date("not-a-date"), ParseError);
  EXPECT_THROW(parse_date("2021-13-01"), ParseError);
}

TEST(Dates, ParseRejectsImpossibleDays) {
  // days_from_civil would happily normalize these into March; parse_date
  // must reject them instead of silently shifting a validity window.
  EXPECT_THROW(parse_date("2019-02-31"), ParseError);
  EXPECT_THROW(parse_date("2019-02-29"), ParseError);  // not a leap year
  EXPECT_THROW(parse_date("2100-02-29"), ParseError);  // century non-leap
  EXPECT_THROW(parse_date("2021-04-31"), ParseError);
  EXPECT_THROW(parse_date("2021-06-00"), ParseError);
  EXPECT_THROW(parse_date("2021-00-10"), ParseError);
  EXPECT_THROW(parse_date("2021-01-02x"), ParseError);  // trailing garbage
  // The leap days themselves stay parseable.
  EXPECT_EQ(parse_date("2020-02-29"), days(2020, 2, 29));
  EXPECT_EQ(parse_date("2000-02-29"), days(2000, 2, 29));
}

TEST(Crc32, MatchesKnownVectors) {
  // The ISO-HDLC check value ("123456789" -> 0xCBF43926) pins down the
  // polynomial, reflection and init/xorout all at once.
  const char check[] = "123456789";
  EXPECT_EQ(crc32(BytesView(reinterpret_cast<const std::uint8_t*>(check), 9)),
            0xCBF43926u);
  EXPECT_EQ(crc32(BytesView()), 0u);
}

TEST(Crc32, StreamingUpdateEqualsOneShot) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  std::uint32_t whole = crc32(BytesView(data.data(), data.size()));
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{128},
                          data.size()}) {
    std::uint32_t crc = crc32_update(0, BytesView(data.data(), cut));
    crc = crc32_update(crc, BytesView(data.data() + cut, data.size() - cut));
    EXPECT_EQ(crc, whole) << "split at " << cut;
  }
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  ArenaAllocator arena(128);  // tiny chunks force growth
  std::set<void*> seen;
  for (int i = 0; i < 64; ++i) {
    void* p = arena.allocate(24, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    EXPECT_TRUE(seen.insert(p).second);
    std::memset(p, 0xab, 24);  // every byte must be writable
  }
  std::uint64_t* arr = arena.allocate_array<std::uint64_t>(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr) % alignof(std::uint64_t), 0u);
  for (std::size_t i = 0; i < 100; ++i) arr[i] = i;
  EXPECT_EQ(arr[99], 99u);
  EXPECT_GE(arena.bytes_allocated(), 64u * 24 + 800);
}

TEST(Arena, ResetRetainsFirstChunkAndCopyPersists) {
  ArenaAllocator arena(1024);
  std::string_view copied = arena.copy("hello snapshot");
  EXPECT_EQ(copied, "hello snapshot");
  arena.allocate(4096);  // oversized request -> dedicated chunk
  std::uint64_t reserved_before = arena.bytes_reserved();
  arena.reset();
  EXPECT_LT(arena.bytes_reserved(), reserved_before);
  EXPECT_GT(arena.bytes_reserved(), 0u);  // first chunk kept for reuse
  EXPECT_EQ(arena.peak_reserved(), reserved_before);
  // Post-reset allocations reuse the retained chunk without growing.
  std::uint64_t reserved_after = arena.bytes_reserved();
  arena.allocate(64);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after);
}

TEST(Arena, ReportsChunkTrafficToObserver) {
  struct Recorder : ArenaObserver {
    std::uint64_t grown = 0, released = 0;
    void on_arena_grow(std::uint64_t bytes) override { grown += bytes; }
    void on_arena_release(std::uint64_t bytes) override { released += bytes; }
  };
  Recorder rec;
  {
    ArenaAllocator arena(256, &rec);
    arena.allocate(200);
    arena.allocate(200);  // second chunk
    EXPECT_GE(rec.grown, 512u);
  }
  EXPECT_EQ(rec.grown, rec.released);  // destructor returns every byte
}

TEST(Strings, SplitViewsMatchesSplitWithoutCopying) {
  std::string line = "a,,bc,def,";
  auto views = split_views(line, ',');
  ASSERT_EQ(views.size(), 5u);
  EXPECT_EQ(views[0], "a");
  EXPECT_EQ(views[1], "");
  EXPECT_EQ(views[2], "bc");
  EXPECT_EQ(views[3], "def");
  EXPECT_EQ(views[4], "");
  // Views alias the input buffer — zero-copy is the point.
  EXPECT_EQ(views[2].data(), line.data() + 3);
}

TEST(Strings, SplitViewsFixedSpanReportsTotalFieldCount) {
  std::array<std::string_view, 3> cols;
  EXPECT_EQ(split_views("x,y", ',', cols), 2u);
  EXPECT_EQ(cols[0], "x");
  EXPECT_EQ(cols[1], "y");
  // Overflowing rows report the true count; the span keeps the prefix.
  EXPECT_EQ(split_views("1,2,3,4,5", ',', cols), 5u);
  EXPECT_EQ(cols[0], "1");
  EXPECT_EQ(cols[2], "3");
  EXPECT_EQ(split_views("", ',', cols), 1u);
  EXPECT_EQ(cols[0], "");
}

}  // namespace
}  // namespace iotls
