// Tests for the append-only CRC-framed results store: framing and
// unframing, append/scan round-trips, torn-tail detection at every
// truncation point, and repair — the durability half of the sweep
// service's kill -9 contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/serve/store.hpp"
#include "src/support/crc32.hpp"

namespace leak::serve {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "store_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] json::Value payload(int cell) const {
    json::Value doc = json::Value::object();
    doc.set("type", "cell");
    doc.set("cell", std::int64_t{cell});
    return doc;
  }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::string path_;
};

TEST_F(StoreTest, FrameIsCrcSpaceCompactJson) {
  const json::Value doc = payload(7);
  const std::string line = ResultsStore::frame(doc);
  const std::string body = doc.dump();
  ASSERT_GT(line.size(), 9u);
  EXPECT_EQ(line.substr(9), body);
  EXPECT_EQ(line[8], ' ');
  EXPECT_EQ(line.substr(0, 8), crc32::to_hex(crc32::of(body)));
}

TEST_F(StoreTest, UnframeRejectsEveryCorruption) {
  const std::string good = ResultsStore::frame(payload(1));
  ASSERT_TRUE(ResultsStore::unframe(good).has_value());

  // Flip one payload byte: CRC mismatch.
  std::string flipped = good;
  flipped[10] ^= 1;
  EXPECT_FALSE(ResultsStore::unframe(flipped).has_value());
  // Corrupt the CRC field itself.
  std::string bad_crc = good;
  bad_crc[0] = bad_crc[0] == 'f' ? '0' : 'f';
  EXPECT_FALSE(ResultsStore::unframe(bad_crc).has_value());
  // Structural damage.
  EXPECT_FALSE(ResultsStore::unframe("").has_value());
  EXPECT_FALSE(ResultsStore::unframe("too short").has_value());
  EXPECT_FALSE(ResultsStore::unframe(good.substr(0, 12)).has_value());
  EXPECT_FALSE(
      ResultsStore::unframe("zzzzzzzz " + good.substr(9)).has_value());
  // Valid CRC over a non-JSON body.
  const std::string not_json = "not json at all";
  EXPECT_FALSE(
      ResultsStore::unframe(crc32::to_hex(crc32::of(not_json)) + " " +
                            not_json)
          .has_value());
}

TEST_F(StoreTest, AppendScanRoundTrips) {
  ResultsStore store(path_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.append(payload(i)));
  }
  std::string error;
  const StoreScan scan = store.scan(&error);
  EXPECT_FALSE(scan.torn_tail) << error;
  ASSERT_EQ(scan.records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.records[static_cast<std::size_t>(i)]
                  .payload.find("cell")
                  ->as_int(),
              i);
  }
  EXPECT_EQ(scan.valid_bytes, read_file().size());
}

TEST_F(StoreTest, MissingFileScansEmpty) {
  const ResultsStore store(path_);
  std::string error;
  const StoreScan scan = store.scan(&error);
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST_F(StoreTest, TornTailAtEveryTruncationPointIsDetected) {
  ResultsStore store(path_);
  ASSERT_TRUE(store.append(payload(0)));
  ASSERT_TRUE(store.append(payload(1)));
  const std::string full = read_file();
  const std::size_t first_line = full.find('\n') + 1;

  // Truncating anywhere inside the second record (including dropping
  // just the trailing newline) must keep exactly the first record.
  for (std::size_t cut = first_line + 1; cut < full.size(); ++cut) {
    std::ofstream(path_, std::ios::trunc) << full.substr(0, cut);
    const StoreScan scan = store.scan();
    EXPECT_TRUE(scan.torn_tail) << "cut at " << cut;
    ASSERT_EQ(scan.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, first_line) << "cut at " << cut;
  }
}

TEST_F(StoreTest, RepairTruncatesTornTailAndAppendsContinue) {
  ResultsStore store(path_);
  ASSERT_TRUE(store.append(payload(0)));
  const std::string full = read_file();
  std::ofstream(path_, std::ios::app) << "deadbeef {\"torn";

  ASSERT_TRUE(store.scan().torn_tail);
  std::string error;
  ASSERT_TRUE(store.repair(&error)) << error;
  EXPECT_EQ(read_file(), full);

  // Appends after repair land on the clean boundary.
  ASSERT_TRUE(store.append(payload(1)));
  const StoreScan scan = store.scan();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].payload.find("cell")->as_int(), 1);
}

TEST_F(StoreTest, GarbageMidFileStopsTheScanAtTheGarbage) {
  ResultsStore store(path_);
  ASSERT_TRUE(store.append(payload(0)));
  std::ofstream(path_, std::ios::app) << "garbage line\n";
  ResultsStore tail_writer(path_);
  ASSERT_TRUE(tail_writer.append(payload(1)));

  // The valid prefix is only the first record: a store is trusted
  // exactly up to its first invalid line, never beyond.
  const StoreScan scan = store.scan();
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
}

TEST_F(StoreTest, AppendFramedValidatesBeforeWriting) {
  // append_framed() takes only a FramedLine, and only unframe() makes
  // one: a line with a bad CRC, or a good CRC over bad JSON, never
  // reaches the file.
  static_assert(
      !std::is_constructible_v<FramedLine, std::string_view, json::Value>);
  const std::string bad_crc = "deadbeef {\"bad\": true}";
  const std::string bad_json = "{\"cell\": 3,}";
  const std::string bad_json_line =
      crc32::to_hex(crc32::of(bad_json)) + " " + bad_json;
  EXPECT_FALSE(ResultsStore::unframe(bad_crc).has_value());
  EXPECT_FALSE(ResultsStore::unframe(bad_json_line).has_value());

  ResultsStore store(path_);
  const std::string good = ResultsStore::frame(payload(3));
  auto rec = ResultsStore::unframe(good);
  ASSERT_TRUE(rec.has_value());
  // The payload is parsed once, by unframe(), and handed to the caller.
  EXPECT_EQ(rec->payload().find("cell")->as_int(), 3);
  EXPECT_TRUE(store.append_framed(*rec));
  EXPECT_EQ(read_file(), good + "\n");
  const StoreScan scan = store.scan();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload.find("cell")->as_int(), 3);
}

}  // namespace
}  // namespace leak::serve
