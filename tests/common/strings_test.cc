#include "common/strings.h"

#include <gtest/gtest.h>

#include <fstream>

#include "common/csv.h"
#include "common/hash.h"
#include "common/table.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace {

TEST(StringsTest, StrCatMixedTypes) {
  EXPECT_EQ(StrCat("job-", 42, " x", 1.5), "job-42 x1.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"only"}, ","), "only");
}

TEST(StringsTest, StrSplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.005, 2), "-0.01");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.1523), "15.23%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

TEST(StringsTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-45000), "-45,000");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("job_group_7", "job_"));
  EXPECT_FALSE(StartsWith("job", "job_"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(HashTest, Fnv1aIsStable) {
  // Known FNV-1a 64-bit value for the empty string and a fixed phrase.
  EXPECT_EQ(Fnv1a(""), kFnvOffsetBasis);
  EXPECT_EQ(Fnv1a("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(Fnv1a("plan-a"), Fnv1a("plan-b"));
}

TEST(HashTest, HashCombineOrderSensitive) {
  const uint64_t h1 = HashCombine(HashCombine(kFnvOffsetBasis, 1), 2);
  const uint64_t h2 = HashCombine(HashCombine(kFnvOffsetBasis, 2), 1);
  EXPECT_NE(h1, h2);
}

TEST(TableTest, AlignsColumns) {
  TextTable t;
  t.SetHeader({"cid", "outlier"});
  t.AddRow({"0", "1.63"});
  t.AddRow({"10", "0.06"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("cid  outlier"), std::string::npos);
  EXPECT_NE(s.find("10   0.06"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RaggedRowsTolerated) {
  TextTable t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"1"});
  t.AddRow({"1", "2", "3", "4"});
  const std::string s = t.ToString();
  EXPECT_FALSE(s.empty());
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::EscapeCell("plain"), "plain");
  EXPECT_EQ(CsvWriter::EscapeCell("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::EscapeCell("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::EscapeCell("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, AccumulatesRows) {
  CsvWriter w;
  w.AddRow({"h1", "h2"});
  w.AddRow({"1", "x,y"});
  EXPECT_EQ(w.contents(), "h1,h2\n1,\"x,y\"\n");
}

TEST(CsvTest, WriteToFileRoundTrip) {
  CsvWriter w;
  w.AddRow({"a", "b"});
  const UniqueTempDir dir;
  const std::string path = dir.File("csv_test.csv");
  ASSERT_TRUE(w.WriteToFile(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
}

TEST(CsvTest, WriteToBadPathFails) {
  CsvWriter w;
  w.AddRow({"a"});
  EXPECT_TRUE(w.WriteToFile("/nonexistent_dir_zz/f.csv").IsInternal() ||
              !w.WriteToFile("/nonexistent_dir_zz/f.csv").ok());
}

}  // namespace
}  // namespace rvar
