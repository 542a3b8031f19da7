#include "common/csv.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

TEST(CsvTest, SplitsPlainFields) {
  auto r = ParseCsvLine("a,b,c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, KeepsEmptyFields) {
  auto r = ParseCsvLine("a,,c,");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(CsvTest, EmptyLineIsOneEmptyField) {
  auto r = ParseCsvLine("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{""}));
}

TEST(CsvTest, QuotedFieldWithComma) {
  auto r = ParseCsvLine("a,\"b,c\",d");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b,c", "d"}));
}

TEST(CsvTest, EscapedQuotes) {
  auto r = ParseCsvLine("\"he said \"\"hi\"\"\",x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"he said \"hi\"", "x"}));
}

TEST(CsvTest, JsonPayloadRoundTrip) {
  const std::string json = R"({"name":"alice","tags":["a","b"],"n":3})";
  const std::string line = FormatCsvLine({"UPDATE_VERTEX", "7", json});
  auto r = ParseCsvLine(line);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[2], json);
}

TEST(CsvTest, UnterminatedQuoteIsParseError) {
  auto r = ParseCsvLine("a,\"oops");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(CsvTest, TrailingGarbageAfterQuoteIsParseError) {
  auto r = ParseCsvLine("\"ok\"x,y");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(CsvTest, QuoteInsideUnquotedFieldIsParseError) {
  auto r = ParseCsvLine("ab\"cd,e");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(CsvTest, EscapePlainFieldUnchanged) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField(""), "");
}

TEST(CsvTest, EscapeQuotesWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(EscapeCsvField("a\nb"), "\"a\nb\"");
}

TEST(ParseCsvLineTest, RejectsNulBytes) {
  const std::string line("a,b\0c,d", 7);
  auto parsed = ParseCsvLine(line);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
  EXPECT_NE(parsed.status().message().find("NUL"), std::string::npos);
}

TEST(ParseCsvLineTest, RejectsNulInsideQuotedField) {
  const std::string line("a,\"b\0c\",d", 9);
  auto parsed = ParseCsvLine(line);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
}

struct RoundTripCase {
  std::string label;
  std::vector<std::string> fields;
};

// Names each case by its label. gtest's default printer dumps the object's
// bytes, heap pointers included, so the test name would change every run.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.label; }

class CsvRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CsvRoundTripTest, FormatThenParseIsIdentity) {
  const auto& fields = GetParam().fields;
  auto parsed = ParseCsvLine(FormatCsvLine(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, fields);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsvRoundTripTest,
    ::testing::Values(
        RoundTripCase{"plain", {"a", "b", "c"}},
        RoundTripCase{"all_empty", {"", "", ""}},
        RoundTripCase{"comma_quote_newline",
                      {"with,comma", "with\"quote", "with\nnewline"}},
        RoundTripCase{"json_with_comma", {R"({"k":"v,x"})", "1-2", ""}},
        RoundTripCase{"bare_quotes", {"\"\"", ",", "\""}},
        RoundTripCase{"marker", {"MARKER", "", "PHASE_1 done, next up"}}));

}  // namespace
}  // namespace graphtides
