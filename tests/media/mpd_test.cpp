#include "eacs/media/mpd.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace eacs::media {
namespace {

TEST(Iso8601Test, FormatAndParse) {
  EXPECT_EQ(iso8601_duration(198.0), "PT198S");
  EXPECT_EQ(iso8601_duration(2.5), "PT2.5S");
  EXPECT_DOUBLE_EQ(parse_iso8601_duration("PT198S"), 198.0);
  EXPECT_DOUBLE_EQ(parse_iso8601_duration("PT2.5S"), 2.5);
  EXPECT_DOUBLE_EQ(parse_iso8601_duration("PT1H2M3S"), 3723.0);
  EXPECT_DOUBLE_EQ(parse_iso8601_duration("PT10M"), 600.0);
}

TEST(Iso8601Test, MalformedThrows) {
  EXPECT_THROW(parse_iso8601_duration("198S"), std::runtime_error);
  EXPECT_THROW(parse_iso8601_duration("PT"), std::runtime_error);
  EXPECT_THROW(parse_iso8601_duration("PT5X"), std::runtime_error);
  EXPECT_THROW(parse_iso8601_duration("PTS"), std::runtime_error);
  // Numbers strtod cannot take whole: out of range, a lone dot, two dots.
  EXPECT_THROW(parse_iso8601_duration("PT1" + std::string(400, '0') + "S"),
               std::runtime_error);
  EXPECT_THROW(parse_iso8601_duration("PT.S"), std::runtime_error);
  EXPECT_THROW(parse_iso8601_duration("PT1.2.3S"), std::runtime_error);
  EXPECT_THROW(iso8601_duration(-1.0), std::invalid_argument);
}

VideoManifest sample_manifest(double vbr = 0.0) {
  return VideoManifest("trace1", 198.0, 2.0, BitrateLadder::table2(), VbrModel{vbr});
}

TEST(MpdTest, SerializesExpectedStructure) {
  const auto xml = to_mpd_xml(sample_manifest());
  EXPECT_NE(xml.find("<MPD"), std::string::npos);
  EXPECT_NE(xml.find("mediaPresentationDuration=\"PT198S\""), std::string::npos);
  EXPECT_NE(xml.find("<AdaptationSet"), std::string::npos);
  EXPECT_NE(xml.find("<SegmentTemplate"), std::string::npos);
  // 6 representations with bandwidth in bits/s.
  EXPECT_NE(xml.find("bandwidth=\"5800000\""), std::string::npos);
  EXPECT_NE(xml.find("bandwidth=\"100000\""), std::string::npos);
  EXPECT_NE(xml.find("width=\"1920\""), std::string::npos);
  EXPECT_NE(xml.find("height=\"144\""), std::string::npos);
}

TEST(MpdTest, RoundTripCbr) {
  const auto original = sample_manifest();
  const auto parsed = from_mpd_xml(to_mpd_xml(original));
  EXPECT_EQ(parsed.video_id(), "trace1");
  EXPECT_DOUBLE_EQ(parsed.total_duration_s(), 198.0);
  EXPECT_DOUBLE_EQ(parsed.segment_duration_s(), 2.0);
  ASSERT_EQ(parsed.ladder().size(), original.ladder().size());
  for (std::size_t level = 0; level < original.ladder().size(); ++level) {
    EXPECT_NEAR(parsed.ladder().bitrate(level), original.ladder().bitrate(level), 1e-9);
    EXPECT_EQ(parsed.ladder().rung(level).resolution,
              original.ladder().rung(level).resolution);
  }
  EXPECT_EQ(parsed.num_segments(), original.num_segments());
}

TEST(MpdTest, RoundTripVbrSizes) {
  const auto original = sample_manifest(0.2);
  const auto parsed = from_mpd_xml(to_mpd_xml(original));
  EXPECT_DOUBLE_EQ(parsed.vbr().amplitude, 0.2);
  // Segment sizes are deterministic in (video id, index): the parsed
  // manifest reproduces them exactly.
  for (std::size_t i = 0; i < original.num_segments(); i += 7) {
    EXPECT_DOUBLE_EQ(parsed.segment_size_megabits(i, 3),
                     original.segment_size_megabits(i, 3));
  }
}

TEST(MpdTest, RoundTripEvaluationLadder) {
  const VideoManifest original("eval", 612.0, 2.0, BitrateLadder::evaluation14());
  const auto parsed = from_mpd_xml(to_mpd_xml(original));
  EXPECT_EQ(parsed.ladder().size(), 14U);
  EXPECT_DOUBLE_EQ(parsed.ladder().highest_bitrate(), 5.8);
}

TEST(MpdTest, RoundTripBaseUrls) {
  auto original = sample_manifest();
  original.set_base_urls({"https://origin.example.com/v/",
                          "https://edge-1.example.net/v/",
                          "https://edge-2.example.net/v/"});
  const auto xml = to_mpd_xml(original);
  EXPECT_NE(xml.find("<BaseURL>https://origin.example.com/v/</BaseURL>"),
            std::string::npos);
  const auto parsed = from_mpd_xml(xml);
  // Document order is priority order: the first BaseURL is the default
  // origin, so the round-trip must preserve ordering exactly.
  ASSERT_EQ(parsed.base_urls().size(), 3U);
  EXPECT_EQ(parsed.base_urls()[0], "https://origin.example.com/v/");
  EXPECT_EQ(parsed.base_urls()[1], "https://edge-1.example.net/v/");
  EXPECT_EQ(parsed.base_urls()[2], "https://edge-2.example.net/v/");
}

TEST(MpdTest, NoBaseUrlsOmitsElementAndParsesEmpty) {
  const auto original = sample_manifest();
  const auto xml = to_mpd_xml(original);
  EXPECT_EQ(xml.find("<BaseURL"), std::string::npos);
  EXPECT_TRUE(from_mpd_xml(xml).base_urls().empty());
}

TEST(MpdTest, BaseUrlsEscapeRoundTrip) {
  auto original = sample_manifest();
  original.set_base_urls({"https://cdn.example.com/a?b=1&c=<2>"});
  const auto parsed = from_mpd_xml(to_mpd_xml(original));
  ASSERT_EQ(parsed.base_urls().size(), 1U);
  EXPECT_EQ(parsed.base_urls()[0], "https://cdn.example.com/a?b=1&c=<2>");
}

TEST(MpdTest, ParsesForeignMpdWithBaseUrls) {
  const char* foreign = R"(<?xml version="1.0"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static"
     mediaPresentationDuration="PT60S">
  <BaseURL>https://a.example.com/</BaseURL>
  <BaseURL>https://b.example.com/</BaseURL>
  <Period>
    <AdaptationSet contentType="video">
      <SegmentTemplate timescale="1000" duration="4000"/>
      <Representation id="low" bandwidth="500000"/>
    </AdaptationSet>
  </Period>
</MPD>)";
  const auto manifest = from_mpd_xml(foreign);
  ASSERT_EQ(manifest.base_urls().size(), 2U);
  EXPECT_EQ(manifest.base_urls()[0], "https://a.example.com/");
  EXPECT_EQ(manifest.base_urls()[1], "https://b.example.com/");
}

TEST(MpdTest, ParsesForeignMpdWithoutPrivateAttributes) {
  const char* foreign = R"(<?xml version="1.0"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static"
     mediaPresentationDuration="PT60S">
  <Period>
    <AdaptationSet contentType="video">
      <SegmentTemplate timescale="1000" duration="4000"/>
      <Representation id="low" bandwidth="500000"/>
      <Representation id="high" bandwidth="3000000" width="1280" height="720"/>
    </AdaptationSet>
  </Period>
</MPD>)";
  const auto manifest = from_mpd_xml(foreign);
  EXPECT_EQ(manifest.video_id(), "imported-mpd");
  EXPECT_DOUBLE_EQ(manifest.total_duration_s(), 60.0);
  EXPECT_DOUBLE_EQ(manifest.segment_duration_s(), 4.0);
  ASSERT_EQ(manifest.ladder().size(), 2U);
  EXPECT_DOUBLE_EQ(manifest.ladder().bitrate(0), 0.5);
  EXPECT_EQ(manifest.ladder().rung(1).resolution, "720p");
  EXPECT_DOUBLE_EQ(manifest.vbr().amplitude, 0.0);
}

TEST(MpdTest, RejectsMalformedDocuments) {
  EXPECT_THROW(from_mpd_xml("<NotMpd/>"), std::runtime_error);
  EXPECT_THROW(from_mpd_xml("<MPD mediaPresentationDuration=\"PT60S\"/>"),
               std::runtime_error);  // no Period
  const char* no_reps = R"(<MPD mediaPresentationDuration="PT60S">
  <Period><AdaptationSet><SegmentTemplate duration="2000" timescale="1000"/>
  </AdaptationSet></Period></MPD>)";
  EXPECT_THROW(from_mpd_xml(no_reps), std::runtime_error);

  // Well-formed documents whose manifest the size table cannot hold.
  const auto mpd = [](const std::string& duration, const std::string& tmpl,
                      const std::string& extra = "") {
    return "<MPD mediaPresentationDuration=\"" + duration + "\"" + extra +
           "><Period><AdaptationSet><SegmentTemplate " + tmpl +
           "/><Representation id=\"r0\" bandwidth=\"500000\"/>"
           "</AdaptationSet></Period></MPD>";
  };
  EXPECT_THROW(from_mpd_xml(mpd("PT60S", "duration=\"nan\"")),
               std::invalid_argument);
  EXPECT_THROW(from_mpd_xml(mpd("PT1000000000S",
                                "timescale=\"1000000\" duration=\"1\"")),
               std::invalid_argument);  // 10^15 segments
  EXPECT_THROW(from_mpd_xml(mpd("PT60S", "duration=\"2\"",
                                " eacs:vbrAmplitude=\"nan\"")),
               std::invalid_argument);
  EXPECT_NO_THROW(from_mpd_xml(mpd("PT60S", "duration=\"2\"",
                                   " eacs:vbrAmplitude=\"0.2\"")));
}

}  // namespace
}  // namespace eacs::media
