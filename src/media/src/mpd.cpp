#include "eacs/media/mpd.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace eacs::media {
namespace {

constexpr const char* kProfile = "urn:mpeg:dash:profile:isoff-on-demand:2011";

/// Pixel dimensions for the named rungs of the paper's ladder.
struct NamedResolution {
  const char* name;
  int width;
  int height;
};
constexpr NamedResolution kResolutions[] = {
    {"144p", 256, 144},  {"240p", 426, 240},  {"360p", 640, 360},
    {"480p", 854, 480},  {"720p", 1280, 720}, {"1080p", 1920, 1080},
};

const NamedResolution* lookup_resolution(const std::string& name) {
  for (const auto& resolution : kResolutions) {
    if (name == resolution.name) return &resolution;
  }
  return nullptr;
}

std::string resolution_name_for(int height) {
  const std::string candidate = std::to_string(height) + "p";
  return lookup_resolution(candidate) ? candidate : std::string{};
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

}  // namespace

std::string iso8601_duration(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("iso8601_duration: negative");
  return "PT" + format_number(seconds) + "S";
}

double parse_iso8601_duration(std::string_view text) {
  if (text.substr(0, 2) != "PT") {
    throw std::runtime_error("parse_iso8601_duration: expected 'PT' prefix in '" +
                             std::string(text) + "'");
  }
  double total = 0.0;
  std::size_t pos = 2;
  bool any_component = false;
  while (pos < text.size()) {
    std::size_t digits_end = pos;
    while (digits_end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[digits_end])) ||
            text[digits_end] == '.')) {
      ++digits_end;
    }
    if (digits_end == pos || digits_end >= text.size()) {
      throw std::runtime_error("parse_iso8601_duration: malformed '" +
                               std::string(text) + "'");
    }
    // strtod, not stod: an out-of-range or dot-only number is a malformed
    // duration (std::runtime_error), not a std::out_of_range or a
    // std::invalid_argument escaping the parser.
    const std::string number(text.substr(pos, digits_end - pos));
    char* number_end = nullptr;
    errno = 0;
    const double value = std::strtod(number.c_str(), &number_end);
    if (number_end != number.c_str() + number.size() || errno == ERANGE) {
      throw std::runtime_error("parse_iso8601_duration: bad number in '" +
                               std::string(text) + "'");
    }
    const char unit = text[digits_end];
    switch (unit) {
      case 'H': total += value * 3600.0; break;
      case 'M': total += value * 60.0; break;
      case 'S': total += value; break;
      default:
        throw std::runtime_error("parse_iso8601_duration: unknown unit in '" +
                                 std::string(text) + "'");
    }
    any_component = true;
    pos = digits_end + 1;
  }
  if (!any_component) {
    throw std::runtime_error("parse_iso8601_duration: no components in '" +
                             std::string(text) + "'");
  }
  return total;
}

eacs::XmlNode to_mpd_tree(const VideoManifest& manifest) {
  eacs::XmlNode mpd("MPD");
  mpd.set_attribute("xmlns", "urn:mpeg:dash:schema:mpd:2011");
  mpd.set_attribute("type", "static");
  mpd.set_attribute("profiles", kProfile);
  mpd.set_attribute("mediaPresentationDuration",
                    iso8601_duration(manifest.total_duration_s()));
  if (manifest.vbr().amplitude > 0.0) {
    mpd.set_attribute("eacs:vbrAmplitude", format_number(manifest.vbr().amplitude));
  }
  mpd.set_attribute("eacs:videoId", manifest.video_id());

  // DASH multi-CDN delivery: one <BaseURL> per candidate origin, in priority
  // order, before the <Period> (ISO/IEC 23009-1 §5.6).
  for (const std::string& url : manifest.base_urls()) {
    mpd.add_child("BaseURL").set_text(url);
  }

  auto& period = mpd.add_child("Period");
  period.set_attribute("id", "0");
  period.set_attribute("duration", iso8601_duration(manifest.total_duration_s()));

  auto& adaptation = period.add_child("AdaptationSet");
  adaptation.set_attribute("contentType", "video");
  adaptation.set_attribute("mimeType", "video/mp4");
  adaptation.set_attribute("segmentAlignment", "true");

  auto& segment_template = adaptation.add_child("SegmentTemplate");
  constexpr long long kTimescale = 1000000;  // microseconds: sub-ppm rounding
  segment_template.set_attribute("timescale", std::to_string(kTimescale));
  segment_template.set_attribute(
      "duration",
      std::to_string(static_cast<long long>(
          std::llround(manifest.segment_duration_s() * kTimescale))));
  segment_template.set_attribute("media", "segment-$RepresentationID$-$Number$.m4s");
  segment_template.set_attribute("startNumber", "0");

  const auto& ladder = manifest.ladder();
  for (std::size_t level = 0; level < ladder.size(); ++level) {
    auto& representation = adaptation.add_child("Representation");
    std::string id = "r";
    id += std::to_string(level);
    representation.set_attribute("id", std::move(id));
    representation.set_attribute(
        "bandwidth",
        std::to_string(static_cast<long long>(
            std::llround(ladder.bitrate(level) * 1e6))));
    if (const auto* resolution = lookup_resolution(ladder.rung(level).resolution)) {
      representation.set_attribute("width", std::to_string(resolution->width));
      representation.set_attribute("height", std::to_string(resolution->height));
    }
  }
  return mpd;
}

std::string to_mpd_xml(const VideoManifest& manifest) {
  return eacs::to_xml(to_mpd_tree(manifest));
}

VideoManifest from_mpd_xml(std::string_view xml_text) {
  const eacs::XmlNode mpd = eacs::parse_xml(xml_text);
  if (mpd.name() != "MPD") {
    throw std::runtime_error("from_mpd_xml: root element is <" + mpd.name() +
                             ">, expected <MPD>");
  }
  const double total_duration =
      parse_iso8601_duration(mpd.required_attribute("mediaPresentationDuration"));

  const eacs::XmlNode& period = mpd.required_child("Period");
  const eacs::XmlNode& adaptation = period.required_child("AdaptationSet");
  const eacs::XmlNode& segment_template = adaptation.required_child("SegmentTemplate");

  const double timescale =
      segment_template.attribute("timescale")
          ? segment_template.attribute_as_double("timescale")
          : 1.0;
  const double segment_duration =
      segment_template.attribute_as_double("duration") / timescale;

  std::vector<BitrateRung> rungs;
  for (const eacs::XmlNode* representation : adaptation.find_children("Representation")) {
    BitrateRung rung;
    rung.bitrate_mbps = representation->attribute_as_double("bandwidth") / 1e6;
    if (representation->attribute("height")) {
      rung.resolution = resolution_name_for(
          static_cast<int>(representation->attribute_as_int("height")));
    }
    rungs.push_back(std::move(rung));
  }
  if (rungs.empty()) {
    throw std::runtime_error("from_mpd_xml: no <Representation> elements");
  }

  VbrModel vbr;
  if (mpd.attribute("eacs:vbrAmplitude")) {
    vbr.amplitude = mpd.attribute_as_double("eacs:vbrAmplitude");
  }
  const std::string video_id =
      mpd.attribute("eacs:videoId").value_or("imported-mpd");

  std::vector<std::string> base_urls;
  for (const eacs::XmlNode* base_url : mpd.find_children("BaseURL")) {
    base_urls.push_back(base_url->text());
  }

  VideoManifest manifest(video_id, total_duration, segment_duration,
                         BitrateLadder(std::move(rungs)), vbr);
  manifest.set_base_urls(std::move(base_urls));
  return manifest;
}

}  // namespace eacs::media
