// Pinned digests of the rich engine's three inner loops (DESIGN §7, §8):
// the vibration estimator as the engine and the task builder advance it,
// and the VBR segment sizes every planner and the engine read; and the rows
// of the Section V unit that runs them all.
//
// Each test writes every value as a C99 hex float (%a: every bit of every
// double) and hashes the text with 64-bit FNV-1a. The constants were recorded
// from the per-sample estimator and the sin-per-query size model, before the
// batched estimator kernel and the tabulated sizes replaced them, so a
// reassociated filter step, a reordered RMS update or a changed size factor
// moves a hash. The rows were recorded while every clock walked the
// accelerometer trace, every trace query searched three times and every
// decision built its own rung terms. A deliberate change to these numbers
// must re-pin the constants and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "eacs/core/task.h"
#include "eacs/media/mpd.h"
#include "eacs/player/session_engine.h"
#include "eacs/sensors/vibration.h"
#include "eacs/sim/evaluation.h"
#include "eacs/trace/session.h"

namespace eacs {
namespace {

std::string hex(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

const std::vector<trace::SessionTraces>& table_v_sessions() {
  static const std::vector<trace::SessionTraces> sessions =
      trace::build_all_sessions();
  return sessions;
}

/// The Table V manifest of `session` as the evaluation builds it.
media::VideoManifest manifest_for(const trace::SessionTraces& session,
                                  double segment_duration_s,
                                  double vbr_amplitude) {
  sim::EvaluationConfig config;
  config.segment_duration_s = segment_duration_s;
  config.vbr_amplitude = vbr_amplitude;
  return sim::Evaluation(config).manifest_for(session.spec);
}

/// Every size of `manifest`, row by row.
void dump_sizes(std::ostringstream& out, const media::VideoManifest& manifest) {
  out << manifest.video_id() << " segments=" << manifest.num_segments() << "\n";
  for (std::size_t i = 0; i < manifest.num_segments(); ++i) {
    for (std::size_t level = 0; level < manifest.ladder().size(); ++level) {
      out << hex(manifest.segment_size_megabits(i, level)) << " ";
    }
    out << "\n";
  }
  for (std::size_t level = 0; level < manifest.ladder().size(); ++level) {
    out << hex(manifest.total_size_megabytes(level)) << " ";
  }
  out << "\n";
}

TEST(InnerLoopPinsTest, VibrationClockAtIrregularSteps) {
  // 0.37 s steps never land on the 50 Hz sample grid, so each advance
  // consumes a run of 18 or 19 samples. The configurations cover the
  // default 300-sample window, a 50-sample one, a 1-sample one (every
  // update replaces the only slot) and another high-pass cutoff.
  std::vector<sensors::VibrationConfig> configs(4);
  configs[1].window_s = 1.0;
  configs[2].window_s = 0.02;
  configs[3].window_s = 2.5;
  configs[3].highpass_cutoff_hz = 2.0;
  std::ostringstream out;
  for (const trace::SessionTraces& session : table_v_sessions()) {
    const double end_s = session.accel.back().t_s + 1.0;
    for (const sensors::VibrationConfig& config : configs) {
      sensors::VibrationTrack track(session.accel, config);
      player::VibrationClock clock(track);
      out << "session " << session.spec.id << " window " << hex(config.window_s)
          << "\n";
      for (double t = 0.0; t <= end_s; t += 0.37) {
        out << hex(clock.advance_to(t)) << " ";
      }
      out << hex(clock.level()) << "\n";
    }
    // The per-sample path: the level after every sample, averaged.
    out << "mean " << hex(sensors::mean_vibration_level(session.accel)) << "\n";
  }
  EXPECT_EQ(hex64(fnv1a(out.str())), hex64(0xbe5dc8c181707275ULL))
      << "dump has " << out.str().size() << " bytes";
}

TEST(InnerLoopPinsTest, TaskEnvironmentVibrations) {
  std::ostringstream out;
  for (const trace::SessionTraces& session : table_v_sessions()) {
    for (const double segment_s : {2.0, 3.0}) {
      const auto manifest = manifest_for(session, segment_s, 0.0);
      const auto tasks = core::build_task_environments(manifest, session);
      out << "session " << session.spec.id << " segment " << hex(segment_s)
          << "\n";
      for (const core::TaskEnvironment& task : tasks) {
        out << hex(task.vibration) << " ";
      }
      out << "\n";
    }
  }
  EXPECT_EQ(hex64(fnv1a(out.str())), hex64(0x37c32f1ab3f31ec3ULL))
      << "dump has " << out.str().size() << " bytes";
}

TEST(InnerLoopPinsTest, VbrSegmentSizes) {
  // CBR and two VBR amplitudes, at the evaluation's 2 s segments and at
  // 3 s segments, whose last segment is shorter on most Table V lengths.
  std::ostringstream out;
  for (const trace::SessionTraces& session : table_v_sessions()) {
    for (const double segment_s : {2.0, 3.0}) {
      for (const double amplitude : {0.0, 0.25, 0.6}) {
        const auto manifest = manifest_for(session, segment_s, amplitude);
        dump_sizes(out, manifest);
        const auto tasks = core::build_task_environments(manifest, session);
        for (const core::TaskEnvironment& task : tasks) {
          for (const double size : task.size_megabits) out << hex(size) << " ";
        }
        out << "\n";
      }
    }
  }
  EXPECT_EQ(hex64(fnv1a(out.str())), hex64(0xce6f0b6c1200e8d6ULL))
      << "dump has " << out.str().size() << " bytes";
}

TEST(InnerLoopPinsTest, EvaluationRows) {
  // Every field of every row Evaluation::run produces on the Table V
  // sessions: the unit that shares one vibration track among its clocks,
  // prices "Ours" through the online selector's rung terms, downloads over
  // the throughput trace and scores the session QoE. 3 s segments leave a
  // shorter last segment on most lengths; the 0.25 amplitude gives every
  // segment its own sizes.
  std::ostringstream out;
  for (const double segment_s : {2.0, 3.0}) {
    for (const double amplitude : {0.0, 0.25}) {
      sim::EvaluationConfig config;
      config.segment_duration_s = segment_s;
      config.vbr_amplitude = amplitude;
      const sim::EvaluationResult result =
          sim::Evaluation(config).run(table_v_sessions());
      out << "segment " << hex(segment_s) << " amplitude " << hex(amplitude)
          << "\n";
      for (const sim::SessionMetrics& r : result.rows) {
        out << r.algorithm << " " << r.session_id << " "
            << hex(r.total_energy_j) << " " << hex(r.base_energy_j) << " "
            << hex(r.extra_energy_j) << " " << hex(r.mean_qoe) << " "
            << hex(r.mean_bitrate_mbps) << " " << hex(r.downloaded_mb) << " "
            << hex(r.rebuffer_s) << " " << r.rebuffer_events << " "
            << r.switch_count << " " << hex(r.startup_delay_s) << " "
            << hex(r.wasted_energy_j) << " " << hex(r.wasted_mb) << " "
            << r.retries << " " << r.abandoned_segments << "\n";
      }
    }
  }
  EXPECT_EQ(hex64(fnv1a(out.str())), hex64(0x7db3fcf392e3d083ULL))
      << "dump has " << out.str().size() << " bytes";
}

TEST(InnerLoopPinsTest, MpdRoundTripSizes) {
  // The round trip rounds the segment duration to microseconds and the
  // amplitude to ten significant digits, so its sizes are their own pin.
  std::ostringstream out;
  for (const trace::SessionTraces& session : table_v_sessions()) {
    const auto manifest = manifest_for(session, 2.0, 0.3);
    dump_sizes(out, media::from_mpd_xml(media::to_mpd_xml(manifest)));
  }
  EXPECT_EQ(hex64(fnv1a(out.str())), hex64(0x8096ef55b25e552cULL))
      << "dump has " << out.str().size() << " bytes";
}

}  // namespace
}  // namespace eacs
