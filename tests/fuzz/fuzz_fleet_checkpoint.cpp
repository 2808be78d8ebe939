// libFuzzer target for the fleet checkpoint sidecar loader, the parser of
// the file sim_cli --resume reads back. load_fleet_checkpoint must either
// load the bytes or reject them with the documented std::runtime_error;
// crashes, sanitizer reports, unbounded allocations and other escaping
// exceptions are findings. Whatever loads must also save and load back.
//
// load_fleet_checkpoint takes a path, so each input goes through a
// per-process temporary file.
//
// Built both as a clang libFuzzer binary (EACS_LIBFUZZER=ON) and as the plain
// fuzz_fleet_checkpoint_replay regression binary that replays
// tests/fuzz/corpus/fleet_checkpoint/.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "eacs/sim/fleet_checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fuzz_fleet_checkpoint_" + std::to_string(getpid()) + ".ckpt"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  eacs::sim::FleetCheckpoint checkpoint;
  try {
    checkpoint = eacs::sim::load_fleet_checkpoint(path);
  } catch (const std::runtime_error&) {
    std::remove(path.c_str());
    return 0;
  }
  eacs::sim::save_fleet_checkpoint(checkpoint, path);
  (void)eacs::sim::load_fleet_checkpoint(path);
  std::remove(path.c_str());
  return 0;
}
