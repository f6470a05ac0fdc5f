// Golden trace digests: the datapath's observable behavior, pinned. Every
// fuzz-corpus scenario plus a spread of generated seeds is run once; the
// frames seen at the endpoints and the end-state metrics are reduced to
// FNV-1a digests that must match tests/golden/trace_digests.txt. Any
// diverging frame, byte, timestamp or counter flips a digest. On a mismatch
// the test prints the freshly computed line, so a deliberate behavior change
// updates the file by copy-paste.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/fuzzer.h"
#include "src/check/scenario_gen.h"

namespace msn {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1a(uint64_t h, std::string_view text) {
  return Fnv1a(h, text.data(), text.size());
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// One endpoint frame in the tap format: device, direction, sim time, MACs,
// ethertype, length and a payload hash; payloads up to 64 bytes (ARP, ICMP,
// registration) also get a full hex dump.
std::string TraceLine(const char* dev_name, const EthernetFrame& frame,
                      NetDevice::TapDirection dir, Time now) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s %c t=%lld %s>%s et=%04x len=%zu payload=%016llx",
                dev_name, dir == NetDevice::TapDirection::kTransmit ? 'T' : 'R',
                static_cast<long long>(now.nanos()), frame.src.ToString().c_str(),
                frame.dst.ToString().c_str(), static_cast<unsigned>(frame.ethertype),
                frame.payload.size(),
                static_cast<unsigned long long>(
                    Fnv1a(kFnvOffset, frame.payload.data(), frame.payload.size())));
  std::string entry = line;
  if (frame.payload.size() <= 64) {
    entry += " hex=";
    char byte[4];
    for (size_t i = 0; i < frame.payload.size(); ++i) {
      std::snprintf(byte, sizeof(byte), "%02x", frame.payload.data()[i]);
      entry += byte;
    }
  }
  return entry;
}

struct Capture {
  uint64_t frames = 0;
  uint64_t trace = kFnvOffset;
  uint64_t metrics = 0;
  bool failed = false;
};

// Runs `spec`, tapping the mobile host's devices and the correspondent host
// — the endpoints whose wire behavior defines "what the network did".
Capture RunCaptured(const ScenarioSpec& spec) {
  Capture cap;
  RunOptions options;
  options.instrument = [&cap](Testbed& tb) {
    auto tap_for = [&cap, &tb](const char* dev_name) {
      return [&cap, &tb, dev_name](const EthernetFrame& frame, NetDevice::TapDirection dir) {
        ++cap.frames;
        cap.trace = Fnv1a(cap.trace, TraceLine(dev_name, frame, dir, tb.sim.Now()));
        cap.trace = Fnv1a(cap.trace, "\n");
      };
    };
    tb.mh_eth->SetTap(tap_for("mh_eth"));
    if (tb.mh_radio != nullptr) {
      tb.mh_radio->SetTap(tap_for("mh_radio"));
    }
    tb.ch_dev->SetTap(tap_for("ch"));
  };
  options.on_complete = [&cap](Testbed& tb) { cap.metrics = MetricsDigest(tb.metrics); };
  cap.failed = RunScenario(spec, options).failed();
  return cap;
}

std::string DigestLine(const std::string& label, const Capture& cap) {
  return label + " frames=" + std::to_string(cap.frames) + " trace=" + Hex64(cap.trace) +
         " metrics=" + Hex64(cap.metrics);
}

// label -> full digest line, from the committed golden file.
std::map<std::string, std::string> LoadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(MSN_GOLDEN_FILE);
  EXPECT_TRUE(in) << "missing golden file " << MSN_GOLDEN_FILE;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    golden[line.substr(0, line.find(' '))] = line;
  }
  return golden;
}

std::vector<std::pair<std::string, ScenarioSpec>> Scenarios() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MSN_CORPUS_DIR)) {
    if (entry.path().extension() == ".seed") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 3u) << "corpus went missing from " << MSN_CORPUS_DIR;

  std::vector<std::pair<std::string, ScenarioSpec>> out;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    auto spec = ScenarioSpec::Parse(buffer.str(), &error);
    EXPECT_TRUE(spec.has_value()) << path << ": " << error;
    if (spec) {
      out.emplace_back(path.filename().string(), std::move(*spec));
    }
  }
  // Shapes the corpus doesn't pin: radio handoffs, overload bursts, mobility
  // corridors.
  for (const uint64_t seed : {11ull, 42ull, 1996ull, 20260809ull}) {
    out.emplace_back("seed-" + std::to_string(seed), GenerateScenario(seed));
  }
  return out;
}

TEST(GoldenTraceTest, EveryScenarioMatchesItsDigest) {
  std::map<std::string, std::string> golden = LoadGolden();
  for (const auto& [label, spec] : Scenarios()) {
    const Capture cap = RunCaptured(spec);
    EXPECT_FALSE(cap.failed) << label << ": oracle failure";
    EXPECT_GT(cap.frames, 0u) << label << ": endpoints saw no traffic at all";
    const std::string actual = DigestLine(label, cap);
    const auto it = golden.find(label);
    if (it == golden.end()) {
      ADD_FAILURE() << label << " has no golden digest; add this line to "
                    << MSN_GOLDEN_FILE << ":\n"
                    << actual;
      continue;
    }
    EXPECT_EQ(it->second, actual) << label << " diverged from its golden digest; if the "
                                  << "change is intended, replace its line with:\n"
                                  << actual;
    golden.erase(it);
  }
  for (const auto& [label, line] : golden) {
    ADD_FAILURE() << "stale golden digest for a scenario that no longer runs: " << line;
  }
}

}  // namespace
}  // namespace msn
