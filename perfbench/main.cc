// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <cfg_ctx|schema_fc|agent_tags> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
//             [--source-id <id>]
//
// Output: a fingerprint line, one line per metric (name, value, unit,
// direction, sample count), the output digest, and as the LAST line one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// <work-dir>/trace-<workload>.json (Chrome trace events) and
// <work-dir>/summary-<workload>.json (per-span self time and percentiles).
// Standard error gets one line per setup round and per decode wave.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics, bool with_n) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" +
           JsonEscape(m.unit) + "\"";
    if (with_n) out += ", \"n\": " + std::to_string(m.n);
    out += "}";
  }
  return out + "}";
}

void PrintMetric(const char* kind, const std::string& name, const Metric& m) {
  std::printf("%s %-28s %16.6g %-6s %s n=%" PRId64 "\n", kind, name.c_str(), m.value,
              m.unit.c_str(), m.better.empty() ? "-" : (m.better + "-is-better").c_str(),
              m.n);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cfg_ctx|schema_fc|agent_tags> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>] "
               "[--source-id <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  options.threads = static_cast<int>(std::min(4u, hw));
  options.work_dir = ".bench_build/perfbench";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--source-id") {
        options.source_id = value();
      } else {
        return Usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return Usage();
    }
  }
  if (options.workload.empty()) return Usage();

  perfbench::WorkloadReport report;
  const std::string run_dir =
      options.work_dir + "/run-" + options.workload + "-" + std::to_string(options.seed);
  perfbench::RunOptions run_options = options;
  run_options.work_dir = run_dir;
  try {
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(run_dir);
    report = perfbench::RunWorkload(run_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    std::error_code ec;
    std::filesystem::remove_all(run_dir, ec);
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  std::string fingerprint = "{\"cpu\": \"" + JsonEscape(CpuModel()) +
                            "\", \"nproc\": " + std::to_string(hw) +
                            ", \"compiler\": \"" + PERFBENCH_COMPILER +
                            "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
                            "\", \"source\": \"" + JsonEscape(options.source_id) +
                            "\", \"trace\": " + (options.trace ? "1" : "0") +
                            ", \"smoke\": " + (options.smoke ? "1" : "0");
  for (const auto& [key, val] : report.config) {
    fingerprint += ", \"" + key + "\": \"" + JsonEscape(val) + "\"";
  }
  fingerprint += "}";
  std::printf("fingerprint %s\n", fingerprint.c_str());

  const char* kind = options.trace ? "layer" : "metric";
  for (const auto& [name, m] : report.metrics) PrintMetric(kind, name, m);
  for (const auto& [name, m] : report.extra) PrintMetric("layer+", name, m);
  std::printf("digest %s %016" PRIx64 " requests=%" PRId64 "\n", options.workload.c_str(),
              report.digest, report.digest_requests);
  for (const std::string& note : report.failures) std::printf("failure %s\n", note.c_str());

  if (options.trace) {
    const std::string base = options.work_dir + "/";
    const std::string meta = "{\"fingerprint\": " + fingerprint + "}";
    if (!perfbench::Tracer::Instance().WriteChromeTrace(
            base + "trace-" + options.workload + ".json", 100000, meta)) {
      std::fprintf(stderr, "perfbench: cannot write the trace file\n");
      return 1;
    }
    // Per-span summary: self time and every percentile with its n.
    std::string summary = "{\"fingerprint\": " + fingerprint + ",\n \"metrics\": " +
                          MetricsJson(report.metrics, true) + ",\n \"workload_layers\": " +
                          MetricsJson(report.extra, true) + ",\n \"spans\": {";
    bool first = true;
    for (const auto& [name, stats] : perfbench::Tracer::Instance().Summarize()) {
      double total = 0.0;
      double self = 0.0;
      for (double v : stats.duration_us) total += v;
      for (double v : stats.self_us) self += v;
      summary += std::string(first ? "\n" : ",\n") + "  \"" + name + "\": {\"n\": " +
                 std::to_string(stats.duration_us.size()) + ", \"total_ms\": " +
                 Number(total / 1e3) + ", \"self_ms\": " + Number(self / 1e3) +
                 ", \"p50_us\": " + Number(perfbench::Percentile(stats.duration_us, 0.5)) +
                 ", \"p90_us\": " + Number(perfbench::Percentile(stats.duration_us, 0.9)) +
                 ", \"p99_us\": " + Number(perfbench::Percentile(stats.duration_us, 0.99)) +
                 ", \"self_p50_us\": " + Number(perfbench::Percentile(stats.self_us, 0.5)) +
                 "}";
      first = false;
      std::printf("span %-22s n=%-8zu total_ms=%-12.3f self_ms=%-12.3f p50_us=%-10.3f "
                  "p99_us=%.3f\n",
                  name.c_str(), stats.duration_us.size(), total / 1e3, self / 1e3,
                  perfbench::Percentile(stats.duration_us, 0.5),
                  perfbench::Percentile(stats.duration_us, 0.99));
    }
    summary += "\n}}\n";
    std::ofstream out(base + "summary-" + options.workload + ".json");
    out << summary;
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write the summary file\n");
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              report.failed == 0 ? "true" : "false", report.attempted, report.failed,
              MetricsJson(report.metrics, false).c_str());
  return 0;
}
