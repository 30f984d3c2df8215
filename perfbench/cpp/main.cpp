// perfbench: runs one workload for --seconds, checks its outputs and
// prints every metric; the last stdout line is the result as one JSON
// object. Usage:
//   perfbench --workload churn|stacked|near_oom --seed N
//             --seconds S --trace 0|1 [--out DIR]
// --trace 1 records spans around every call into a layer, prints the
// per-layer metrics instead of the end-to-end ones, and writes the spans to
// DIR/<workload>-seed<N>.spans.json at exit.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {
const Clock::time_point kStart = Clock::now();

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
         ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return s + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload churn|stacked|near_oom "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n";
  return 2;
}

}  // namespace

Clock::time_point process_start() { return kStart; }

double SpanLog::total_ms(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const auto& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

void SpanLog::write(const std::string& path,
                    const std::vector<Metric>& layers) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream f(path);
  f << "{\"layers\": " << metrics_json(layers) << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    f << (i > 0 ? ",\n" : "") << "[" << quoted(s.name) << ", " << s.start_ns
      << ", " << s.end_ns << ", " << s.parent << ", " << s.step << "]";
  }
  f << "\n],\n\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
       "\"parent\", \"step\"]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (flag == "--out") {
        opt.out_dir = val;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }

  Run (*fn)(const Options&, SpanLog&) = nullptr;
  if (opt.workload == "churn") fn = run_churn;
  if (opt.workload == "stacked") fn = run_stacked;
  if (opt.workload == "near_oom") fn = run_near_oom;
  if (fn == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  SpanLog log(opt.trace);
  Run run;
  try {
    run = fn(opt, log);
  } catch (const std::exception& e) {
    run.out.fail(std::string("aborted: ") + e.what());
  }
  Outcome& out = run.out;
  out.e2e.push_back({"setup_s", run.setup_s, "s"});
  out.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});

  for (const auto& m : out.e2e) {
    std::cout << (opt.trace ? "e2e " : "metric ") << m.name << " "
              << num(m.value) << " " << m.unit << "\n";
  }
  for (const auto* v : {&out.layers, &out.detail}) {
    for (const auto& m : *v) {
      std::cout << "layer " << m.name << " " << num(m.value) << " " << m.unit
                << "\n";
    }
  }
  for (const auto& e : out.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  if (opt.trace) {
    std::vector<Metric> all = out.layers;
    all.insert(all.end(), out.detail.begin(), out.detail.end());
    all.insert(all.end(), out.e2e.begin(), out.e2e.end());
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".spans.json";
    try {
      log.write(path, all);
      std::cout << "spans " << log.size() << " written to " << path << "\n";
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }
  const bool correct = out.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << metrics_json(opt.trace ? out.layers : out.e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
