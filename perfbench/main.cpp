// The repository benchmark program.
//
//   perfbench --workload point_tx|kv_open_loop --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//   perfbench --self-test
//
// Prints human-readable lines (provenance, output checks, every metric with
// its unit and sample count or ratio base), then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones of an untraced run; with --trace 1 the
// per-layer ones of a run that alternates untraced and traced slices.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "checks.hpp"
#include "obs/trace.hpp"
#include "trace.hpp"

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.substr(0, s.find('\0'));
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] | --self-test\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') usage(flag + " wants a whole number");
  return x;
}

void print_metric(const pb::Metric& m) {
  std::printf("metric %-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool self_test_only = false;
  bool have_trace = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_u64(a, v);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else {
      usage("unknown flag " + a);
    }
  }

  const std::string self_test = pb::checks::self_test();
  if (self_test_only) {
    std::printf("check self-test: %s\n",
                self_test.empty() ? "every check rejects an off-by-one tally"
                                  : ("FAILED in " + self_test).c_str());
    return self_test.empty() ? 0 : 1;
  }
  if (opt.workload.empty() || !have_seconds || !have_trace)
    usage("--workload, --seconds and --trace are required");

  // The engine's own event tracing stays off in every run: end-to-end
  // numbers are untraced, and traced runs record only the benchmark's spans.
  txf::obs::trace::set_enabled(false);

  pb::Result r;
  try {
    r = pb::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!self_test.empty()) r.fail_check("check self-test failed in " + self_test);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"cpu\": %s, \"threads\": %s}\n",
              json_str(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed),
              json_num(opt.seconds).c_str(), opt.trace ? 1 : 0, nproc,
              json_str(cpu_model()).c_str(), json_str(r.threads).c_str());
  for (const std::string& line : r.info) std::printf("%s\n", line.c_str());
  for (const std::string& f : r.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  const std::vector<pb::Metric>& metrics = opt.trace ? r.layer : r.e2e;
  for (const pb::Metric& m : metrics) print_metric(m);

  if (opt.trace && !opt.spans_out.empty()) {
    const std::string header = "workload=" + opt.workload +
                               " seed=" + std::to_string(opt.seed) +
                               " nproc=" + std::to_string(nproc) +
                               " threads=" + r.threads;
    if (!pb::trace::write_tsv(opt.spans_out, header)) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.spans_out.c_str());
      return 1;
    }
    std::printf("spans sample written to %s\n", opt.spans_out.c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += json_str(metrics[i].name) + ": {\"value\": " +
            json_num(metrics[i].value) + ", \"unit\": " +
            json_str(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
