// dnsctx benchmark binary: runs one workload.
//
//   dnsctx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-out FILE]
//
// Runs one workload (neighborhood | city | spool | serve) and prints, as
// the last line of stdout, one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Diagnostics, failed checks and the traced run's layer
// report go to stderr. Scratch files live in a fresh mkdtemp directory
// under the working directory, removed before exit. Exit status: 0 when
// every output check passed, 1 when one failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>

#include <unistd.h>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "dnsctx_perfbench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: dnsctx_perfbench --workload neighborhood|city|spool|serve --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n");
  std::exit(2);
}

/// Strict integer option: present, fully numeric, within [lo, hi].
long long int_option(const dnsctx::CliArgs& args, const std::string& name, long long lo,
                     long long hi) {
  if (!args.option(name)) usage_error("missing --" + name);
  long long v = 0;
  try {
    v = args.int_option_or(name, 0);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  if (v < lo || v > hi) {
    usage_error("--" + name + " must be in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                "], got " + std::to_string(v));
  }
  return v;
}

/// Removes the scratch directory on every exit path out of main's scope.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

void print_layer_report(const Outcome& out) {
  std::fprintf(stderr, "per-layer share of traced wall time:\n");
  for (const auto& [name, m] : out.metrics.all()) {
    if (name.ends_with(".self_frac") || name == "obs.unaccounted_frac") {
      std::fprintf(stderr, "  %-24s %6.1f %%\n", name.c_str(), 100.0 * m.value);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = dnsctx::parse_cli(
      std::span<const char* const>{argv + 1, static_cast<std::size_t>(argc > 0 ? argc - 1 : 0)});
  if (!args.positionals.empty()) usage_error("unexpected argument '" + args.positionals[0] + "'");
  if (!args.flags.empty()) usage_error("--" + *args.flags.begin() + " needs a value");
  const auto unknown = args.unknown_keys({"workload", "seed", "seconds", "trace", "spans-out"});
  if (!unknown.empty()) usage_error("unknown option --" + unknown.front());

  RunOptions opts;
  const std::string workload = args.option_or("workload", "");
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == workload;
  if (!known) usage_error("--workload must be one of neighborhood, city, spool, serve");
  opts.seed = static_cast<std::uint64_t>(int_option(args, "seed", 0, 1LL << 53));
  opts.seconds = static_cast<double>(int_option(args, "seconds", 1, 600));
  opts.trace = int_option(args, "trace", 0, 1) == 1;
  const std::string spans_out = args.option_or("spans-out", "");

  ScratchDir scratch;
  std::string tmpl = (std::filesystem::current_path() / ".perfbench-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("dnsctx_perfbench: mkdtemp");
    return 1;
  }
  scratch.path = tmpl;
  opts.tmp_dir = tmpl;

  Outcome out;
  try {
    out = run_workload(workload, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnsctx_perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  for (const auto& e : out.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  if (opts.trace) print_layer_report(out);
  if (!spans_out.empty()) {
    try {
      const std::string run_id =
          workload + "-" + std::to_string(opts.seed) + "-" + std::to_string(::getpid());
      write_spans_jsonl(spans_out, run_id, out.spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dnsctx_perfbench: %s\n", e.what());
      return 1;
    }
  }
  std::printf("%s\n", result_json(out.correct(), out.attempted, out.failed, out.metrics).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
