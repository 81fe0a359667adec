// flash_fuzz — randomized differential cross-checking of the four HConv
// back-ends (exact NTT, Shoup NTT, double FFT, approximate+sparse FFT).
//
//   flash_fuzz --iters 500 --seed 42              # quick deterministic run
//   flash_fuzz --time-budget 600 --iters 100000   # nightly soak
//   flash_fuzz --corpus tests/corpus/diff_seeds.txt
//   flash_fuzz --repro "polymul:seed=0x1234,n=256,nnz=4,densify=0"
//   flash_fuzz --inject twiddle --expect-failure  # self-test: the oracle
//                                                 # must catch a twiddle bug
//                                                 # and print a shrunk
//                                                 # reproducer
//
// Every failure prints a one-line reproducer spec (smallest still-failing
// case after shrinking) accepted by --repro and by the corpus file.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "testing/fuzz.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --iters N          random cases to run (default 100)\n"
      << "  --seed S           base seed; case i uses derive_stream_seed(S, i) (default 1)\n"
      << "  --time-budget SEC  wall-clock cap; 0 = unlimited (default 0)\n"
      << "  --conv-every K     every K-th case is an end-to-end HConv (default 16, 0 = off)\n"
      << "  --max-failures N   stop after N shrunk failures (default 3)\n"
      << "  --corpus FILE      replay reproducer lines / seeds from FILE first\n"
      << "  --repro SPEC       run one reproducer spec (or bare seed) and exit\n"
      << "  --inject FAULT     deliberate-bug self-test; FAULT is one of:\n"
      << "                       twiddle     twiddle-quantization bug, approx path\n"
      << "                       pow2-mask   Z_{2^k} ring one bit narrow (mask-width bug)\n"
      << "                       pow2-carry  Z_{2^k} ct operand truncated to 32 bits\n"
      << "                       mul-only-odd  skip-mode mirror written as -round(Wv)\n"
      << "  --expect-failure   exit 0 iff the run DID fail (oracle self-test)\n"
      << "  --verbose          log every case\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using flash::testing::FaultInjection;
  flash::testing::FuzzOptions options;
  std::string repro;
  bool expect_failure = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    try {
      if (arg == "--iters") options.iters = std::stoull(next());
      else if (arg == "--seed") options.seed = std::stoull(next(), nullptr, 0);
      else if (arg == "--time-budget") options.time_budget_s = std::stod(next());
      else if (arg == "--conv-every") options.conv_every = std::stoull(next());
      else if (arg == "--max-failures") options.max_failures = std::stoull(next());
      else if (arg == "--repro") repro = next();
      else if (arg == "--expect-failure") expect_failure = true;
      else if (arg == "--verbose") options.verbose = true;
      else if (arg == "--inject") {
        const std::string what = next();
        if (what == "twiddle") options.oracle.fault = FaultInjection::kTwiddleQuantization;
        else if (what == "pow2-mask") options.oracle.fault = FaultInjection::kPow2MaskWidth;
        else if (what == "pow2-carry") options.oracle.fault = FaultInjection::kPow2CarryTruncation;
        else if (what == "mul-only-odd") options.oracle.fault = FaultInjection::kMulOnlyOddSymmetric;
        else {
          std::cerr << "unknown fault: " << what << "\n";
          return usage(argv[0]);
        }
      } else if (arg == "--corpus") {
        std::ifstream file(next());
        if (!file) {
          std::cerr << "cannot open corpus file\n";
          return 2;
        }
        const auto entries = flash::testing::load_seed_corpus(file);
        options.corpus.insert(options.corpus.end(), entries.begin(), entries.end());
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "bad value for " << arg << ": " << e.what() << "\n";
      return usage(argv[0]);
    }
  }

  if (!repro.empty()) {
    const auto report = flash::testing::run_repro(repro, options.oracle);
    std::cout << repro << " -> " << report.summary() << "\n";
    return report.ok ? 0 : 1;
  }

  const auto result = flash::testing::run_fuzz(options, std::cout);
  if (expect_failure) {
    if (result.ok()) {
      std::cout << "expected a failure but every case passed\n";
      return 1;
    }
    // Self-test contract: each failure carries a reproducer that still fails.
    for (const auto& f : result.failures) {
      const auto replay = flash::testing::run_repro(f.reproducer, options.oracle);
      if (replay.ok) {
        std::cout << "reproducer does not reproduce: " << f.reproducer << "\n";
        return 1;
      }
    }
    std::cout << "injected fault detected and reproduced; shrunk reproducer: "
              << result.failures.front().reproducer << "\n";
    return 0;
  }
  return result.ok() ? 0 : 1;
}
