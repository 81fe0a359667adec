// flash_analyze: command-line front end for the static FXP overflow analyzer.
//
// Manual mode prints the per-stage interval report for one design point:
//
//   flash_analyze --n 512 --width 27 --k 5 --max-w 7
//
// (--n is the ring degree; the negacyclic weight transform of size n/2 is
// analyzed, which is the dataflow every shipped config runs.)
//
// --selfcheck runs the acceptance gauntlet the CI static-analysis job gates
// on: every shipped configuration (core defaults, the paper's Table-1
// points, a small fixed-seed DSE front) must be *proven* overflow-free, and
// the PR-2 bug variant (adder saturating before the requantizer) must be
// *flagged* with a concrete witness bound. Exit 0 iff all checks hold.
//
// --pipeline runs the end-to-end decryption-correctness certifier
// (protocol/plan_certificate.hpp) over the committed serving workloads —
// the exact bench_serve and bench_network_serve plans (same seeds), a
// Table-1-scale point, and a deliberately under-budgeted control that must
// come back failure-possible-with-witness. `--json PATH` writes the
// machine-readable certificate document; `--check BASELINE` diffs it
// against the committed CERT_baseline.json the way perf-smoke diffs bench
// JSON (exact verdict match, bits within a small tolerance). Exit 0 iff
// every workload reaches its intended verdict and the baseline (if given)
// agrees.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/fxp_analyzer.hpp"
#include "core/flash_accelerator.hpp"
#include "dse/bayesopt.hpp"
#include "protocol/plan_certificate.hpp"
#include "tensor/network.hpp"
#include "tensor/quant.hpp"

namespace {

const char* verdict_name(flash::analysis::StageVerdict v) {
  switch (v) {
    case flash::analysis::StageVerdict::kProvenSafe: return "proven-safe";
    case flash::analysis::StageVerdict::kSaturationPossible: return "SATURATION-POSSIBLE";
    case flash::analysis::StageVerdict::kWidthWasteful: return "width-wasteful";
  }
  return "?";
}

void print_report(const flash::analysis::AnalysisResult& res) {
  std::printf("m=%zu data_width=%d twiddle_k=%d\n", res.m, res.config.data_width,
              res.config.twiddle_k);
  std::printf("%-6s %-5s %-13s %-13s %-13s %-6s %s\n", "stage", "frac", "bound", "adder",
              "limit", "guard", "verdict");
  for (const auto& st : res.stages) {
    std::printf("%-6d %-5d %-13.6g %-13.6g %-13.6g %-6d %s\n", st.stage, st.frac_bits,
                st.mantissa_bound, st.adder_bound, st.sat_limit, st.guard_bits,
                verdict_name(st.verdict));
  }
  std::printf("output error bound: %.6g\n", res.output_error_bound);
  std::printf("overall: %s\n", res.overflow_free() ? "overflow-free (proven)"
                                                   : "NOT provable overflow-free");
}

int checks_failed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++checks_failed;
}

/// Shipped configs are sized via DesignSpace::to_config for a folded |z|
/// bound; the matching coefficient bound is |z|/sqrt(2) (folding a+bi from
/// two coefficients grows magnitude by at most sqrt(2)).
constexpr double kSqrt2 = 1.4143;

flash::analysis::AnalysisResult analyze_shipped(std::size_t n, const flash::fft::FxpFftConfig& cfg,
                                                double coefficient_max_abs,
                                                bool pr2_variant = false) {
  flash::analysis::AnalyzerOptions opts;
  opts.input_max_abs = coefficient_max_abs;
  opts.clamp_adder_pre_requantize = pr2_variant;
  return flash::analysis::analyze_negacyclic(n, cfg, opts);
}

int selfcheck() {
  std::printf("core default / high-accuracy configs:\n");
  for (std::size_t n : {512u, 2048u}) {
    const std::uint64_t t = 65537;
    const double coeff_max = std::min<double>(static_cast<double>(t / 2), 64.0) / kSqrt2;
    const auto dflt = analyze_shipped(n, flash::core::default_approx_config(n, t), coeff_max);
    expect(dflt.overflow_free(), "default_approx_config n=" + std::to_string(n) + " proven");
    const auto high = analyze_shipped(n, flash::core::high_accuracy_approx_config(n, t), coeff_max);
    expect(high.overflow_free(), "high_accuracy_approx_config n=" + std::to_string(n) + " proven");
  }

  std::printf("paper Table-1 workload points:\n");
  for (auto [n, nnz, max_w] : {std::tuple<std::size_t, std::size_t, double>{512, 18, 7},
                               {1024, 36, 7},
                               {1024, 128, 3}}) {
    flash::dse::DesignSpace space(n / 2, flash::dse::SpaceBounds{10, 39, 2, 18});
    const auto model = flash::dse::ErrorModel::from_weight_stats(n, nnz, max_w);
    for (int width : {27, 39}) {
      flash::dse::DesignPoint p;
      p.stage_widths.assign(static_cast<std::size_t>(space.stages()), width);
      p.twiddle_k = width == 27 ? 5 : 18;
      const auto res = flash::dse::analyze_design_point(space, model, p);
      expect(res.overflow_free(), "n=" + std::to_string(n) + " max_w=" +
                                      std::to_string(static_cast<int>(max_w)) + " width=" +
                                      std::to_string(width) + " proven");

      // The PR-2 datapath (adder clamps at the input fraction scale, before
      // the requantizer's shift) must be flagged with a concrete witness.
      const auto cfg = space.to_config(p, model.input_max_abs());
      const auto bug = analyze_shipped(n, cfg, model.coefficient_max_abs(), /*pr2=*/true);
      const auto* sat = bug.first_saturation_possible();
      expect(sat != nullptr, "  PR-2 variant flagged");
      if (sat != nullptr) {
        const double witness = std::max(sat->mantissa_bound, sat->adder_bound);
        expect(witness > sat->sat_limit,
               "  PR-2 witness concrete: stage " + std::to_string(sat->stage) + " bound " +
                   std::to_string(witness) + " > limit " + std::to_string(sat->sat_limit));
      }
    }
  }

  std::printf("fixed-seed DSE front (every returned point must be provable):\n");
  {
    const std::size_t n = 512;
    flash::dse::DesignSpace space(n / 2, flash::dse::SpaceBounds{10, 39, 2, 18});
    const auto model = flash::dse::ErrorModel::from_weight_stats(n, 18, 7);
    const flash::dse::CostModel cost(space.fft_size(), space.bounds());

    flash::dse::BayesianExplorer bayes(space, model, cost, /*seed=*/43);
    flash::dse::BayesOptions bayes_opts;
    bayes_opts.evaluations = 48;
    bayes_opts.initial_random = 12;
    bayes_opts.candidate_pool = 48;
    std::size_t unproven = 0;
    for (const auto& e : pareto_front(bayes.explore(bayes_opts))) {
      if (!flash::dse::design_point_proven_safe(space, model, e.point)) ++unproven;
    }
    expect(unproven == 0, "bayesopt front: 0 unprovable points");
  }

  std::printf("negative control (a config the analyzer must reject):\n");
  {
    flash::analysis::AnalyzerOptions opts;
    opts.input_max_abs = 8.0;
    const auto cfg = flash::fft::FxpFftConfig::uniform(256, 12, 14, 8);
    const auto res = flash::analysis::analyze_fxp_fft(256, cfg, opts);
    expect(!res.overflow_free(), "14-bit dense FFT with |z|<=8 not provable");
  }

  std::printf(checks_failed == 0 ? "selfcheck: all checks passed\n"
                                 : "selfcheck: %d check(s) FAILED\n",
              checks_failed);
  return checks_failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --pipeline: end-to-end decryption-correctness certificates.

struct NamedCert {
  std::string name;
  bool expect_proven;  // intended verdict (underbudget controls expect failure)
  flash::protocol::PlanCertificate cert;
};

flash::tensor::Tensor4 uniform_weights(std::size_t m, std::size_t c, std::size_t k,
                                       flash::tensor::i64 max_w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  flash::tensor::Tensor4 w(m, c, k, k);
  std::uniform_int_distribution<flash::tensor::i64> dist(-max_w, max_w);
  for (auto& v : w.data()) v = dist(rng);
  return w;
}

/// The committed workload set. Everything is seeded, so the certificates are
/// deterministic and diffable; the bench entries replicate bench_serve.cpp /
/// bench_network_serve.cpp exactly (same params, seeds and weight draws).
std::vector<NamedCert> pipeline_certificates() {
  using flash::bfv::PolyMulBackend;
  using flash::protocol::certify_conv;
  std::vector<NamedCert> out;

  {
    const auto p = flash::bfv::BfvParams::create(4096, 20, 49);
    const auto cfg = flash::core::high_accuracy_approx_config(p.n, p.t);
    std::mt19937_64 rng(7);
    const auto weights = flash::tensor::random_weights(32, 16, 3, 4, rng);
    out.push_back({"bench_serve/approx_high", true,
                   certify_conv(p, PolyMulBackend::kApproxFft, cfg, 16, 12, 12, weights, 1, 1)});
    out.push_back({"bench_serve/fft", true,
                   certify_conv(p, PolyMulBackend::kFft, std::nullopt, 16, 12, 12, weights, 1, 1)});
    out.push_back({"bench_serve/ntt", true,
                   certify_conv(p, PolyMulBackend::kNtt, std::nullopt, 16, 12, 12, weights, 1, 1)});
  }

  {
    const auto p = flash::bfv::BfvParams::create(2048, 17, 44);
    const auto cfg = flash::core::high_accuracy_approx_config(p.n, p.t);
    std::mt19937_64 rng(11);
    const auto stack = flash::tensor::LayerStack::resnet18_like(3, 4, 8, 4, 4, 4, rng);
    flash::tensor::Shape3 shape{3, 8, 8};
    std::size_t li = 0;
    for (const auto& l : stack.layers) {
      if (l.kind == flash::tensor::NetLayer::Kind::kConv) {
        char name[48];
        std::snprintf(name, sizeof name, "bench_network/layer%02zu", li);
        out.push_back({name, true,
                       certify_conv(p, PolyMulBackend::kApproxFft, cfg, shape.c, shape.h, shape.w,
                                    l.weights, l.stride, l.pad)});
      }
      shape = flash::tensor::LayerStack::layer_output_shape(shape, l);
      ++li;
    }
  }

  // Table-1-scale point at n=512: q sized so the proof closes (at test-scale
  // rings the share-wrap floor eats most of a small modulus).
  {
    const auto p = flash::bfv::BfvParams::create(512, 12, 34);
    const auto weights = uniform_weights(4, 2, 3, 3, /*seed=*/9);
    out.push_back({"table1/n512_ntt", true,
                   certify_conv(p, PolyMulBackend::kNtt, std::nullopt, 2, 6, 6, weights, 1, 1)});
    out.push_back({"table1/n512_approx_high", true,
                   certify_conv(p, PolyMulBackend::kApproxFft,
                                flash::core::high_accuracy_approx_config(p.n, p.t), 2, 6, 6,
                                weights, 1, 1)});
    // The width-27 default config is saturation-free (selfcheck) but its
    // spectrum error alone crosses this ceiling: overflow-freedom is not
    // decryption-correctness, which is the whole point of the pipeline pass.
    out.push_back({"negative/n512_default_w27", false,
                   certify_conv(p, PolyMulBackend::kApproxFft,
                                flash::core::default_approx_config(p.n, p.t), 2, 6, 6, weights, 1,
                                1)});
  }

  // Under-budgeted control: logq=30 leaves an 11-bit ceiling that the wrap
  // noise of this workload provably crosses — the certifier must return
  // failure-possible-with-witness (the witness replay is executed in
  // tests/test_pipeline_certifier.cpp and does corrupt decryption).
  {
    const auto p = flash::bfv::BfvParams::create(2048, 17, 30);
    const auto weights = uniform_weights(8, 8, 3, 7, /*seed=*/7);
    out.push_back({"underbudget/n2048_logq30_ntt", false,
                   certify_conv(p, PolyMulBackend::kNtt, std::nullopt, 8, 10, 10, weights, 1, 1)});
  }

  return out;
}

std::string render_certificates_json(const std::vector<NamedCert>& certs) {
  std::string doc = "{\n  \"schema\": \"flash-cert-v1\",\n  \"certificates\": [\n";
  for (std::size_t i = 0; i < certs.size(); ++i) {
    doc += flash::protocol::certificate_json(certs[i].name, certs[i].cert);
    doc += i + 1 < certs.size() ? ",\n" : "\n";
  }
  doc += "  ]\n}\n";
  return doc;
}

/// Baseline diff: every current entry must exist in the baseline with the
/// same verdict and bits within tolerance; the baseline must not contain
/// entries the current run lost. Bits tolerance absorbs libm ulp drift
/// across compilers — a model change shifts them by far more.
constexpr double kCheckBitsTolerance = 0.1;

int check_against_baseline(const std::vector<NamedCert>& certs, const std::string& baseline) {
  int failures = 0;
  for (const NamedCert& c : certs) {
    const std::string tag = "\"name\": \"" + c.name + "\"";
    const std::size_t at = baseline.find(tag);
    if (at == std::string::npos) {
      std::printf("  [FAIL] %s: missing from baseline\n", c.name.c_str());
      ++failures;
      continue;
    }
    const std::size_t end = baseline.find('\n', at);
    const std::string line = baseline.substr(at, end - at);

    const auto field = [&](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": ";
      const std::size_t pos = line.find(needle);
      if (pos == std::string::npos) return {};
      return line.substr(pos + needle.size());
    };
    const std::string verdict = field("verdict");
    const std::string want = std::string("\"") + flash::analysis::to_string(c.cert.overall.verdict);
    if (verdict.compare(0, want.size() + 1, want + "\"") != 0) {
      std::printf("  [FAIL] %s: verdict %s, baseline has %.40s\n", c.name.c_str(),
                  flash::analysis::to_string(c.cert.overall.verdict), verdict.c_str());
      ++failures;
      continue;
    }
    const std::pair<const char*, double> bits[] = {
        {"certified_bits", c.cert.overall.certified_noise_bits},
        {"margin_bits", c.cert.overall.margin_bits},
        {"witness_bits", c.cert.overall.witness_noise_bits},
    };
    bool drifted = false;
    for (const auto& [key, now] : bits) {
      const std::string s = field(key);
      const double base = s.empty() ? std::nan("") : std::strtod(s.c_str(), nullptr);
      if (!(std::fabs(base - now) <= kCheckBitsTolerance)) {
        std::printf("  [FAIL] %s: %s %.2f vs baseline %.2f\n", c.name.c_str(), key, now, base);
        drifted = true;
      }
    }
    if (drifted) ++failures;
  }
  // Count baseline entries to catch silently dropped workloads.
  std::size_t baseline_entries = 0;
  for (std::size_t at = baseline.find("\"name\":"); at != std::string::npos;
       at = baseline.find("\"name\":", at + 1)) {
    ++baseline_entries;
  }
  if (baseline_entries != certs.size()) {
    std::printf("  [FAIL] baseline has %zu entries, current run has %zu\n", baseline_entries,
                certs.size());
    ++failures;
  }
  return failures;
}

int run_pipeline(const char* json_path, const char* check_path) {
  const std::vector<NamedCert> certs = pipeline_certificates();

  int failures = 0;
  std::printf("pipeline certificates:\n");
  for (const NamedCert& c : certs) {
    const bool proven = c.cert.proven();
    const bool ok = c.expect_proven
                        ? proven
                        : c.cert.overall.verdict ==
                              flash::analysis::PipelineVerdict::kFailurePossibleWithWitness;
    if (!ok) ++failures;
    std::printf("  [%s] %-30s units=%zu  %s\n", ok ? "ok" : "FAIL", c.name.c_str(),
                c.cert.units.size(), c.cert.overall.detail.c_str());
  }

  const std::string doc = render_certificates_json(certs);
  if (json_path != nullptr) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "flash_analyze: cannot write %s\n", json_path);
      return 2;
    }
    out << doc;
    std::printf("wrote %s\n", json_path);
  }

  if (check_path != nullptr) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "flash_analyze: cannot read baseline %s\n", check_path);
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::printf("checking against %s:\n", check_path);
    failures += check_against_baseline(certs, buf.str());
  }

  std::printf(failures == 0 ? "pipeline: all certificates at intended verdicts\n"
                            : "pipeline: %d certificate check(s) FAILED\n",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 512;
  int width = 27, k = 5;
  double max_w = 7.0;
  bool run_selfcheck = false;
  bool run_pipeline_mode = false;
  const char* json_path = nullptr;
  const char* check_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flash_analyze: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selfcheck") {
      run_selfcheck = true;
    } else if (arg == "--pipeline") {
      run_pipeline_mode = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--n") {
      n = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--width") {
      width = std::atoi(next());
    } else if (arg == "--k") {
      k = std::atoi(next());
    } else if (arg == "--max-w") {
      max_w = std::atof(next());
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: flash_analyze [--selfcheck] [--pipeline [--json OUT] [--check BASELINE]]\n"
          "                     [--n N] [--width W] [--k K] [--max-w M]\n");
      return 0;
    } else {
      std::fprintf(stderr, "flash_analyze: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  if (run_selfcheck) return selfcheck();
  if (run_pipeline_mode) return run_pipeline(json_path, check_path);

  flash::dse::DesignSpace space(n / 2, flash::dse::SpaceBounds{8, 62, 2, 20});
  const auto model = flash::dse::ErrorModel::from_weight_stats(n, n / 8, max_w);
  flash::dse::DesignPoint p;
  p.stage_widths.assign(static_cast<std::size_t>(space.stages()), width);
  p.twiddle_k = k;
  const auto res = flash::dse::analyze_design_point(space, model, p);
  print_report(res);
  return res.overflow_free() ? 0 : 1;
}
