//===- main.cpp - wall-clock benchmark driver -----------------------------===//
//
// Part of the SoftBound reproduction's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// wallbench --workload kernels|traffic|compile --seed N --seconds S
///           --trace 0|1 [--trace-out FILE]
///
/// Runs one workload as a closed loop, one operation at a time, in seeded
/// rounds until S seconds have passed (whole rounds only). With --trace 0
/// it prints the end-to-end metrics; with --trace 1 it runs the traced
/// variant of every operation instead and prints the per-layer metrics.
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Any wrong answer makes the exit code 1. See README.md.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace wallbench;

namespace {

/// Set-up runs at least SetupMinRepeats times and for at least
/// SetupMinSeconds (at most SetupMaxRepeats times); setup_s is the median.
/// The warm-up after it is not timed: its sessions would only measure
/// session time again, which the op_ms_* figures already report.
constexpr int SetupMinRepeats = 3, SetupMaxRepeats = 60;
constexpr double SetupMinSeconds = 3;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string TraceOut;
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload "
               "kernels|traffic|compile --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (!*V || *End || !(O.Seconds > 0) || O.Seconds > 600)
        return false;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      O.Trace = V[0] - '0';
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      return false;
    }
  }
  return HaveSeed && O.Seconds > 0 && O.Trace >= 0 && !O.Workload.empty();
}

/// Linear interpolation between closest ranks.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB.
}

#if defined(__clang__)
#define WALLBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define WALLBENCH_COMPILER "gcc " __VERSION__
#else
#define WALLBENCH_COMPILER "unknown compiler"
#endif

std::string hostFacts() {
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "nproc=%u compiler=\"%s\" build_type=%s optimized=yes",
                std::thread::hardware_concurrency(), WALLBENCH_COMPILER,
                WALLBENCH_BUILD_TYPE);
  return Buf;
}

void printMetric(const Metric &M, const std::string &Samples) {
  std::printf("  %-32s %16.6f %-8s %s\n", M.Name.c_str(), M.Value,
              M.Unit.c_str(), Samples.c_str());
}

std::string jsonResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Ms) {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof Num, "%.17g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Num +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}}";
}

Clock::time_point deadline(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

} // namespace

int main(int Argc, char **Argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "wallbench: refusing to run an unoptimised build; "
                       "it would measure a different program\n");
  return 2;
#endif
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage("bad arguments");
  std::unique_ptr<WorkloadRunner> W = makeWorkload(O.Workload);
  if (!W)
    return usage("unknown workload");

  std::printf("wallbench workload=%s seed=%llu seconds=%g trace=%d\n",
              W->name(), static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Trace);
  std::printf("host: %s\n", hostFacts().c_str());

  Rng Order(O.Seed * 0x2545f4914f6cdd1dULL + 1);
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0, Failed = 0;

  if (!O.Trace) {
    std::vector<double> SetupS;
    double SetupTotal = 0;
    while (SetupS.size() < SetupMaxRepeats &&
           (SetupS.size() < SetupMinRepeats || SetupTotal < SetupMinSeconds)) {
      auto T0 = Clock::now();
      if (!W->setup(O.Seed, nullptr))
        return 1;
      SetupS.push_back(nsSince(T0, Clock::now()) / 1e9);
      SetupTotal += SetupS.back();
    }
    if (!W->warmUp())
      return 1;

    // work_per_s is the median over rounds of each round's work divided by
    // the sum of its operations' wall times, so that a burst of load from
    // other tenants moves a few rounds rather than the figure.
    std::vector<double> OpMs, RoundRates;
    double Work = 0;
    for (auto End = deadline(O.Seconds); Clock::now() < End;) {
      double RoundWork = 0, RoundS = 0;
      for (size_t I : Order.permutation(W->roundSize())) {
        OpResult R = W->run(I);
        OpMs.push_back(R.Ms);
        RoundWork += R.Work;
        RoundS += R.Ms / 1e3;
        Attempted += R.Attempted;
        Failed += R.Failed;
      }
      Work += RoundWork;
      RoundRates.push_back(RoundWork / RoundS);
    }
    double RssMb = peakRssMb();
    OpResult Fin;
    W->finish(nullptr, Fin);
    Attempted += Fin.Attempted;
    Failed += Fin.Failed;

    double SumS = 0;
    for (double Ms : OpMs)
      SumS += Ms / 1e3;
    Metrics = {{"op_ms_p50", quantile(OpMs, 0.5), "ms"},
               {"op_ms_p90", quantile(OpMs, 0.9), "ms"},
               {"work_per_s", quantile(RoundRates, 0.5), "1/s"},
               {"setup_s", quantile(SetupS, 0.5), "s"},
               {"peak_rss_mb", RssMb, "MB"}};

    // The same figures under their per-workload names.
    std::string Op = W->opName(), Unit = W->workName();
    bool Kb = Unit == "KB";
    std::string N = "(n=" + std::to_string(OpMs.size()) + " " + Op + "s)";
    char Rate[192];
    std::snprintf(Rate, sizeof Rate,
                  "(median of %zu rounds, quartiles %.1f..%.1f; overall %.1f "
                  "%s in %.3f s of %ss)",
                  RoundRates.size(), quantile(RoundRates, 0.25),
                  quantile(RoundRates, 0.75), Work, Unit.c_str(), SumS,
                  Op.c_str());
    std::printf("end-to-end (tracing off):\n");
    printMetric({Op + "_ms_p50", Metrics[0].Value, "ms"}, N);
    printMetric({Op + "_ms_p90", Metrics[1].Value, "ms"}, N);
    printMetric({Kb ? "build_kb_per_s" : Unit + "_per_s", Metrics[2].Value,
                 Kb ? "KB/s" : "1/s"},
                Rate);
    printMetric({"failed_frac",
                 Attempted ? static_cast<double>(Failed) / Attempted : 1.0,
                 "fraction"},
                "(" + std::to_string(Failed) + " of " +
                    std::to_string(Attempted) + " answers wrong)");
    printMetric(Metrics[3], "(median of " + std::to_string(SetupS.size()) +
                                " set-ups)");
    printMetric(Metrics[4], "(peak resident set after the timed rounds)");
  } else {
    TraceRun T;
    T.Cost = TimerCost::measure();
    if (!W->setup(O.Seed, &T) || !W->warmUp())
      return 1;
    for (auto End = deadline(O.Seconds); Clock::now() < End; ++T.Rounds)
      for (size_t I : Order.permutation(W->roundSize()))
        W->trace(I, T);
    OpResult Fin;
    W->finish(&T, Fin);
    W->countStatic(T);
    Attempted = T.Attempted + Fin.Attempted;
    Failed = T.Failed + Fin.Failed;
    Metrics = layerMetrics(T);
    std::printf("per-layer (traced run: %llu rounds, %zu spans, %llu traced "
                "sessions, %llu traced builds):\n",
                static_cast<unsigned long long>(T.Rounds),
                T.Log.spans().size(),
                static_cast<unsigned long long>(T.Sessions),
                static_cast<unsigned long long>(T.Builds));
    for (const Metric &M : Metrics)
      printMetric(M, "");
    if (!O.TraceOut.empty()) {
      std::string Header = "{\"workload\":\"" + O.Workload +
                           "\",\"seed\":" + std::to_string(O.Seed) +
                           ",\"host\":\"" + hostFacts() + "\"}";
      std::replace(Header.begin() + Header.find("\"host\":\"") + 8,
                   Header.end() - 2, '"', '\'');
      if (T.Log.writeJsonLines(O.TraceOut, Header))
        std::printf("spans written to %s\n", O.TraceOut.c_str());
      else
        std::fprintf(stderr, "wallbench: cannot write %s\n",
                     O.TraceOut.c_str());
    }
  }

  bool Correct = Failed == 0 && Attempted > 0;
  std::printf("%s\n", jsonResult(Correct, Attempted, Failed, Metrics).c_str());
  return Correct ? 0 : 1;
}
