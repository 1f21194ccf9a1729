//===- Workloads.cpp - the benchmark's three workloads --------------------===//
//
// Part of the SoftBound reproduction's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "frontend/Compiler.h"
#include "ir/Verifier.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sb = softbound;

namespace wallbench {

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<size_t> Rng::permutation(size_t N) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[below(I)]);
  return P;
}

namespace {

/// Committed exit codes of the 15 Figure-2 kernels. Each kernel exits with
/// the same code with and without instrumentation.
struct KernelAnswer {
  const char *Name;
  int64_t Exit;
};
const KernelAnswer KernelExits[] = {
    {"go", 250},   {"lbm", -85},       {"hmmer", 66},     {"compress", 79},
    {"ijpeg", 128}, {"bh", 72},        {"tsp", 73},       {"libquantum", 52},
    {"perimeter", 82}, {"health", 181}, {"bisort", 76},   {"mst", 221},
    {"li", 240},   {"em3d", 122},      {"treeadd", 43}};

bool expectedExit(const std::string &Name, int64_t &Out) {
  for (const KernelAnswer &K : KernelExits)
    if (Name == K.Name) {
      Out = K.Exit;
      return true;
    }
  return false;
}

/// The traffic workload's schedules: HTTP and FTP alternating, lengths
/// chosen so that each schedule's sessions form their own cluster of times,
/// at least 25% apart. The median and the 90th percentile then fall in the
/// middle of one schedule's cluster (the third and fifth slowest) rather
/// than in the tail of several overlapping ones.
struct TrafficShape {
  sb::ServerKind Kind;
  unsigned Requests;
};
constexpr TrafficShape TrafficMix[] = {{sb::ServerKind::Http, 5000},
                                       {sb::ServerKind::Ftp, 12000},
                                       {sb::ServerKind::Http, 11000},
                                       {sb::ServerKind::Ftp, 24000},
                                       {sb::ServerKind::Http, 20000}};

/// Traffic drivers in the compile corpus. With the 21 fixed programs the
/// corpus holds 35, so that the median and the 90th percentile of a round
/// fall in the middle of one program's cluster of build times.
constexpr unsigned CorpusDrivers = 14;

sb::PipelinePlan planFor(const std::string &Src, const char *Spec) {
  sb::PipelinePlan P;
  P.frontend(Src);
  if (*Spec)
    P.appendSpec(Spec);
  return P;
}

uint64_t countInsts(const sb::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->size();
  return N;
}

double msSince(Clock::time_point T0) { return nsSince(T0, Clock::now()) / 1e6; }

bool buildFailed(const sb::PipelineResult &R, const std::string &What) {
  if (R.ok())
    return false;
  std::fprintf(stderr, "wallbench: build of %s failed:\n%s", What.c_str(),
               R.errorText().c_str());
  return true;
}

const char *passSpanName(const std::string &Spec) {
  std::string Name = Spec.substr(0, Spec.find('('));
  if (Name == "optimize")
    return "pass.optimize";
  if (Name == "softbound")
    return "pass.softbound";
  if (Name == "checkopt")
    return "pass.checkopt";
  return "pass.other";
}

/// Builds \p Plan. With \p T the build is one traced op: a root span
/// "build" holding "frontend.compile" and "driver.build", the latter with
/// one child span per pass from the timings the pipeline exports.
/// PipelinePlan::build() runs compileC inside and exports no timing for
/// it, so the traced op calls compileC once more on the same source, just
/// before, to time the frontend. An untimed compileC first warms the heap,
/// so that the standalone call and the one inside build() both run warm.
sb::PipelineResult build(const sb::PipelinePlan &Plan, const std::string &Src,
                         TraceRun *T) {
  if (!T)
    return Plan.build();
  sb::compileC(Src);
  uint64_t Op = T->newOp();
  ScopedSpan Root(&T->Log, "build", Op);
  sb::CompileResult CR;
  {
    ScopedSpan F(&T->Log, "frontend.compile", Op, Root.index());
    CR = sb::compileC(Src);
  }
  T->FrontendKB += static_cast<double>(Src.size()) / 1024.0;
  sb::PipelineResult R;
  {
    ScopedSpan B(&T->Log, "driver.build", Op, Root.index());
    R = Plan.build();
    double Start = T->Log.spans()[static_cast<size_t>(B.index())].StartNs;
    for (const sb::PassTiming &P : R.Pipeline.Passes) {
      T->Log.add({passSpanName(P.Pass), Op, B.index(), Start, P.Millis * 1e6,
                  1});
      Start += P.Millis * 1e6;
    }
  }
  ++T->Builds;
  return R;
}

/// Static counts over one program: instructions after each stage of the
/// default pipeline, and the checks softbound inserted and checkopt removed.
void countStaticInto(TraceRun &T, const std::string &Src) {
  const char *const Prefixes[4] = {"", "optimize", "optimize,softbound",
                                   DefaultSpec};
  for (int K = 0; K < 4; ++K) {
    sb::PipelineResult R = planFor(Src, Prefixes[K]).build();
    if (!R.ok())
      continue;
    T.IrInsts[K] += countInsts(*R.M);
    if (K == 3) {
      T.ChecksInserted += R.Pipeline.SB.ChecksInserted;
      // Hoisting can add hull checks, so a program's net removal may be
      // negative.
      const sb::CheckOptStats &C = R.Pipeline.CheckOpt;
      T.ChecksRemoved += static_cast<int64_t>(C.ChecksBefore) -
                         static_cast<int64_t>(C.ChecksAfter);
    }
  }
}

void addTallies(FacilityTallies &Into, const FacilityTallies &From) {
  for (int K = 0; K < FcNumKinds; ++K) {
    Into[K].Calls += From[K].Calls;
    Into[K].Ns += From[K].Ns;
    Into[K].Useful += From[K].Useful;
    Into[K].Bytes += From[K].Bytes;
  }
}

/// Folds one traced session \p B, its wrapper-detached twin \p A and the
/// uninstrumented run \p Plain of program \p Prog into \p T.
void recordSessions(TraceRun &T, const std::string &Prog, const SessionRun &A,
                    const SessionRun &B, const SessionRun &Plain) {
  ++T.Sessions;
  T.Vm.accumulate(B.S.Combined.Counters);
  addTallies(T.Calls, B.ConstructCalls);
  addTallies(T.Calls, B.RunCalls);
  addTallies(T.RunCalls, B.RunCalls);
  T.MemoryMax = std::max(T.MemoryMax, B.FacilityMemory);
  T.RefNs += A.WallNs;
  T.TracedNs += B.WallNs;
  T.RunInstVsPlain[Prog].first += A.RunNs;
  T.RunInstVsPlain[Prog].second += Plain.RunNs;
}

//===----------------------------------------------------------------------===//
// kernels
//===----------------------------------------------------------------------===//

/// The 15 Figure-2 kernels, built once in setup; each operation is one
/// session with the shadow facility, full checking and one lane.
class KernelsWorkload : public WorkloadRunner {
public:
  const char *name() const override { return "kernels"; }
  const char *opName() const override { return "session"; }
  const char *workName() const override { return "sessions"; }

  bool setup(uint64_t Seed, TraceRun *T) override {
    (void)Seed; // The kernels are fixed programs; the seed orders rounds.
    Progs.clear();
    std::vector<sb::Workload> Suite;
    {
      ScopedSpan S(T ? &T->Log : nullptr, "workloads.generate",
                   T ? T->newOp() : 0);
      Suite = sb::benchmarkSuite();
    }
    for (const sb::Workload &W : Suite) {
      Kernel K;
      K.Name = W.Name;
      K.Source = W.Source;
      if (!expectedExit(W.Name, K.Expected)) {
        std::fprintf(stderr, "wallbench: no committed exit code for %s\n",
                     W.Name.c_str());
        return false;
      }
      K.Inst = build(planFor(W.Source, DefaultSpec), W.Source, T);
      K.Plain = planFor(W.Source, "optimize").build();
      if (buildFailed(K.Inst, W.Name) || buildFailed(K.Plain, W.Name))
        return false;
      Progs.push_back(std::move(K));
    }
    return true;
  }

  bool warmUp() override {
    for (Kernel &K : Progs) {
      // The uninstrumented run is the reference every session must equal.
      sb::RunResult Ref = sb::runSession(K.Plain).Combined;
      if (!Ref.ok() || Ref.ExitCode != K.Expected) {
        std::fprintf(stderr,
                     "wallbench: uninstrumented %s exited %lld (%s), "
                     "expected %lld\n",
                     K.Name.c_str(), static_cast<long long>(Ref.ExitCode),
                     sb::trapName(Ref.Trap),
                     static_cast<long long>(K.Expected));
        return false;
      }
      K.RefOutput = Ref.Output;
    }
    for (const Kernel &K : Progs)
      if (wrong(K, sb::runSession(K.Inst).Combined)) {
        std::fprintf(stderr, "wallbench: warm-up session of %s is wrong\n",
                     K.Name.c_str());
        return false;
      }
    return true;
  }

  size_t roundSize() const override { return Progs.size(); }

  OpResult run(size_t I) override {
    const Kernel &K = Progs[I];
    auto T0 = Clock::now();
    sb::SessionResult S = sb::runSession(K.Inst);
    OpResult R;
    R.Ms = msSince(T0);
    R.Work = 1;
    R.Attempted = 1;
    R.Failed = wrong(K, S.Combined);
    return R;
  }

  void trace(size_t I, TraceRun &T) override {
    const Kernel &K = Progs[I];
    SessionRun A = tracedSession(K.Inst, nullptr, 0, false);
    SessionRun B = tracedSession(K.Inst, &T.Log, T.newOp(), true);
    SessionRun Plain = tracedSession(K.Plain, nullptr, 0, false);
    recordSessions(T, K.Name, A, B, Plain);
    T.Attempted += 1;
    T.Failed += wrong(K, A.S.Combined) || wrong(K, B.S.Combined);
  }

  void countStatic(TraceRun &T) override {
    for (const Kernel &K : Progs)
      countStaticInto(T, K.Source);
  }

private:
  struct Kernel {
    std::string Name, Source;
    int64_t Expected = 0;
    sb::PipelineResult Inst, Plain;
    std::string RefOutput;
  };

  static bool wrong(const Kernel &K, const sb::RunResult &R) {
    return !R.ok() || R.ExitCode != K.Expected || R.Output != K.RefOutput;
  }

  std::vector<Kernel> Progs;
};

//===----------------------------------------------------------------------===//
// traffic
//===----------------------------------------------------------------------===//

/// The §6.4 traffic tier: the seeded schedules of TrafficMix, each built
/// once in setup with the vulnerable handlers. Each operation is one
/// session over one schedule.
class TrafficWorkload : public WorkloadRunner {
public:
  const char *name() const override { return "traffic"; }
  const char *opName() const override { return "session"; }
  const char *workName() const override { return "requests"; }

  bool setup(uint64_t Seed, TraceRun *T) override {
    Progs.clear();
    Rng R(Seed);
    SpanLog *Log = T ? &T->Log : nullptr;
    for (const TrafficShape &Shape : TrafficMix) {
      Schedule S;
      sb::TrafficConfig C;
      C.Seed = R.next();
      C.Requests = Shape.Requests;
      uint64_t Op = T ? T->newOp() : 0;
      {
        ScopedSpan G(Log, "workloads.generate", Op);
        S.Sched = sb::TrafficSchedule::generate(Shape.Kind, C);
      }
      {
        ScopedSpan G(Log, "workloads.driver_source", Op);
        S.Source = S.Sched.driverSource(/*Vuln=*/true);
      }
      S.Name = std::string(sb::serverKindName(S.Sched.Kind)) + "-" +
               std::to_string(C.Requests);
      S.Inst = build(planFor(S.Source, DefaultSpec), S.Source, T);
      if (buildFailed(S.Inst, S.Name))
        return false;
      if (T) {
        // Uninstrumented twin for softbound.exec_overhead_x. The attack
        // overflows land in adjacent buffers, so it runs to exit 0.
        S.Plain = planFor(S.Source, "optimize").build();
        if (buildFailed(S.Plain, S.Name))
          return false;
      }
      Progs.push_back(std::move(S));
    }
    return true;
  }

  bool warmUp() override {
    for (const Schedule &S : Progs)
      if (wrongRequests(S, sb::runSession(S.Inst).Combined)) {
        std::fprintf(stderr, "wallbench: warm-up session of %s is wrong\n",
                     S.Name.c_str());
        return false;
      }
    return true;
  }

  size_t roundSize() const override { return Progs.size(); }

  OpResult run(size_t I) override {
    const Schedule &S = Progs[I];
    auto T0 = Clock::now();
    sb::SessionResult Out = sb::runSession(S.Inst);
    OpResult R;
    R.Ms = msSince(T0);
    R.Work = static_cast<double>(S.Sched.Requests.size());
    R.Attempted = S.Sched.Requests.size();
    R.Failed = wrongRequests(S, Out.Combined);
    return R;
  }

  void trace(size_t I, TraceRun &T) override {
    const Schedule &S = Progs[I];
    SessionRun A = tracedSession(S.Inst, nullptr, 0, false);
    SessionRun B = tracedSession(S.Inst, &T.Log, T.newOp(), true);
    SessionRun Plain = tracedSession(S.Plain, nullptr, 0, false);
    recordSessions(T, S.Name, A, B, Plain);
    sb::TrafficReport Rep = report(S, B.S.Combined);
    T.Requests += Rep.Requests;
    T.ReqChecks += Rep.Checks;
    T.ReqMetaOps += Rep.MetaOps;
    T.Attempted += S.Sched.Requests.size();
    T.Failed += std::max(wrongRequests(S, A.S.Combined),
                         wrongRequests(S, B.S.Combined));
  }

  void countStatic(TraceRun &T) override {
    for (const Schedule &S : Progs)
      countStaticInto(T, S.Source);
  }

private:
  struct Schedule {
    std::string Name;
    sb::TrafficSchedule Sched;
    std::string Source;
    sb::PipelineResult Inst, Plain;
  };

  static sb::TrafficReport report(const Schedule &S, const sb::RunResult &R) {
    static const sb::ShadowSpaceMetadata Costs;
    return sb::TrafficReport::fromSamples(S.Sched.Requests, R.Requests,
                                          Costs.lookupCost(),
                                          Costs.updateCost());
  }

  /// Requests with a wrong answer: adversarial requests that did not trap
  /// and benign ones that did. A session that does not run every request
  /// to a clean exit gets every request wrong.
  static uint64_t wrongRequests(const Schedule &S, const sb::RunResult &R) {
    uint64_t N = S.Sched.Requests.size();
    sb::TrafficReport Rep = report(S, R);
    if (!R.ok() || R.ExitCode != 0 || Rep.Requests != N)
      return N;
    return Rep.Missed + Rep.FalseTraps;
  }

  std::vector<Schedule> Progs;
};

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

/// The default pipeline over a seeded corpus, with no execution: the 15
/// kernels, the four BugBench programs, the two single-shot servers, and
/// CorpusDrivers traffic drivers whose lengths are spread evenly over
/// 150..3760 requests with a seeded jitter, so that the size mix, and with
/// it the percentiles, is the same for every seed. Table-3 attack programs
/// are left out: at ~0.15 ms they form a size class of their own whose edge
/// the median fell on.
class CompileWorkload : public WorkloadRunner {
public:
  const char *name() const override { return "compile"; }
  const char *opName() const override { return "build"; }
  const char *workName() const override { return "KB"; }

  bool setup(uint64_t Seed, TraceRun *T) override {
    Items.clear();
    SpanLog *Log = T ? &T->Log : nullptr;
    {
      ScopedSpan G(Log, "workloads.generate", T ? T->newOp() : 0);
      for (const sb::Workload &W : sb::benchmarkSuite())
        add(W.Name, W.Source, true);
      for (const sb::BugCase &B : sb::bugbenchSuite())
        add("bugbench-" + B.Name, B.Source, false);
      add("http-server", sb::httpServerSource(), false);
      add("ftp-server", sb::ftpServerSource(), false);
    }
    Rng R(Seed);
    for (unsigned J = 0; J < CorpusDrivers; ++J) {
      sb::TrafficConfig C;
      C.Seed = R.next();
      C.Requests = 150 + 270 * J + static_cast<unsigned>(R.below(100));
      uint64_t Op = T ? T->newOp() : 0;
      sb::TrafficSchedule S;
      {
        ScopedSpan G(Log, "workloads.generate", Op);
        S = sb::TrafficSchedule::generate(
            J % 2 ? sb::ServerKind::Ftp : sb::ServerKind::Http, C);
      }
      ScopedSpan G(Log, "workloads.driver_source", Op);
      add(std::string("traffic-") + sb::serverKindName(S.Kind) + "-" +
              std::to_string(C.Requests),
          S.driverSource(/*Vuln=*/true), false);
    }
    // Warm-up, and the reference instruction count every later build of
    // the item must reproduce.
    for (Item &It : Items) {
      sb::PipelineResult Ref = build(It.Plan, It.Source, T);
      if (buildFailed(Ref, It.Name) || !sb::verifyModule(*Ref.M).empty())
        return false;
      It.RefInsts = countInsts(*Ref.M);
    }
    return true;
  }

  size_t roundSize() const override { return Items.size(); }

  OpResult run(size_t I) override {
    const Item &It = Items[I];
    auto T0 = Clock::now();
    sb::PipelineResult Out = It.Plan.build();
    OpResult R;
    R.Ms = msSince(T0);
    R.Work = static_cast<double>(It.Source.size()) / 1024.0;
    R.Attempted = 1;
    R.Failed = wrong(It, Out);
    return R;
  }

  void trace(size_t I, TraceRun &T) override {
    const Item &It = Items[I];
    auto T0 = Clock::now();
    sb::PipelineResult Ref = It.Plan.build();
    T.RefNs += nsSince(T0, Clock::now());
    bool Failed = wrong(It, Ref);
    Ref = {}; // Freed before the traced build, as run() frees it.
    size_t Root = T.Log.spans().size();
    sb::PipelineResult Traced = build(It.Plan, It.Source, &T);
    T.TracedNs += T.Log.spans()[Root].DurNs;
    T.Attempted += 1;
    T.Failed += Failed || wrong(It, Traced);
  }

  /// The known answer of a compiler is what its output does: every kernel
  /// in the corpus is built once more, instrumented and not, and both runs
  /// must exit with the committed code and print the same output.
  void finish(TraceRun *T, OpResult &Out) override {
    for (const Item &It : Items) {
      if (!It.Kernel)
        continue;
      int64_t Expected = 0;
      expectedExit(It.Name, Expected);
      sb::PipelineResult Inst = It.Plan.build();
      sb::PipelineResult Plain = planFor(It.Source, "optimize").build();
      ++Out.Attempted;
      if (!Inst.ok() || !Plain.ok()) {
        ++Out.Failed;
        continue;
      }
      SessionRun A = tracedSession(Inst, nullptr, 0, false);
      SessionRun P = tracedSession(Plain, nullptr, 0, false);
      bool Bad = !A.S.ok() || !P.S.ok() || A.S.Combined.ExitCode != Expected ||
                 P.S.Combined.ExitCode != Expected ||
                 A.S.Combined.Output != P.S.Combined.Output;
      if (T) {
        SessionRun B = tracedSession(Inst, &T->Log, T->newOp(), true);
        recordSessions(*T, It.Name, A, B, P);
        Bad |= !B.S.ok() || B.S.Combined.ExitCode != Expected;
      }
      Out.Failed += Bad;
    }
  }

  void countStatic(TraceRun &T) override {
    for (const Item &It : Items)
      countStaticInto(T, It.Source);
  }

private:
  struct Item {
    std::string Name, Source;
    sb::PipelinePlan Plan;
    bool Kernel = false;
    uint64_t RefInsts = 0;
  };

  void add(std::string Name, std::string Source, bool Kernel) {
    Item It;
    It.Name = std::move(Name);
    It.Plan = planFor(Source, DefaultSpec);
    It.Source = std::move(Source);
    It.Kernel = Kernel;
    Items.push_back(std::move(It));
  }

  static bool wrong(const Item &It, const sb::PipelineResult &R) {
    return !R.ok() || !sb::verifyModule(*R.M).empty() ||
           countInsts(*R.M) != It.RefInsts;
  }

  std::vector<Item> Items;
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

std::unique_ptr<WorkloadRunner> makeWorkload(const std::string &Name) {
  if (Name == "kernels")
    return std::make_unique<KernelsWorkload>();
  if (Name == "traffic")
    return std::make_unique<TrafficWorkload>();
  if (Name == "compile")
    return std::make_unique<CompileWorkload>();
  return nullptr;
}

std::vector<Metric> layerMetrics(const TraceRun &T) {
  std::map<std::string, double> Dur, Self;
  std::vector<double> SelfNs = T.Log.selfTimes();
  for (size_t I = 0; I < T.Log.spans().size(); ++I) {
    const Span &S = T.Log.spans()[I];
    Dur[S.Name] += S.DurNs;
    Self[S.Name] += SelfNs[I];
  }
  const TimerCost &C = T.Cost;
  double Builds = static_cast<double>(T.Builds);
  double Sessions = static_cast<double>(T.Sessions);

  // Each timed facility call over-reports its own duration by C.InnerNs
  // and adds C.EmptySpanNs to the span that encloses it.
  uint64_t AllCalls = 0, RunCalls = 0;
  double RunFacilityNs = 0;
  for (int K = 0; K < FcNumKinds; ++K) {
    AllCalls += T.Calls[K].Calls;
    RunCalls += T.RunCalls[K].Calls;
    RunFacilityNs += T.RunCalls[K].Ns - T.RunCalls[K].Calls * C.InnerNs;
  }
  double CtorCalls = static_cast<double>(AllCalls - RunCalls);
  double RunNs = Dur["vm.run"] - RunCalls * C.EmptySpanNs;
  double RunSelfNs = Self["vm.run"] - RunCalls * (C.EmptySpanNs - C.InnerNs);
  auto callNs = [&](FacilityCall K) {
    const FacilityTally &F = T.Calls[K];
    return ratio(F.Ns - F.Calls * C.InnerNs, static_cast<double>(F.Calls));
  };
  auto perSession = [&](double V) { return ratio(V, Sessions); };

  double LogOverhead = 0;
  for (const auto &[Prog, P] : T.RunInstVsPlain)
    LogOverhead += std::log(ratio(P.first, P.second));
  double Programs = static_cast<double>(T.RunInstVsPlain.size());
  double ExecOverhead = Programs ? std::exp(LogOverhead / Programs) : 0.0;

  auto num = [](auto V) { return static_cast<double>(V); };
  const sb::VMCounters &V = T.Vm;
  const FacilityTally &Clears = T.Calls[FcClearRange];
  return {
      {"workloads.gen_ms",
       (Dur["workloads.generate"] + Dur["workloads.driver_source"]) / 1e6,
       "ms"},
      {"frontend.ms_per_kb", ratio(Dur["frontend.compile"] / 1e6, T.FrontendKB),
       "ms/KB"},
      {"opt.ms", ratio(Dur["pass.optimize"] / 1e6, Builds), "ms"},
      {"softbound.ms", ratio(Dur["pass.softbound"] / 1e6, Builds), "ms"},
      {"checkopt.ms", ratio(Dur["pass.checkopt"] / 1e6, Builds), "ms"},
      {"driver.build_self_ms",
       ratio((Self["driver.build"] - Dur["frontend.compile"]) / 1e6, Builds),
       "ms"},
      {"ir.insts.frontend", num(T.IrInsts[0]), "count"},
      {"ir.insts.optimize", num(T.IrInsts[1]), "count"},
      {"ir.insts.softbound", num(T.IrInsts[2]), "count"},
      {"ir.insts.checkopt", num(T.IrInsts[3]), "count"},
      {"checkopt.checks_removed_frac",
       ratio(num(T.ChecksRemoved), num(T.ChecksInserted)), "fraction"},
      {"vm.setup_ms",
       perSession((Dur["vm.construct"] - CtorCalls * C.EmptySpanNs) / 1e6),
       "ms"},
      {"vm.exec_self_ns_per_inst", ratio(RunSelfNs, num(V.Insts)), "ns"},
      {"vm.insts", perSession(num(V.Insts)), "count"},
      {"vm.checks", perSession(num(V.Checks)), "count"},
      {"vm.check_guards", perSession(num(V.CheckGuards)), "count"},
      {"vm.meta_ops", perSession(num(V.MetaLoads + V.MetaStores)), "count"},
      {"vm.calls", perSession(num(V.Calls)), "count"},
      {"vm.sim_cost", perSession(num(V.Cycles)), "count"},
      {"runtime.lookup_ns", callNs(FcLookup), "ns"},
      {"runtime.update_ns", callNs(FcUpdate), "ns"},
      {"runtime.clear_range_ns", callNs(FcClearRange), "ns"},
      {"runtime.lookups", perSession(num(T.Calls[FcLookup].Calls)), "count"},
      {"runtime.updates", perSession(num(T.Calls[FcUpdate].Calls)), "count"},
      {"runtime.clear_ranges", perSession(num(Clears.Calls)), "count"},
      {"runtime.clear_range_bytes", perSession(num(Clears.Bytes)), "bytes"},
      {"runtime.copy_ranges", perSession(num(T.Calls[FcCopyRange].Calls)),
       "count"},
      {"runtime.clear_range_useful_frac",
       ratio(num(Clears.Useful), num(Clears.Calls)), "fraction"},
      {"runtime.share_of_exec", ratio(RunFacilityNs, RunNs), "fraction"},
      {"runtime.memory_bytes", num(T.MemoryMax), "bytes"},
      {"softbound.exec_overhead_x", ExecOverhead, "x"},
      {"traffic.checks_per_request", ratio(num(T.ReqChecks), num(T.Requests)),
       "count"},
      {"traffic.meta_ops_per_request",
       ratio(num(T.ReqMetaOps), num(T.Requests)), "count"},
      {"trace.overhead_frac", ratio(T.TracedNs, T.RefNs) - 1.0, "fraction"},
      {"trace.empty_span_ns", C.EmptySpanNs, "ns"},
  };
}

} // namespace wallbench
