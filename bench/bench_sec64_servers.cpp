//===- bench/bench_sec64_servers.cpp - §6.4 servers under traffic -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §6.4 compatibility study under sustained traffic. Each server
/// (nhttpd-style HTTP, tinyftp-style FTP) is driven through a seeded
/// TrafficSchedule — by default 1000 requests of connection churn, mixed
/// request sizes, and adversarial payloads arriving as ordinary traffic —
/// with every request bracketed by sb_guard/sb_request_end so a contained
/// violation never poisons the requests after it (docs/runtime.md
/// "Traffic tier").
///
/// Gated claims (exit code):
///   * zero missed detections: every adversarial request traps, on every
///     lane, under both full and store-only checking;
///   * zero false traps: benign requests never trap, and an all-benign
///     schedule produces output identical to the uninstrumented run
///     (1-lane gate — lanes share globals, so N-lane output is
///     informational);
///   * per-request costs hold the committed baseline (--baseline): the
///     traffic section of bench/baselines/check_counts.json pins the
///     deterministic 1-lane totals (checks, metadata ops, sim cost) at a
///     pinned request count, which gates checks/request and
///     sim-cost/request exactly.
///
/// Flags:
///   --requests <N>        schedule length per server (default 1000).
///   --seed <S>            schedule seed (default 64).
///   --lanes <N>           N-lane VM session over one shared heap +
///                         facility; detection gates hold per lane.
///   --shards <N>          facility shard count (power of two).
///   --json <path>         machine-readable results, including the
///                         per-request metric keys (checks_per_request,
///                         meta_ops_per_request, sim_cost_per_request)
///                         and the non-gated contention_* group.
///   --baseline <path>     gate traffic totals against the committed
///                         baseline (1-lane only, like fig2's gate).
///   --write-baseline <path>
///                         refresh the baseline's "traffic" section in
///                         place (every other section, including fig2's
///                         workloads, is carried through untouched).
///
/// Multi-lane runs report exit-code divergence instead of gating on it:
/// the drivers count handled/trapped requests in shared globals, so lane
/// exit codes legitimately diverge. The report names the first request
/// index where any lane's trap outcome differs from lane 0's and each
/// lane's handled-request count, so a detection divergence is
/// distinguishable from mere shared-counter racing.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "bench/BenchUtil.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "workloads/Traffic.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace softbound;
using namespace softbound::benchutil;
using benchjson::JsonValue;
using benchjson::JsonWriter;
using benchjson::parseJsonFile;
using benchjson::writeJsonValue;

namespace {

/// The instrumented pipelines of the full and store-only modes.
const char *const FullSpec = "optimize,softbound,checkopt";
const char *const StoreSpec = "optimize,softbound(store-only),checkopt";

/// One instrumented mode (full or store-only) of one server's traffic run.
struct ModeNumbers {
  TrafficReport Rep;          ///< Lane-summed per-request metrics.
  MetadataStats Meta;         ///< Facility stats (contention_* keys).
  double OverheadPct = 0;     ///< Cycles vs the uninstrumented run.
  bool DetectOk = true;       ///< Per-lane: missed == 0, no false traps.
  bool ExitOk = true;         ///< Exit 0 (gated at 1 lane only).
  /// Divergence report (Lanes > 1): first request index where a lane's
  /// trap outcome differs from lane 0's (-1: streams agree), per-lane
  /// handled-request counts, per-lane exit codes.
  long DivergedAt = -1;
  std::vector<uint64_t> LaneHandled;
  std::vector<int64_t> LaneExits;
};

/// Everything measured for one server.
struct ServerNumbers {
  std::string Name; ///< Schedule kind name ("http" / "ftp").
  TrafficSchedule Sched;
  uint64_t PlainCycles = 0;
  bool PlainOk = false;
  ModeNumbers Full, Store;
  bool BenignIdentical = false;
  bool IdentityGated = true; ///< False for multi-lane runs (racy globals).
};

/// Folds one session's lane streams into lane-summed metrics plus the
/// per-lane detection gates and the divergence report.
ModeNumbers foldSession(const SessionResult &S, const TrafficSchedule &Sched,
                        uint64_t PlainCycles, unsigned Lanes) {
  ModeNumbers M;
  M.Meta = S.Meta;
  ShadowSpaceMetadata Costs;
  for (const RunResult &L : S.PerLane) {
    TrafficReport R = TrafficReport::fromSamples(
        Sched.Requests, L.Requests, Costs.lookupCost(), Costs.updateCost());
    M.DetectOk &= R.Missed == 0 && R.FalseTraps == 0 &&
                  R.Trapped == Sched.adversarialCount() &&
                  R.Requests == Sched.Requests.size();
    M.Rep.Requests = R.Requests; // Schedule length, not lane-summed.
    M.Rep.Adversarial = R.Adversarial;
    M.Rep.Trapped += R.Trapped;
    M.Rep.Missed += R.Missed;
    M.Rep.FalseTraps += R.FalseTraps;
    M.Rep.Checks += R.Checks;
    M.Rep.MetaOps += R.MetaOps;
    M.Rep.GuardEvals += R.GuardEvals;
    M.Rep.Cycles += R.Cycles;
    M.Rep.SimCost += R.SimCost;
    M.LaneHandled.push_back(R.Requests - R.Trapped);
    M.LaneExits.push_back(L.ExitCode);
  }
  M.ExitOk = Lanes > 1 || (S.Combined.ok() && S.Combined.ExitCode == 0);
  // Divergence scan: compare every lane's per-request trap kinds against
  // lane 0's (sample 0 is the prologue window; requests start at 1).
  const std::vector<RequestSample> &L0 = S.PerLane.front().Requests;
  for (size_t LI = 1; LI < S.PerLane.size() && M.DivergedAt < 0; ++LI) {
    const std::vector<RequestSample> &LN = S.PerLane[LI].Requests;
    size_t N = std::min(L0.size(), LN.size());
    for (size_t RI = 1; RI < N; ++RI)
      if (L0[RI].Trap != LN[RI].Trap) {
        M.DivergedAt = static_cast<long>(RI - 1); // Request index.
        break;
      }
    if (M.DivergedAt < 0 && L0.size() != LN.size())
      M.DivergedAt = static_cast<long>(N > 0 ? N - 1 : 0);
  }
  M.OverheadPct = overheadPct(S.Combined.Counters.Cycles, PlainCycles);
  return M;
}

/// Emits the baseline "traffic" section: schedule shape plus the gated
/// deterministic 1-lane totals per server.
void emitTrafficSection(JsonWriter &W, const std::vector<ServerNumbers> &All,
                        unsigned Requests, uint64_t Seed) {
  W.beginObject();
  W.kv("requests", static_cast<uint64_t>(Requests));
  W.kv("seed", Seed);
  for (const auto &S : All) {
    W.key(S.Name);
    W.beginObject();
    W.kv("adversarial", static_cast<uint64_t>(S.Sched.adversarialCount()));
    W.kv("checks_full", S.Full.Rep.Checks);
    W.kv("checks_store", S.Store.Rep.Checks);
    W.kv("meta_ops_full", S.Full.Rep.MetaOps);
    W.kv("meta_ops_store", S.Store.Rep.MetaOps);
    W.kv("sim_cost_full", S.Full.Rep.SimCost);
    W.kv("sim_cost_store", S.Store.Rep.SimCost);
    W.endObject();
  }
  W.endObject();
}

/// Rewrites the baseline's "traffic" section in place. The file is shared
/// with bench_fig2_overhead (which owns schema/pipeline/workloads), so it
/// must already exist; every section this bench does not own is carried
/// through via writeJsonValue in document order.
void writeTrafficBaseline(const std::vector<ServerNumbers> &All,
                          unsigned Requests, uint64_t Seed,
                          const std::string &Path) {
  JsonValue Old;
  std::string Err;
  if (!parseJsonFile(Path, Old, Err) || !Old.isObject()) {
    std::fprintf(stderr,
                 "%s: cannot refresh traffic section (%s); the baseline "
                 "file is shared — create it with bench_fig2_overhead "
                 "--write-baseline first\n",
                 Path.c_str(), Err.empty() ? "not an object" : Err.c_str());
    std::exit(1);
  }
  JsonWriter W;
  W.beginObject();
  bool Replaced = false;
  for (const std::string &Key : Old.ObjOrder) {
    W.key(Key);
    if (Key == "traffic") {
      emitTrafficSection(W, All, Requests, Seed);
      Replaced = true;
    } else {
      writeJsonValue(W, Old.Obj.at(Key));
    }
  }
  if (!Replaced) {
    W.key("traffic");
    emitTrafficSection(W, All, Requests, Seed);
  }
  W.endObject();
  if (!W.writeTo(Path)) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote traffic baseline section in %s\n", Path.c_str());
}

/// Gates this run's deterministic traffic totals against the committed
/// baseline. Returns the number of regressions. The totals are taken at
/// the baseline's pinned request count and seed, so a total gate is
/// exactly a per-request gate; a schedule-shape mismatch is an error, not
/// a silent skip.
int compareTrafficBaseline(const std::vector<ServerNumbers> &All,
                           unsigned Requests, uint64_t Seed,
                           const std::string &Path) {
  JsonValue Doc;
  std::string Err;
  if (!parseJsonFile(Path, Doc, Err)) {
    std::fprintf(stderr, "baseline: %s\n", Err.c_str());
    return 1;
  }
  const JsonValue *T = Doc.get("traffic");
  if (!T || !T->isObject()) {
    std::fprintf(stderr,
                 "baseline %s: missing \"traffic\" section (refresh with "
                 "--write-baseline)\n",
                 Path.c_str());
    return 1;
  }
  const JsonValue *BReq = T->get("requests");
  const JsonValue *BSeed = T->get("seed");
  if (!BReq || !BReq->isNumber() || !BSeed || !BSeed->isNumber() ||
      BReq->asInt() != static_cast<int64_t>(Requests) ||
      BSeed->asInt() != static_cast<int64_t>(Seed)) {
    std::fprintf(stderr,
                 "baseline %s: traffic schedule shape mismatch (baseline "
                 "requests=%lld seed=%lld, run requests=%u seed=%llu); pass "
                 "matching --requests/--seed or refresh with "
                 "--write-baseline\n",
                 Path.c_str(),
                 BReq && BReq->isNumber()
                     ? static_cast<long long>(BReq->asInt())
                     : -1LL,
                 BSeed && BSeed->isNumber()
                     ? static_cast<long long>(BSeed->asInt())
                     : -1LL,
                 Requests, static_cast<unsigned long long>(Seed));
    return 1;
  }
  int Regressions = 0;
  std::printf("\n=== traffic bench-regression gate (baseline: %s) ===\n",
              Path.c_str());
  for (const auto &S : All) {
    const JsonValue *Entry = T->get(S.Name);
    if (!Entry || !Entry->isObject()) {
      std::printf("  %-6s UNGATED: not in baseline traffic section "
                  "(refresh with --write-baseline to gate it)\n",
                  S.Name.c_str());
      ++Regressions;
      continue;
    }
    const JsonValue *Adv = Entry->get("adversarial");
    if (Adv && Adv->isNumber() &&
        Adv->asInt() != static_cast<int64_t>(S.Sched.adversarialCount())) {
      std::printf("  %-6s SCHEDULE DRIFT: %u adversarial requests vs "
                  "baseline %lld (generator changed under a pinned seed)\n",
                  S.Name.c_str(), S.Sched.adversarialCount(),
                  static_cast<long long>(Adv->asInt()));
      ++Regressions;
    }
    struct {
      const char *Key;
      uint64_t Now;
    } Rows[] = {{"checks_full", S.Full.Rep.Checks},
                {"checks_store", S.Store.Rep.Checks},
                {"meta_ops_full", S.Full.Rep.MetaOps},
                {"meta_ops_store", S.Store.Rep.MetaOps},
                {"sim_cost_full", S.Full.Rep.SimCost},
                {"sim_cost_store", S.Store.Rep.SimCost}};
    for (const auto &Row : Rows) {
      const JsonValue *Base = Entry->get(Row.Key);
      if (!Base || !Base->isNumber())
        continue; // Not gated in this baseline.
      uint64_t Want = static_cast<uint64_t>(Base->asInt());
      if (Row.Now > Want) {
        std::printf("  %-6s %-14s REGRESSED: %llu > baseline %llu "
                    "(per-request: %.2f > %.2f)\n",
                    S.Name.c_str(), Row.Key,
                    static_cast<unsigned long long>(Row.Now),
                    static_cast<unsigned long long>(Want),
                    static_cast<double>(Row.Now) / Requests,
                    static_cast<double>(Want) / Requests);
        ++Regressions;
      } else if (Row.Now < Want) {
        std::printf("  %-6s %-14s improved: %llu < baseline %llu (refresh "
                    "the baseline to lock in)\n",
                    S.Name.c_str(), Row.Key,
                    static_cast<unsigned long long>(Row.Now),
                    static_cast<unsigned long long>(Want));
      }
    }
  }
  if (Regressions == 0)
    std::printf("  OK: no server regressed its per-request check count or "
                "simulated cost\n");
  return Regressions;
}

/// Prints the multi-lane divergence report for one mode (satellite of the
/// traffic tier: a lane-exit divergence must name the first diverging
/// request and each lane's handled count, so shared-counter racing is
/// distinguishable from a detection difference).
void printDivergence(const std::string &Server, const char *Mode,
                     const ModeNumbers &M) {
  bool ExitsDiverge = false;
  for (int64_t E : M.LaneExits)
    ExitsDiverge |= E != M.LaneExits.front();
  if (!ExitsDiverge && M.DivergedAt < 0)
    return;
  std::printf("warning: %s (%s) lanes diverged: ", Server.c_str(), Mode);
  if (M.DivergedAt >= 0)
    std::printf("first diverging request index %ld; ", M.DivergedAt);
  else
    std::printf("trap streams agree (shared-counter exit racing only); ");
  std::printf("per-lane handled requests:");
  for (uint64_t H : M.LaneHandled)
    std::printf(" %llu", static_cast<unsigned long long>(H));
  std::printf("; per-lane exit codes:");
  for (int64_t E : M.LaneExits)
    std::printf(" %lld", static_cast<long long>(E));
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  unsigned Lanes = 1, Shards = 1, Requests = 1000;
  uint64_t Seed = 64;
  std::string JsonPath, BaselinePath, WriteBaselinePath;
  for (int I = 1; I < argc; ++I) {
    auto NeedArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (std::strcmp(argv[I], "--lanes") == 0)
      Lanes = static_cast<unsigned>(std::atoi(NeedArg("--lanes")));
    else if (std::strcmp(argv[I], "--shards") == 0)
      Shards = static_cast<unsigned>(std::atoi(NeedArg("--shards")));
    else if (std::strcmp(argv[I], "--requests") == 0)
      Requests = static_cast<unsigned>(std::atoi(NeedArg("--requests")));
    else if (std::strcmp(argv[I], "--seed") == 0)
      Seed = std::strtoull(NeedArg("--seed"), nullptr, 10);
    else if (std::strcmp(argv[I], "--json") == 0)
      JsonPath = NeedArg("--json");
    else if (std::strcmp(argv[I], "--baseline") == 0)
      BaselinePath = NeedArg("--baseline");
    else if (std::strcmp(argv[I], "--write-baseline") == 0)
      WriteBaselinePath = NeedArg("--write-baseline");
    else {
      std::fprintf(stderr,
                   "unknown flag '%s' (flags: --requests <N>, --seed <S>, "
                   "--lanes <N>, --shards <N>, --json <path>, "
                   "--baseline <path>, --write-baseline <path>)\n",
                   argv[I]);
      return 2;
    }
  }
  if (Lanes == 0 || Shards == 0 || Requests == 0) {
    std::fprintf(stderr, "--lanes/--shards/--requests require a positive "
                         "count\n");
    return 2;
  }
  if ((!BaselinePath.empty() || !WriteBaselinePath.empty()) && Lanes != 1) {
    // Only 1-lane totals are deterministic (lane scheduling perturbs
    // nothing, but shared-global trip counts in the FTP handler do).
    std::fprintf(stderr,
                 "--baseline/--write-baseline require --lanes 1 (the gated "
                 "totals are the deterministic single-lane ones)\n");
    return 2;
  }

  std::printf("=== §6.4 servers under sustained traffic ===\n");
  std::printf("(%u requests/server, seed %llu, %u lane%s, %u facility "
              "shard%s)\n\n",
              Requests, static_cast<unsigned long long>(Seed), Lanes,
              Lanes == 1 ? "" : "s", Shards, Shards == 1 ? "" : "s");

  TrafficConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Requests = Requests;
  TrafficConfig BenignCfg = Cfg;
  BenignCfg.AttackPerMille = 0;

  RunRequest R;
  R.Lanes = Lanes;
  R.FacilityShards = Shards;

  TablePrinter T({"server", "requests", "attacks", "trapped", "missed",
                  "checks/req", "meta-ops/req", "sim-cost/req",
                  "full overhead %", "store overhead %"});

  std::vector<ServerNumbers> Results;
  bool AllOk = true;
  for (ServerKind K : {ServerKind::Http, ServerKind::Ftp}) {
    ServerNumbers S;
    S.Name = serverKindName(K);
    S.Sched = TrafficSchedule::generate(K, Cfg);
    std::string Src = S.Sched.driverSource(/*Vuln=*/true);

    // Uninstrumented cycle baseline. The attacks' overflows land in
    // adjacent buffers by construction, so the plain run is
    // deterministic and exits 0 at one lane.
    Measurement MP = measure(mustBuild(Src, "optimize"), R);
    S.PlainCycles = MP.R.Counters.Cycles;
    S.PlainOk = MP.R.ok() && (Lanes > 1 || MP.R.ExitCode == 0);

    SessionResult Full = runSession(mustBuild(Src, FullSpec), R);
    S.Full = foldSession(Full, S.Sched, S.PlainCycles, Lanes);

    SessionResult Store = runSession(mustBuild(Src, StoreSpec), R);
    S.Store = foldSession(Store, S.Sched, S.PlainCycles, Lanes);

    // The §6.4 no-false-positive claim under traffic: an all-benign
    // schedule, bug compiled out, runs byte-identically under full
    // checking. Gated at one lane (lanes share the global segment).
    TrafficSchedule Benign = TrafficSchedule::generate(K, BenignCfg);
    std::string BenignSrc = Benign.driverSource(/*Vuln=*/false);
    Measurement BP = measure(mustBuild(BenignSrc, "optimize"), R);
    Measurement BFull = measure(mustBuild(BenignSrc, FullSpec), R);
    S.BenignIdentical = BFull.R.Output == BP.R.Output &&
                        (Lanes > 1 || BFull.R.ExitCode == BP.R.ExitCode);
    S.IdentityGated = Lanes == 1;

    AllOk &= S.PlainOk;
    AllOk &= S.Full.DetectOk && S.Full.ExitOk;
    AllOk &= S.Store.DetectOk && S.Store.ExitOk;
    AllOk &= S.BenignIdentical || !S.IdentityGated;

    T.addRow({S.Name, std::to_string(S.Sched.Requests.size()),
              std::to_string(S.Sched.adversarialCount()),
              std::to_string(S.Full.Rep.Trapped),
              std::to_string(S.Full.Rep.Missed),
              TablePrinter::fmt(S.Full.Rep.checksPerRequest(), 1),
              TablePrinter::fmt(S.Full.Rep.metaOpsPerRequest(), 1),
              TablePrinter::fmt(S.Full.Rep.simCostPerRequest(), 1),
              TablePrinter::fmt(S.Full.OverheadPct, 1),
              TablePrinter::fmt(S.Store.OverheadPct, 1)});
    Results.push_back(std::move(S));
  }
  T.print();
  std::printf("(trapped/missed are lane-summed full-checking outcomes; "
              "per-request costs are full-checking, all lanes)\n");

  for (const auto &S : Results) {
    if (!S.Full.DetectOk || !S.Store.DetectOk)
      std::printf("DETECTION GATE FAILED: %s missed or false-trapped "
                  "requests (full: %llu missed/%llu false, store: %llu "
                  "missed/%llu false)\n",
                  S.Name.c_str(),
                  static_cast<unsigned long long>(S.Full.Rep.Missed),
                  static_cast<unsigned long long>(S.Full.Rep.FalseTraps),
                  static_cast<unsigned long long>(S.Store.Rep.Missed),
                  static_cast<unsigned long long>(S.Store.Rep.FalseTraps));
    if (S.IdentityGated && !S.BenignIdentical)
      std::printf("IDENTITY GATE FAILED: %s benign traffic output differs "
                  "under full checking\n",
                  S.Name.c_str());
    if (Lanes > 1) {
      printDivergence(S.Name, "full", S.Full);
      printDivergence(S.Name, "store", S.Store);
    }
  }

  // The classic single-shot claim, kept from the pre-traffic bench: the
  // vulnerable query-copy variant is stopped in store-only mode.
  RunRequest RV;
  RV.Args = {1};
  RunResult V =
      runSession(mustBuild(httpServerSource(), StoreSpec), RV).Combined;
  std::printf("\nvulnerable query-copy variant under store-only checking: "
              "%s (paper: store-only stops all such attacks)\n",
              V.violationDetected() ? "stopped" : "MISSED");
  AllOk &= V.violationDetected();

  if (!JsonPath.empty()) {
    JsonWriter W;
    W.beginObject();
    W.kv("schema", "softbound-bench-sec64-v2");
    W.kv("lanes", static_cast<uint64_t>(Lanes));
    W.kv("shards", static_cast<uint64_t>(Shards));
    W.kv("requests", static_cast<uint64_t>(Requests));
    W.kv("seed", Seed);
    W.key("servers");
    W.beginObject();
    for (const auto &S : Results) {
      W.key(S.Name);
      W.beginObject();
      W.kv("requests", static_cast<uint64_t>(S.Sched.Requests.size()));
      W.kv("adversarial", static_cast<uint64_t>(S.Sched.adversarialCount()));
      W.kv("plain_ok", S.PlainOk);
      W.kv("full_ok", S.Full.DetectOk && S.Full.ExitOk);
      W.kv("store_ok", S.Store.DetectOk && S.Store.ExitOk);
      W.kv("trapped_full", S.Full.Rep.Trapped);
      W.kv("missed_full", S.Full.Rep.Missed);
      W.kv("false_traps_full", S.Full.Rep.FalseTraps);
      W.kv("trapped_store", S.Store.Rep.Trapped);
      W.kv("missed_store", S.Store.Rep.Missed);
      W.kv("false_traps_store", S.Store.Rep.FalseTraps);
      W.kv("benign_output_identical", S.BenignIdentical);
      W.kv("benign_identity_gated", S.IdentityGated);
      W.kv("full_overhead_pct", S.Full.OverheadPct);
      W.kv("store_overhead_pct", S.Store.OverheadPct);
      // Gated totals (1-lane) and their per-request projections.
      W.kv("checks_full", S.Full.Rep.Checks);
      W.kv("checks_store", S.Store.Rep.Checks);
      W.kv("meta_ops_full", S.Full.Rep.MetaOps);
      W.kv("meta_ops_store", S.Store.Rep.MetaOps);
      W.kv("sim_cost_full", S.Full.Rep.SimCost);
      W.kv("sim_cost_store", S.Store.Rep.SimCost);
      W.kv("checks_per_request", S.Full.Rep.checksPerRequest());
      W.kv("meta_ops_per_request", S.Full.Rep.metaOpsPerRequest());
      W.kv("sim_cost_per_request", S.Full.Rep.simCostPerRequest());
      W.kv("checks_per_request_store", S.Store.Rep.checksPerRequest());
      W.kv("meta_ops_per_request_store", S.Store.Rep.metaOpsPerRequest());
      W.kv("sim_cost_per_request_store", S.Store.Rep.simCostPerRequest());
      // Divergence report (single-lane runs: one entry, never diverged).
      W.kv("diverged_request_index", static_cast<int64_t>(S.Full.DivergedAt));
      W.key("lane_handled_requests");
      W.beginArray();
      for (uint64_t H : S.Full.LaneHandled)
        W.value(H);
      W.endArray();
      W.key("lane_exit_codes");
      W.beginArray();
      for (int64_t E : S.Full.LaneExits)
        W.value(E);
      W.endArray();
      // Non-gated contention group (full-checking run's facility).
      W.kv("contention_lock_acquires", S.Full.Meta.LockAcquires);
      W.kv("contention_lock_contended", S.Full.Meta.LockContended);
      W.kv("contention_seqlock_reads", S.Full.Meta.SeqlockReads);
      W.kv("contention_seqlock_retries", S.Full.Meta.SeqlockRetries);
      W.kv("contention_sim_cost", S.Full.Meta.contentionSimCost());
      W.endObject();
    }
    W.endObject();
    W.kv("vulnerable_variant_stopped", V.violationDetected());
    W.endObject();
    if (!W.writeTo(JsonPath)) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  if (!WriteBaselinePath.empty())
    writeTrafficBaseline(Results, Requests, Seed, WriteBaselinePath);
  int Regressions = BaselinePath.empty() ? 0
                                         : compareTrafficBaseline(
                                               Results, Requests, Seed,
                                               BaselinePath);

  return AllOk && Regressions == 0 ? 0 : 1;
}
