//===- workloads/Traffic.cpp - sustained-traffic request harness ------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schedule generation and driver emission for the traffic tier. The
/// generated driver embeds the unmodified handler fragment, so the code
/// under measurement is byte-identical to the single-shot §6.4 studies;
/// only the main loop differs (request tables + sb_guard windows).
///
//===----------------------------------------------------------------------===//

#include "workloads/Traffic.h"

#include "support/RNG.h"
#include "workloads/Workloads.h"

#include <cassert>

using namespace softbound;

const char *softbound::serverKindName(ServerKind K) {
  return K == ServerKind::Http ? "http" : "ftp";
}

namespace {

/// Benign request pools. Everything is printable ASCII with no quote or
/// backslash characters, so driver emission needs no string escaping.
/// HTTP note: under g_vuln the handler strcpy()s everything after `?`
/// (trailing " HTTP/1.0" included) into query[32], so benign queries keep
/// that remainder under 32 characters — benign traffic must stay benign
/// even with the bug compiled in.
const char *HttpPool[] = {
    "GET / HTTP/1.0",
    "GET /index.html HTTP/1.0",
    "GET /images/logo.png HTTP/1.0",
    "GET /cgi-bin/form?name=bob HTTP/1.0",
    "GET /search?q=ok HTTP/1.0",
    "POST /upload HTTP/1.0",
    "PUT /x HTTP/1.0",
    "GET /a/very/deep/path/with/segments/file.txt HTTP/1.0",
};

const char *FtpUserPool[] = {"USER alice", "USER bob", "USER carol"};

const char *FtpCmdPool[] = {
    "SYST",
    "PWD",
    "CWD /pub/files",
    "CWD ..",
    "CWD data",
    "LIST",
    "RETR readme.txt",
    "RETR data/archive2024.tar",
    "NOOP",
};

template <size_t N> const char *pick(RNG &R, const char *(&Pool)[N]) {
  return Pool[R.below(N)];
}

/// An HTTP attack: the query remainder (everything after `?`, trailing
/// " HTTP/1.0" included) is 47..79 characters — past query[32], inside
/// query+path (96 bytes), so the unchecked overflow stays deterministic.
std::string httpAttack(RNG &R) {
  std::string Pad(32 + R.below(33), static_cast<char>('A' + R.below(26)));
  return "GET /cgi-bin/form?token=" + Pad + " HTTP/1.0";
}

/// An FTP attack: a 20..48-character USER name overflows uname[16] into
/// the adjacent 64-byte scratch buffer (deterministic when unchecked).
std::string ftpAttack(RNG &R) {
  std::string Name(20 + R.below(29), static_cast<char>('a' + R.below(26)));
  return "USER " + Name;
}

} // namespace

TrafficSchedule TrafficSchedule::generate(ServerKind K,
                                          const TrafficConfig &C) {
  assert(C.Requests > 0 && C.SessionMin > 0 && C.SessionMax >= C.SessionMin);
  TrafficSchedule S;
  S.Kind = K;
  S.Config = C;
  RNG R(C.Seed ^ (K == ServerKind::Http ? 0x48545450ULL : 0x46545021ULL));
  auto Attack = [&] { return R.below(1000) < C.AttackPerMille; };
  while (S.Requests.size() < C.Requests) {
    unsigned Len = static_cast<unsigned>(
        C.SessionMin + R.below(C.SessionMax - C.SessionMin + 1));
    // FTP sessions mostly log in first; 1-in-8 sessions skip the login
    // and exercise the 530 path on every later command.
    bool Login = R.below(8) != 0;
    for (unsigned I = 0; I < Len && S.Requests.size() < C.Requests; ++I) {
      TrafficRequest Q;
      Q.ConnStart = I == 0;
      if (Attack()) {
        Q.Adversarial = true;
        Q.Text = K == ServerKind::Http ? httpAttack(R) : ftpAttack(R);
      } else if (K == ServerKind::Http) {
        Q.Text = pick(R, HttpPool);
      } else if (I == 0 && Login) {
        Q.Text = pick(R, FtpUserPool);
      } else if (I == 1 && Login) {
        Q.Text = "PASS hunter2";
      } else if (I + 1 == Len && R.below(2) == 0) {
        Q.Text = "QUIT";
      } else {
        Q.Text = pick(R, FtpCmdPool);
      }
      S.Requests.push_back(std::move(Q));
    }
  }
  return S;
}

unsigned TrafficSchedule::adversarialCount() const {
  unsigned N = 0;
  for (const auto &Q : Requests)
    N += Q.Adversarial;
  return N;
}

std::string TrafficSchedule::driverSource(bool Vuln) const {
  return trafficDriverSource(Kind, Requests, Vuln);
}

std::string
softbound::trafficDriverSource(ServerKind K,
                               const std::vector<TrafficRequest> &Requests,
                               bool Vuln) {
  assert(!Requests.empty());
  std::string Src =
      K == ServerKind::Http ? httpHandlerSource() : ftpHandlerSource();
  std::string N = std::to_string(Requests.size());

  Src += "\nchar* g_t_reqs[" + N + "] = {\n";
  for (size_t I = 0; I < Requests.size(); ++I)
    Src += "  \"" + Requests[I].Text + "\"" +
           (I + 1 < Requests.size() ? ",\n" : "\n");
  Src += "};\n\nint g_t_conn[" + N + "] = {";
  for (size_t I = 0; I < Requests.size(); ++I)
    Src += (I ? "," : "") + std::string(Requests[I].ConnStart ? "1" : "0");
  Src += "};\n\nlong g_t_handled;\nlong g_t_trapped;\n";

  Src += "\nint main() {\n";
  Src += std::string("  g_vuln = ") + (Vuln ? "1" : "0") + ";\n";
  if (K == ServerKind::Ftp)
    Src += "  g_cwd[0] = '/';\n  g_cwd[1] = 0;\n";
  // Close the prologue window (sample 0) so request samples start clean.
  Src += "  sb_request_end();\n";
  Src += "  for (int i = 0; i < " + N + "; i++) {\n";
  Src += "    if (g_t_conn[i] != 0) {\n";
  if (K == ServerKind::Ftp)
    Src += "      g_loggedin = 0;\n      g_cwd[0] = '/';\n      g_cwd[1] = "
           "0;\n";
  Src += "      g_conns = g_conns + 1;\n    }\n";
  Src += "    int rc = sb_guard();\n";
  Src += "    if (rc == 0) {\n";
  if (K == ServerKind::Http)
    Src += "      g_handled += handle(g_t_reqs[i]);\n";
  else
    Src += "      handle(g_t_reqs[i]);\n";
  Src += "      g_t_handled = g_t_handled + 1;\n";
  Src += "    } else {\n      g_t_trapped = g_t_trapped + 1;\n    }\n";
  Src += "    sb_request_end();\n  }\n";
  Src += "  if (g_t_handled + g_t_trapped == " + N + ") return 0;\n";
  Src += "  return 1;\n}\n";
  return Src;
}

TrafficReport
TrafficReport::fromSamples(const std::vector<TrafficRequest> &Reqs,
                           const std::vector<RequestSample> &Samples,
                           uint64_t LookupCost, uint64_t UpdateCost,
                           uint64_t CheckCost) {
  TrafficReport Rep;
  // Streams from the generated drivers carry one leading prologue
  // sample; tolerate its absence so hand-built streams fold too.
  size_t Skip = Samples.size() == Reqs.size() + 1 ? 1 : 0;
  size_t N = Samples.size() - Skip;
  if (N > Reqs.size())
    N = Reqs.size();
  Rep.Requests = N;
  for (size_t I = 0; I < N; ++I) {
    const RequestSample &S = Samples[Skip + I];
    bool Adv = Reqs[I].Adversarial;
    bool Trapped = S.Trap != TrapKind::None;
    Rep.Adversarial += Adv;
    Rep.Trapped += Trapped;
    Rep.Missed += Adv && !Trapped;
    Rep.FalseTraps += !Adv && Trapped;
    Rep.Checks += S.Delta.Checks;
    Rep.MetaOps += S.Delta.MetaLoads + S.Delta.MetaStores;
    Rep.GuardEvals += S.Delta.CheckGuards;
    Rep.Cycles += S.Delta.Cycles;
    Rep.SimCost += S.Delta.checkingCost(LookupCost, UpdateCost, CheckCost);
  }
  return Rep;
}
