//===- support/Telemetry.cpp - counters, histograms, trace export ----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <cstdio>

using namespace softbound;

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control bytes);
/// event names are function/pass names so this is rarely exercised.
std::string escaped(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out;
}

} // namespace

std::string Telemetry::chromeTraceJson() const {
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  for (const auto &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":\"" + escaped(E.Name) + "\",\"cat\":\"" +
           escaped(E.Cat) + "\",\"ph\":\"X\",\"ts\":" +
           std::to_string(E.TsMicros) + ",\"dur\":" +
           std::to_string(E.DurMicros) + ",\"pid\":1,\"tid\":" +
           std::to_string(E.Tid) + "}";
  }
  Out += "],\"displayTimeUnit\":\"ms\",\"droppedEvents\":" +
         std::to_string(Dropped) + "}\n";
  return Out;
}

bool Telemetry::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string S = chromeTraceJson();
  size_t Written = std::fwrite(S.data(), 1, S.size(), F);
  return std::fclose(F) == 0 && Written == S.size();
}
