//===- frontend/Lexer.cpp - mini-C lexer ------------------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <map>

using namespace softbound;

namespace {

const std::map<std::string, Tok> Keywords = {
    {"void", Tok::KwVoid},       {"char", Tok::KwChar},
    {"short", Tok::KwShort},     {"int", Tok::KwInt},
    {"long", Tok::KwLong},       {"unsigned", Tok::KwUnsigned},
    {"struct", Tok::KwStruct},   {"union", Tok::KwUnion},
    {"if", Tok::KwIf},           {"else", Tok::KwElse},
    {"while", Tok::KwWhile},     {"for", Tok::KwFor},
    {"do", Tok::KwDo},           {"return", Tok::KwReturn},
    {"break", Tok::KwBreak},     {"continue", Tok::KwContinue},
    {"sizeof", Tok::KwSizeof},   {"NULL", Tok::KwNull},
};

/// Decodes one (possibly escaped) character starting at Src[I]; advances I.
int decodeChar(const std::string &Src, size_t &I) {
  char C = Src[I++];
  if (C != '\\')
    return static_cast<unsigned char>(C);
  char E = I < Src.size() ? Src[I++] : 0;
  switch (E) {
  case 'n':
    return '\n';
  case 't':
    return '\t';
  case 'r':
    return '\r';
  case '0':
    return 0;
  case '\\':
    return '\\';
  case '\'':
    return '\'';
  case '"':
    return '"';
  default:
    return static_cast<unsigned char>(E);
  }
}

} // namespace

Lexer::Lexer(const std::string &Source) { lex(Source); }

void Lexer::lex(const std::string &Src) {
  size_t I = 0;
  int Line = 1;
  auto Push = [&](Tok K) {
    Token T;
    T.Kind = K;
    T.Line = Line;
    Tokens.push_back(std::move(T));
  };

  while (I < Src.size()) {
    char C = Src[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    // Comments.
    if (C == '/' && I + 1 < Src.size() && Src[I + 1] == '/') {
      while (I < Src.size() && Src[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < Src.size() && Src[I + 1] == '*') {
      I += 2;
      while (I + 1 < Src.size() && !(Src[I] == '*' && Src[I + 1] == '/')) {
        if (Src[I] == '\n')
          ++Line;
        ++I;
      }
      I += 2;
      continue;
    }
    // Identifiers and keywords.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[I])) ||
              Src[I] == '_'))
        ++I;
      std::string Word = Src.substr(Start, I - Start);
      auto It = Keywords.find(Word);
      if (It != Keywords.end()) {
        Push(It->second);
      } else {
        Token T;
        T.Kind = Tok::Ident;
        T.Text = std::move(Word);
        T.Line = Line;
        Tokens.push_back(std::move(T));
      }
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(C))) {
      // Accumulate unsigned: a literal past 2^64 wraps instead of
      // overflowing a signed value.
      uint64_t Val = 0;
      if (C == '0' && I + 1 < Src.size() &&
          (Src[I + 1] == 'x' || Src[I + 1] == 'X')) {
        I += 2;
        while (I < Src.size() &&
               std::isxdigit(static_cast<unsigned char>(Src[I]))) {
          char D = Src[I++];
          Val = Val * 16 + (std::isdigit(static_cast<unsigned char>(D))
                                ? D - '0'
                                : std::tolower(D) - 'a' + 10);
        }
      } else {
        while (I < Src.size() &&
               std::isdigit(static_cast<unsigned char>(Src[I])))
          Val = Val * 10 + (Src[I++] - '0');
      }
      // Optional L/U suffixes are accepted and ignored.
      while (I < Src.size() && (Src[I] == 'L' || Src[I] == 'l' ||
                                Src[I] == 'U' || Src[I] == 'u'))
        ++I;
      Token T;
      T.Kind = Tok::IntLit;
      T.IntVal = static_cast<int64_t>(Val);
      T.Line = Line;
      Tokens.push_back(std::move(T));
      continue;
    }
    // String literal.
    if (C == '"') {
      ++I;
      std::string S;
      while (I < Src.size() && Src[I] != '"')
        S.push_back(static_cast<char>(decodeChar(Src, I)));
      if (I >= Src.size()) {
        Error = "line " + std::to_string(Line) + ": unterminated string";
        return;
      }
      ++I;
      Token T;
      T.Kind = Tok::StrLit;
      T.Text = std::move(S);
      T.Line = Line;
      Tokens.push_back(std::move(T));
      continue;
    }
    // Char literal.
    if (C == '\'') {
      ++I;
      int V = decodeChar(Src, I);
      if (I >= Src.size() || Src[I] != '\'') {
        Error = "line " + std::to_string(Line) + ": bad char literal";
        return;
      }
      ++I;
      Token T;
      T.Kind = Tok::CharLit;
      T.IntVal = V;
      T.Line = Line;
      Tokens.push_back(std::move(T));
      continue;
    }
    // Punctuators, longest match first.
    auto Match = [&](const char *S, Tok K) {
      size_t N = std::char_traits<char>::length(S);
      if (Src.compare(I, N, S) != 0)
        return false;
      I += N;
      Push(K);
      return true;
    };
    if (Match("...", Tok::Ellipsis) || Match("<<=", Tok::ShlAssign) ||
        Match(">>=", Tok::ShrAssign) || Match("->", Tok::Arrow) ||
        Match("++", Tok::PlusPlus) || Match("--", Tok::MinusMinus) ||
        Match("<<", Tok::Shl) || Match(">>", Tok::Shr) ||
        Match("<=", Tok::Le) || Match(">=", Tok::Ge) ||
        Match("==", Tok::EqEq) || Match("!=", Tok::NotEq) ||
        Match("&&", Tok::AmpAmp) || Match("||", Tok::PipePipe) ||
        Match("+=", Tok::PlusAssign) || Match("-=", Tok::MinusAssign) ||
        Match("*=", Tok::StarAssign) || Match("/=", Tok::SlashAssign) ||
        Match("%=", Tok::PercentAssign) || Match("&=", Tok::AmpAssign) ||
        Match("|=", Tok::PipeAssign) || Match("^=", Tok::CaretAssign) ||
        Match("(", Tok::LParen) || Match(")", Tok::RParen) ||
        Match("{", Tok::LBrace) || Match("}", Tok::RBrace) ||
        Match("[", Tok::LBracket) || Match("]", Tok::RBracket) ||
        Match(";", Tok::Semi) || Match(",", Tok::Comma) ||
        Match(".", Tok::Dot) || Match("?", Tok::Question) ||
        Match(":", Tok::Colon) || Match("=", Tok::Assign) ||
        Match("+", Tok::Plus) || Match("-", Tok::Minus) ||
        Match("*", Tok::Star) || Match("/", Tok::Slash) ||
        Match("%", Tok::Percent) || Match("&", Tok::Amp) ||
        Match("|", Tok::Pipe) || Match("^", Tok::Caret) ||
        Match("~", Tok::Tilde) || Match("!", Tok::Bang) ||
        Match("<", Tok::Lt) || Match(">", Tok::Gt))
      continue;

    Error = "line " + std::to_string(Line) + ": unexpected character '" +
            std::string(1, C) + "'";
    return;
  }
  Push(Tok::End);
}
