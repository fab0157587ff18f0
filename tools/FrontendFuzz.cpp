//===-- tools/FrontendFuzz.cpp - Front-end differential oracle -------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "FrontendFuzz.h"

#include "analysis/StaticAnalysis.h"
#include "gen/RandomProgram.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/Diagnostic.h"
#include "support/RNG.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

using namespace eoe;
using namespace eoe::lang;
using eoe::fuzz::FrontendTally;

namespace {

//===----------------------------------------------------------------------===//
// Reference lexer
//===----------------------------------------------------------------------===//

struct RefToken {
  TokenKind Kind = TokenKind::EndOfFile;
  SourceLoc Loc;
  std::string Text;
  int64_t Value = 0;
};

/// Lexes one character at a time: <cctype> classes, a string that grows
/// by one append per identifier byte, and one comparison per keyword.
/// Literals above INT64_MAX are an error, detected by checked arithmetic.
class RefLexer {
public:
  RefLexer(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  std::vector<RefToken> lexAll() {
    std::vector<RefToken> Tokens;
    while (true) {
      RefToken T = next();
      bool Done = T.Kind == TokenKind::EndOfFile;
      Tokens.push_back(std::move(T));
      if (Done)
        return Tokens;
    }
  }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }
  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }
  bool atEnd() const { return Pos >= Source.size(); }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (std::isspace(static_cast<unsigned char>(C))) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n')
          advance();
        continue;
      }
      return;
    }
  }

  RefToken lexIdentifierOrKeyword(SourceLoc Loc) {
    std::string Text;
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Text += advance();
    static const std::pair<const char *, TokenKind> Keywords[] = {
        {"var", TokenKind::KwVar},           {"fn", TokenKind::KwFn},
        {"if", TokenKind::KwIf},             {"else", TokenKind::KwElse},
        {"while", TokenKind::KwWhile},       {"break", TokenKind::KwBreak},
        {"continue", TokenKind::KwContinue}, {"return", TokenKind::KwReturn},
        {"print", TokenKind::KwPrint},       {"input", TokenKind::KwInput}};
    RefToken T;
    T.Kind = TokenKind::Identifier;
    for (const auto &[Spelling, Kind] : Keywords)
      if (Text == Spelling)
        T.Kind = Kind;
    T.Loc = Loc;
    T.Text = std::move(Text);
    return T;
  }

  RefToken lexNumber(SourceLoc Loc) {
    int64_t Value = 0;
    bool TooLarge = false;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
      int64_t Digit = advance() - '0';
      if (!TooLarge && (__builtin_mul_overflow(Value, 10, &Value) ||
                        __builtin_add_overflow(Value, Digit, &Value)))
        TooLarge = true;
    }
    RefToken T;
    T.Kind = TokenKind::IntLiteral;
    T.Loc = Loc;
    T.Value = Value;
    if (TooLarge) {
      Diags.error(Loc, "integer literal too large");
      T.Kind = TokenKind::Unknown;
      T.Value = 0;
    }
    return T;
  }

  RefToken lexCharLiteral(SourceLoc Loc) {
    RefToken T;
    T.Kind = TokenKind::IntLiteral;
    T.Loc = Loc;
    if (atEnd()) {
      Diags.error(Loc, "unterminated character literal");
      T.Kind = TokenKind::Unknown;
      return T;
    }
    char C = advance();
    if (C == '\\' && !atEnd()) {
      char Esc = advance();
      switch (Esc) {
      case 'n':
        C = '\n';
        break;
      case 't':
        C = '\t';
        break;
      case '0':
        C = '\0';
        break;
      case '\\':
        C = '\\';
        break;
      case '\'':
        C = '\'';
        break;
      default:
        Diags.error(Loc, std::string("unknown escape '\\") + Esc + "'");
        break;
      }
    }
    T.Value = static_cast<unsigned char>(C);
    if (atEnd() || advance() != '\'') {
      Diags.error(Loc, "expected closing ' in character literal");
      T.Kind = TokenKind::Unknown;
    }
    return T;
  }

  RefToken next() {
    skipTrivia();
    SourceLoc Loc{Line, Col};
    RefToken T;
    T.Loc = Loc;
    if (atEnd())
      return T;
    char C = peek();
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
      return lexIdentifierOrKeyword(Loc);
    if (std::isdigit(static_cast<unsigned char>(C)))
      return lexNumber(Loc);
    advance();
    static const std::pair<char, TokenKind> Singles[] = {
        {'(', TokenKind::LParen},    {')', TokenKind::RParen},
        {'{', TokenKind::LBrace},    {'}', TokenKind::RBrace},
        {'[', TokenKind::LBracket},  {']', TokenKind::RBracket},
        {';', TokenKind::Semicolon}, {',', TokenKind::Comma},
        {'+', TokenKind::Plus},      {'-', TokenKind::Minus},
        {'*', TokenKind::Star},      {'/', TokenKind::Slash},
        {'%', TokenKind::Percent}};
    // Each two-byte operator: its first byte, the kind with '=' (or the
    // doubled byte) after it, and the kind alone (Unknown: none).
    static const struct {
      char First, Second;
      TokenKind Pair, Alone;
    } Pairs[] = {{'=', '=', TokenKind::EqEq, TokenKind::Assign},
                 {'!', '=', TokenKind::NotEq, TokenKind::Bang},
                 {'<', '=', TokenKind::LessEq, TokenKind::Less},
                 {'>', '=', TokenKind::GreaterEq, TokenKind::Greater},
                 {'&', '&', TokenKind::AmpAmp, TokenKind::Unknown},
                 {'|', '|', TokenKind::PipePipe, TokenKind::Unknown}};
    if (C == '\'')
      return lexCharLiteral(Loc);
    for (const auto &[Byte, Kind] : Singles)
      if (C == Byte) {
        T.Kind = Kind;
        return T;
      }
    for (const auto &P : Pairs) {
      if (C != P.First)
        continue;
      if (peek() == P.Second) {
        advance();
        T.Kind = P.Pair;
        return T;
      }
      if (P.Alone != TokenKind::Unknown) {
        T.Kind = P.Alone;
        return T;
      }
    }
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    T.Kind = TokenKind::Unknown;
    return T;
  }

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
};

/// The first difference between the lexer's tokens and the reference's,
/// or "" when they agree. Text must also view \p Src.
std::string tokenDifference(std::string_view Src, const std::vector<Token> &Got,
                            const std::vector<RefToken> &Want) {
  if (Got.size() != Want.size())
    return "token count " + std::to_string(Got.size()) + ", reference " +
           std::to_string(Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    const Token &G = Got[I];
    const RefToken &W = Want[I];
    if (G.Kind != W.Kind || G.Text != W.Text || G.Value != W.Value ||
        !(G.Loc == W.Loc))
      return "token " + std::to_string(I) + ": " + tokenKindName(G.Kind) +
             " '" + std::string(G.Text) + "' = " + std::to_string(G.Value) +
             " at " + std::to_string(G.Loc.Line) + ":" +
             std::to_string(G.Loc.Col) + ", reference " +
             tokenKindName(W.Kind) + " '" + W.Text +
             "' = " + std::to_string(W.Value) + " at " +
             std::to_string(W.Loc.Line) + ":" + std::to_string(W.Loc.Col);
    if (!G.Text.empty() &&
        (G.Text.data() < Src.data() ||
         G.Text.data() + G.Text.size() > Src.data() + Src.size()))
      return "token " + std::to_string(I) + "'s text is not in the source";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Reference resolver
//===----------------------------------------------------------------------===//

/// A variable as the resolver identifies it: by its declaring statement,
/// or for a parameter by its function and name.
struct DeclKey {
  StmtId Decl = InvalidId;
  FuncId Func = InvalidId;
  std::string Param;
  auto operator<=>(const DeclKey &) const = default;
};

std::string describe(const DeclKey &K) {
  if (isValidId(K.Decl))
    return "declaration " + std::to_string(K.Decl);
  if (isValidId(K.Func))
    return "parameter '" + K.Param + "' of function " + std::to_string(K.Func);
  return "nothing";
}

/// Sema's checks over one std::map per scope. It reads the AST without
/// changing it and records what each name-bearing node binds to and the
/// slot layout Sema should produce.
class RefResolver {
public:
  struct Var {
    DeclKey Key;
    uint32_t Slot = 0;
    int64_t ArraySize = 0;
  };

  RefResolver(const Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  std::map<const void *, DeclKey> Bound; ///< name-bearing node -> variable
  std::map<const CallExpr *, FuncId> Callee;
  std::map<DeclKey, Var> Vars;
  std::vector<uint32_t> FrameSlots; ///< by FuncId
  uint32_t GlobalSlots = 0;
  size_t Shadowing = 0; ///< lookups that passed an outer binding's scope

  void run() {
    Scopes.assign(1, {});
    uint32_t Slot = 0;
    for (const VarDeclStmt *G : Prog.globals()) {
      if (Scopes[0].count(G->name())) {
        Diags.error(G->loc(), "duplicate global '" + G->name() + "'");
        continue;
      }
      Var V{{G->id(), InvalidId, ""}, Slot, G->arraySize()};
      Slot += V.ArraySize == 0 ? 1u : static_cast<uint32_t>(V.ArraySize);
      Vars[V.Key] = V;
      Scopes[0][G->name()] = V;
      Bound[G] = V.Key;
    }
    GlobalSlots = Slot;

    for (const Function *F : Prog.functions())
      for (const Function *Other : Prog.functions())
        if (F != Other && F->name() == Other->name() && F->id() < Other->id())
          Diags.error(Other->loc(),
                      "duplicate function '" + Other->name() + "'");

    FrameSlots.assign(Prog.functions().size(), 0);
    for (const Function *F : Prog.functions())
      checkFunction(*F);

    FuncId Main = Prog.findFunction("main");
    if (!isValidId(Main)) {
      Diags.error(SourceLoc{1, 1}, "program has no 'main' function");
      return;
    }
    if (!Prog.function(Main)->paramNames().empty())
      Diags.error(Prog.function(Main)->loc(),
                  "'main' must take no parameters");
  }

private:
  using Scope = std::map<std::string, Var>;

  const Var *declare(const std::string &Name, int64_t ArraySize, DeclKey Key,
                     SourceLoc Loc) {
    Scope &Inner = Scopes.back();
    auto It = Inner.find(Name);
    if (It != Inner.end()) {
      Diags.error(Loc, "duplicate variable '" + Name + "' in this scope");
      return &It->second;
    }
    Var V{std::move(Key), NextSlot, ArraySize};
    NextSlot += ArraySize == 0 ? 1u : static_cast<uint32_t>(ArraySize);
    Vars[V.Key] = V;
    return &(Inner[Name] = V);
  }

  const Var *lookup(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end()) {
        // Would a scope further out have answered too?
        for (auto Outer = std::next(It); Outer != Scopes.rend(); ++Outer)
          if (Outer->count(Name)) {
            ++Shadowing;
            break;
          }
        return &Found->second;
      }
    }
    return nullptr;
  }

  /// Binds \p Node to \p Name's variable; null when \p Name is unknown.
  const Var *bind(const void *Node, const std::string &Name) {
    const Var *V = lookup(Name);
    if (V)
      Bound[Node] = V->Key;
    return V;
  }

  void requireScalar(const Var *V, SourceLoc Loc, const std::string &Name) {
    if (V->ArraySize != 0)
      Diags.error(Loc, "array '" + Name + "' used as a scalar");
  }

  void requireArray(const Var *V, SourceLoc Loc, const std::string &Name) {
    if (V->ArraySize == 0)
      Diags.error(Loc, "scalar '" + Name + "' indexed like an array");
  }

  void checkFunction(const Function &F) {
    NextSlot = 0;
    LoopDepth = 0;
    Scopes.resize(1);
    Scopes.emplace_back();
    for (const std::string &PName : F.paramNames())
      declare(PName, 0, {InvalidId, F.id(), PName}, F.loc());
    checkBody(F.body());
    FrameSlots[F.id()] = NextSlot;
  }

  void checkBody(const std::vector<Stmt *> &Body) {
    Scopes.emplace_back();
    for (const Stmt *S : Body)
      checkStmt(S);
    Scopes.pop_back();
  }

  void checkStmt(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::VarDecl: {
      const auto *Decl = cast<VarDeclStmt>(S);
      if (Decl->init())
        checkExpr(Decl->init());
      if (Decl->isArray() && Decl->init())
        Diags.error(Decl->loc(), "arrays cannot have initializers");
      Bound[Decl] = declare(Decl->name(), Decl->arraySize(),
                            {Decl->id(), InvalidId, ""}, Decl->loc())
                        ->Key;
      return;
    }
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      checkExpr(A->value());
      if (const Var *V = bind(A, A->name()))
        requireScalar(V, A->loc(), A->name());
      else
        Diags.error(A->loc(), "unknown variable '" + A->name() + "'");
      return;
    }
    case Stmt::Kind::ArrayAssign: {
      const auto *A = cast<ArrayAssignStmt>(S);
      checkExpr(A->index());
      checkExpr(A->value());
      if (const Var *V = bind(A, A->name()))
        requireArray(V, A->loc(), A->name());
      else
        Diags.error(A->loc(), "unknown array '" + A->name() + "'");
      return;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      checkExpr(If->cond());
      checkBody(If->thenBody());
      checkBody(If->elseBody());
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      checkExpr(W->cond());
      ++LoopDepth;
      checkBody(W->body());
      --LoopDepth;
      return;
    }
    case Stmt::Kind::Break:
      if (LoopDepth == 0)
        Diags.error(S->loc(), "'break' outside a loop");
      return;
    case Stmt::Kind::Continue:
      if (LoopDepth == 0)
        Diags.error(S->loc(), "'continue' outside a loop");
      return;
    case Stmt::Kind::Return:
      if (const Expr *V = cast<ReturnStmt>(S)->value())
        checkExpr(V);
      return;
    case Stmt::Kind::Print: {
      const auto *P = cast<PrintStmt>(S);
      if (P->args().empty())
        Diags.error(P->loc(), "print requires at least one argument");
      for (const Expr *Arg : P->args())
        checkExpr(Arg);
      return;
    }
    case Stmt::Kind::CallStmt:
      checkExpr(cast<CallStmtNode>(S)->call());
      return;
    }
  }

  void checkExpr(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::Input:
      return;
    case Expr::Kind::VarRef: {
      const auto *Ref = cast<VarRefExpr>(E);
      if (const Var *V = bind(Ref, Ref->name()))
        requireScalar(V, Ref->loc(), Ref->name());
      else
        Diags.error(Ref->loc(), "unknown variable '" + Ref->name() + "'");
      return;
    }
    case Expr::Kind::ArrayRef: {
      const auto *Ref = cast<ArrayRefExpr>(E);
      checkExpr(Ref->index());
      if (const Var *V = bind(Ref, Ref->name()))
        requireArray(V, Ref->loc(), Ref->name());
      else
        Diags.error(Ref->loc(), "unknown array '" + Ref->name() + "'");
      return;
    }
    case Expr::Kind::Call: {
      const auto *Call = cast<CallExpr>(E);
      for (const Expr *Arg : Call->args())
        checkExpr(Arg);
      FuncId F = Prog.findFunction(Call->calleeName());
      if (!isValidId(F)) {
        Diags.error(Call->loc(),
                    "call to unknown function '" + Call->calleeName() + "'");
        return;
      }
      size_t Want = Prog.function(F)->paramNames().size();
      if (Want != Call->args().size())
        Diags.error(Call->loc(), "call to '" + Call->calleeName() + "' with " +
                                     std::to_string(Call->args().size()) +
                                     " arguments; expected " +
                                     std::to_string(Want));
      Callee[Call] = F;
      return;
    }
    case Expr::Kind::Unary:
      checkExpr(cast<UnaryExpr>(E)->sub());
      return;
    case Expr::Kind::Binary:
      checkExpr(cast<BinaryExpr>(E)->lhs());
      checkExpr(cast<BinaryExpr>(E)->rhs());
      return;
    }
  }

  const Program &Prog;
  DiagnosticEngine &Diags;
  std::vector<Scope> Scopes; // innermost last; Scopes[0] = globals
  uint32_t NextSlot = 0;
  unsigned LoopDepth = 0;
};

/// The reference's key for the variable Sema bound.
DeclKey keyOf(const Program &Prog, VarId V) {
  const VarInfo &Info = Prog.variable(V);
  if (isValidId(Info.Decl))
    return {Info.Decl, InvalidId, ""};
  return {InvalidId, Info.Func, Info.Name};
}

/// Compares what Sema bound each name-bearing node to, its variable
/// table and its slot layout with the reference's.
class BindingCheck {
public:
  BindingCheck(const Program &Prog, const RefResolver &Ref)
      : Prog(Prog), Ref(Ref) {}

  std::string run() {
    for (const VarDeclStmt *G : Prog.globals())
      node(G, G->var());
    for (const Function *F : Prog.functions()) {
      if (F->params().size() != F->paramNames().size())
        return "function " + F->name() + " has " +
               std::to_string(F->params().size()) + " parameter variables";
      for (size_t I = 0; I < F->params().size() && Diff.empty(); ++I)
        expect(keyOf(Prog, F->params()[I]),
               DeclKey{InvalidId, F->id(), F->paramNames()[I]},
               "parameter " + std::to_string(I) + " of " + F->name());
      if (F->frameSlots() != Ref.FrameSlots[F->id()])
        return "function " + F->name() + " has " +
               std::to_string(F->frameSlots()) + " frame slots, reference " +
               std::to_string(Ref.FrameSlots[F->id()]);
      body(F->body());
    }
    if (!Diff.empty())
      return Diff;
    if (Prog.globalSlots() != Ref.GlobalSlots)
      return "global slots differ";
    if (Prog.variables().size() != Ref.Vars.size())
      return std::to_string(Prog.variables().size()) +
             " variables, reference " + std::to_string(Ref.Vars.size());
    for (VarId V = 0; V < Prog.variables().size(); ++V) {
      auto It = Ref.Vars.find(keyOf(Prog, V));
      const VarInfo &Info = Prog.variable(V);
      if (It == Ref.Vars.end() || It->second.Slot != Info.Slot ||
          It->second.ArraySize != Info.ArraySize)
        return "variable " + Info.Name + " (" + describe(keyOf(Prog, V)) +
               ") has no matching reference variable";
    }
    return "";
  }

private:
  void expect(const DeclKey &Got, const DeclKey &Want, const std::string &What) {
    if (Diff.empty() && Got != Want)
      Diff = What + " binds to " + describe(Got) + ", reference " +
             describe(Want);
  }

  void node(const void *N, VarId Var, const char *What = "name") {
    auto It = Ref.Bound.find(N);
    if (It == Ref.Bound.end()) {
      if (Diff.empty())
        Diff = std::string(What) + " the reference left unbound";
      return;
    }
    if (!isValidId(Var)) {
      if (Diff.empty())
        Diff = std::string(What) + " left unbound, reference " +
               describe(It->second);
      return;
    }
    expect(keyOf(Prog, Var), It->second, What);
  }

  void body(const std::vector<Stmt *> &Body) {
    for (const Stmt *S : Body)
      stmt(S);
  }

  void stmt(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::VarDecl:
      if (cast<VarDeclStmt>(S)->init())
        expr(cast<VarDeclStmt>(S)->init());
      node(S, cast<VarDeclStmt>(S)->var(), "declaration");
      return;
    case Stmt::Kind::Assign:
      expr(cast<AssignStmt>(S)->value());
      node(S, cast<AssignStmt>(S)->var(), "assignment");
      return;
    case Stmt::Kind::ArrayAssign:
      expr(cast<ArrayAssignStmt>(S)->index());
      expr(cast<ArrayAssignStmt>(S)->value());
      node(S, cast<ArrayAssignStmt>(S)->var(), "array store");
      return;
    case Stmt::Kind::If:
      expr(cast<IfStmt>(S)->cond());
      body(cast<IfStmt>(S)->thenBody());
      body(cast<IfStmt>(S)->elseBody());
      return;
    case Stmt::Kind::While:
      expr(cast<WhileStmt>(S)->cond());
      body(cast<WhileStmt>(S)->body());
      return;
    case Stmt::Kind::Return:
      if (const Expr *V = cast<ReturnStmt>(S)->value())
        expr(V);
      return;
    case Stmt::Kind::Print:
      for (const Expr *Arg : cast<PrintStmt>(S)->args())
        expr(Arg);
      return;
    case Stmt::Kind::CallStmt:
      expr(cast<CallStmtNode>(S)->call());
      return;
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return;
    }
  }

  void expr(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::Input:
      return;
    case Expr::Kind::VarRef:
      node(E, cast<VarRefExpr>(E)->var(), "variable reference");
      return;
    case Expr::Kind::ArrayRef:
      expr(cast<ArrayRefExpr>(E)->index());
      node(E, cast<ArrayRefExpr>(E)->var(), "array reference");
      return;
    case Expr::Kind::Call: {
      const auto *Call = cast<CallExpr>(E);
      for (const Expr *Arg : Call->args())
        expr(Arg);
      auto It = Ref.Callee.find(Call);
      if (Diff.empty() &&
          (It == Ref.Callee.end() || It->second != Call->callee()))
        Diff = "call to " + Call->calleeName() + " resolves differently";
      return;
    }
    case Expr::Kind::Unary:
      expr(cast<UnaryExpr>(E)->sub());
      return;
    case Expr::Kind::Binary:
      expr(cast<BinaryExpr>(E)->lhs());
      expr(cast<BinaryExpr>(E)->rhs());
      return;
    }
  }

  const Program &Prog;
  const RefResolver &Ref;
  std::string Diff;
};

//===----------------------------------------------------------------------===//
// Reference static analysis
//===----------------------------------------------------------------------===//

/// One function's CFG as adjacency lists, numbered as CFG::build numbers
/// its nodes: Entry, Exit, then statements bottom-up.
struct RefCFG {
  std::vector<StmtId> Stmt;
  std::vector<std::vector<uint32_t>> Succs, Preds;

  uint32_t add(StmtId S) {
    Stmt.push_back(S);
    Succs.emplace_back();
    return static_cast<uint32_t>(Stmt.size() - 1);
  }

  uint32_t body(const std::vector<lang::Stmt *> &Body, uint32_t Next,
                uint32_t BreakTo, uint32_t ContinueTo) {
    uint32_t Entry = Next;
    for (auto It = Body.rbegin(); It != Body.rend(); ++It)
      Entry = stmt(*It, Entry, BreakTo, ContinueTo);
    return Entry;
  }

  uint32_t stmt(const lang::Stmt *S, uint32_t Next, uint32_t BreakTo,
                uint32_t ContinueTo) {
    switch (S->kind()) {
    case lang::Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      uint32_t Then = body(If->thenBody(), Next, BreakTo, ContinueTo);
      uint32_t Else = body(If->elseBody(), Next, BreakTo, ContinueTo);
      uint32_t N = add(S->id());
      Succs[N] = {Then, Else};
      return N;
    }
    case lang::Stmt::Kind::While: {
      uint32_t N = add(S->id());
      uint32_t Body = body(cast<WhileStmt>(S)->body(), N, Next, N);
      Succs[N] = {Body, Next};
      return N;
    }
    case lang::Stmt::Kind::Break:
      Succs[add(S->id())] = {BreakTo};
      return static_cast<uint32_t>(Stmt.size() - 1);
    case lang::Stmt::Kind::Continue:
      Succs[add(S->id())] = {ContinueTo};
      return static_cast<uint32_t>(Stmt.size() - 1);
    case lang::Stmt::Kind::Return:
      Succs[add(S->id())] = {analysis::CFG::ExitNode};
      return static_cast<uint32_t>(Stmt.size() - 1);
    default:
      Succs[add(S->id())] = {Next};
      return static_cast<uint32_t>(Stmt.size() - 1);
    }
  }

  explicit RefCFG(const Function &F) {
    add(InvalidId);
    add(InvalidId);
    uint32_t First = body(F.body(), analysis::CFG::ExitNode, InvalidId,
                          InvalidId);
    Succs[analysis::CFG::EntryNode] = {First};
    Preds.resize(Stmt.size());
    for (uint32_t N = 0; N < Stmt.size(); ++N)
      for (uint32_t S : Succs[N])
        Preds[S].push_back(N);
  }
};

/// Control dependence straight from its definition: Y depends on (X, b)
/// iff Y post-dominates X's b-successor and does not strictly
/// post-dominate X. Post-dominator sets come from iterating
/// PDom(n) = {n} + the intersection of PDom(s) over n's successors, one
/// bit set per node, to a fixpoint.
struct RefControlDependence {
  std::map<StmtId, std::vector<analysis::ControlDependence::Parent>> Parents;
  std::map<std::pair<StmtId, bool>, std::vector<StmtId>> Kids;

  explicit RefControlDependence(const RefCFG &G) {
    size_t N = G.Stmt.size();
    size_t Words = (N + 63) / 64;
    auto Has = [&](const std::vector<uint64_t> &Set, size_t I) {
      return (Set[I / 64] >> (I % 64)) & 1;
    };
    std::vector<std::vector<uint64_t>> PDom(N,
                                            std::vector<uint64_t>(Words, ~0ull));
    PDom[analysis::CFG::ExitNode].assign(Words, 0);
    PDom[analysis::CFG::ExitNode][analysis::CFG::ExitNode / 64] |=
        1ull << (analysis::CFG::ExitNode % 64);
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (size_t X = 0; X < N; ++X) {
        if (X == analysis::CFG::ExitNode)
          continue;
        std::vector<uint64_t> Set(Words, ~0ull);
        for (uint32_t S : G.Succs[X])
          for (size_t W = 0; W < Words; ++W)
            Set[W] &= PDom[S][W];
        Set[X / 64] |= 1ull << (X % 64);
        if (Set != PDom[X]) {
          PDom[X] = std::move(Set);
          Changed = true;
        }
      }
    }
    auto Size = [&](size_t X) {
      size_t Count = 0;
      for (uint64_t W : PDom[X])
        Count += __builtin_popcountll(W);
      return Count;
    };

    for (uint32_t X = 0; X < N; ++X) {
      if (G.Succs[X].size() != 2)
        continue;
      for (bool Label : {true, false}) {
        uint32_t Target = G.Succs[X][Label ? 0 : 1];
        std::vector<uint32_t> Deps;
        for (uint32_t Y = 0; Y < N; ++Y)
          if (isValidId(G.Stmt[Y]) && Has(PDom[Target], Y) &&
              (Y == X || !Has(PDom[X], Y)))
            Deps.push_back(Y);
        // The tree walk meets them from the target upwards: each node
        // post-dominates the one before, so it has fewer post-dominators.
        std::stable_sort(Deps.begin(), Deps.end(), [&](uint32_t A, uint32_t B) {
          return Size(A) > Size(B);
        });
        for (uint32_t Y : Deps) {
          Parents[G.Stmt[Y]].push_back({G.Stmt[X], Label});
          Kids[{G.Stmt[X], Label}].push_back(G.Stmt[Y]);
        }
      }
    }
  }
};

template <typename RangeA, typename RangeB>
bool sameRange(const RangeA &A, const RangeB &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end());
}

/// Compares StaticAnalysis's CFGs and control dependence with the
/// reference's; counts the statements with several parents in \p T.
std::string analysisDifference(const Program &Prog, FrontendTally &T) {
  analysis::StaticAnalysis SA(Prog);
  for (const Function *F : Prog.functions()) {
    const analysis::CFG &G = SA.cfg(F->id());
    RefCFG Want(*F);
    std::string In = "function " + F->name() + ": ";
    if (G.size() != Want.Stmt.size())
      return In + std::to_string(G.size()) + " CFG nodes, reference " +
             std::to_string(Want.Stmt.size());
    for (uint32_t N = 0; N < G.size(); ++N) {
      if (G.node(N).Stmt != Want.Stmt[N])
        return In + "node " + std::to_string(N) + " holds another statement";
      if (!sameRange(G.succs(N), Want.Succs[N]))
        return In + "node " + std::to_string(N) + "'s successors differ";
      if (!sameRange(G.preds(N), Want.Preds[N]))
        return In + "node " + std::to_string(N) + "'s predecessors differ";
    }
    RefControlDependence CD(Want);
    static const std::vector<analysis::ControlDependence::Parent> NoParents;
    static const std::vector<StmtId> NoKids;
    // The predicate slots number the function's predicates 0, 1, ...
    std::vector<bool> SlotTaken(SA.predicateCount(F->id()), false);
    for (StmtId S : SA.statementsOf(F->id())) {
      const uint32_t Slot = SA.predicateSlot(S);
      if (!Prog.statements()[S]->isPredicate()) {
        if (isValidId(Slot))
          return In + "statement " + std::to_string(S) +
                 " is no predicate but has a slot";
      } else if (Slot >= SlotTaken.size() || SlotTaken[Slot]) {
        return In + "predicate " + std::to_string(S) +
               " has no slot of its own";
      } else {
        SlotTaken[Slot] = true;
      }
    }
    if (std::find(SlotTaken.begin(), SlotTaken.end(), false) !=
        SlotTaken.end())
      return In + "a predicate slot is unused";
    for (StmtId S : SA.statementsOf(F->id())) {
      auto P = CD.Parents.find(S);
      const auto &WantParents = P == CD.Parents.end() ? NoParents : P->second;
      if (!sameRange(SA.cdParents(S), WantParents))
        return In + "statement " + std::to_string(S) +
               "'s control-dependence parents differ";
      std::vector<uint32_t> WantSlots;
      for (const analysis::ControlDependence::Parent &Parent : WantParents)
        WantSlots.push_back(SA.predicateSlot(Parent.Pred));
      if (!sameRange(SA.cdParentSlots(S), WantSlots))
        return In + "statement " + std::to_string(S) +
               "'s control-dependence parent slots differ";
      T.MultiParent += WantParents.size() > 1;
      for (bool Branch : {true, false}) {
        auto K = CD.Kids.find({S, Branch});
        if (!sameRange(SA.cdChildren(S, Branch),
                       K == CD.Kids.end() ? NoKids : K->second))
          return In + "statement " + std::to_string(S) + "'s " +
                 (Branch ? "true" : "false") +
                 " control-dependence children differ";
      }
    }
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Mutator
//===----------------------------------------------------------------------===//

/// Byte-level edits of a program's source that reach the lexer's error
/// paths, scoping and control flow the generator does not produce.
class Mutator {
public:
  explicit Mutator(uint64_t Seed) : Rng(Seed) {}

  std::string mutate(std::string Src) {
    for (size_t N = 1 + Rng.nextBelow(3); N > 0; --N)
      mutateOnce(Src);
    return Src;
  }

private:
  struct Run {
    size_t Begin, End;
  };

  size_t pick(size_t N) { return N ? Rng.nextBelow(N) : 0; }
  template <typename T, size_t N> const T &pickOf(const T (&Choices)[N]) {
    return Choices[pick(N)];
  }
  size_t anyPos(const std::string &S) { return pick(S.size() + 1); }

  static bool identByte(char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  }

  /// Maximal identifier runs, or digit runs that start no identifier.
  static std::vector<Run> runs(const std::string &S, bool Digits) {
    std::vector<Run> Out;
    for (size_t I = 0; I < S.size();) {
      if (!identByte(S[I])) {
        ++I;
        continue;
      }
      size_t J = I;
      while (J < S.size() && identByte(S[J]))
        ++J;
      bool IsNumber = std::isdigit(static_cast<unsigned char>(S[I]));
      if (IsNumber == Digits)
        Out.push_back({I, J});
      I = J;
    }
    return Out;
  }

  /// The names declared by `var NAME`.
  static std::vector<Run> declared(const std::string &S) {
    std::vector<Run> Out;
    std::vector<Run> Ids = runs(S, false);
    for (size_t I = 0; I + 1 < Ids.size(); ++I)
      if (S.compare(Ids[I].Begin, Ids[I].End - Ids[I].Begin, "var") == 0)
        Out.push_back(Ids[I + 1]);
    return Out;
  }

  size_t lineStart(const std::string &S) {
    std::vector<size_t> Starts = {0};
    for (size_t I = 0; I < S.size(); ++I)
      if (S[I] == '\n')
        Starts.push_back(I + 1);
    return Starts[pick(Starts.size())];
  }

  static void renameAll(std::string &S, const std::string &From,
                        const std::string &To) {
    std::vector<Run> Ids = runs(S, false);
    for (auto It = Ids.rbegin(); It != Ids.rend(); ++It)
      if (S.compare(It->Begin, It->End - It->Begin, From) == 0)
        S.replace(It->Begin, It->End - It->Begin, To);
  }

  /// Replaces a random digit run with \p Text, or inserts \p Text.
  void replaceNumber(std::string &S, const std::string &Text) {
    std::vector<Run> Numbers = runs(S, true);
    if (Numbers.empty() || Rng.chance(1, 4)) {
      S.insert(anyPos(S), Text);
      return;
    }
    const Run &R = Numbers[pick(Numbers.size())];
    S.replace(R.Begin, R.End - R.Begin, Text);
  }

  void mutateOnce(std::string &S) {
    static const char *Keywords[] = {"var",   "fn",       "if",     "else",
                                     "while", "break",    "continue",
                                     "return", "print",   "input"};
    switch (Rng.nextBelow(10)) {
    case 0: { // An inserted comment, on a line of its own or cutting one.
      static const char *Comments[] = {
          "// note", "//", "// if (x) { while } 'q \\", "//\tvar x = 1;",
          "// \xC3\xA9t\xC3\xA9 9223372036854775808"};
      std::string C = pickOf(Comments);
      if (Rng.chance(2, 3))
        S.insert(lineStart(S), C + "\n");
      else
        S.insert(anyPos(S), Rng.chance(1, 2) ? C + "\n" : C);
      return;
    }
    case 1: { // A character literal: valid, with a bad escape, unterminated.
      static const char *Literals[] = {"'a'",  "'Z'",  "'\\n'", "'\\t'",
                                       "'\\0'", "'\\\\'", "'\\''", "'7'",
                                       "'\\q'", "'\\x'", "'a",    "'",
                                       "'\\",   "''",   "'ab'",  "'\n'"};
      replaceNumber(S, pickOf(Literals));
      return;
    }
    case 2: { // A digit run up to 25 long, or one at INT64_MAX's edge.
      static const char *Edges[] = {
          "9223372036854775807", "9223372036854775808",
          "9223372036854775810", "18446744073709551616",
          "99999999999999999999", "0000000000000000000000007"};
      std::string Digits;
      if (Rng.chance(1, 3)) {
        Digits = pickOf(Edges);
      } else {
        for (size_t Len = 1 + pick(25); Len > 0; --Len)
          Digits += static_cast<char>('0' + pick(10));
      }
      replaceNumber(S, Digits);
      return;
    }
    case 3: { // A stray byte.
      static const char Bytes[] = {'\r', '\v', '\f', '\t', '@', '#',
                                   '$',  '`',  '&',  '|',  '"', '\0'};
      char B = Rng.chance(1, 2) ? static_cast<char>(0x80 + pick(128))
                                : Bytes[pick(sizeof Bytes)];
      S.insert(S.begin() + static_cast<std::ptrdiff_t>(anyPos(S)), B);
      return;
    }
    case 4: { // A keyword glued to an identifier, or a suffix to a keyword.
      std::vector<Run> Ids = runs(S, false);
      if (Ids.empty())
        return;
      const Run &R = Ids[pick(Ids.size())];
      std::string Name = S.substr(R.Begin, R.End - R.Begin);
      switch (pick(3)) {
      case 0: // Renamed everywhere: the program stays valid.
        renameAll(S, Name, pickOf(Keywords) + Name);
        return;
      case 1:
        S.insert(R.Begin, pickOf(Keywords));
        return;
      default:
        S.insert(R.End, Rng.chance(1, 2) ? "_" : "ed");
        return;
      }
    }
    case 5: { // A deleted span.
      if (!S.empty())
        S.erase(pick(S.size()), 1 + pick(8));
      return;
    }
    case 6: { // A duplicated span.
      if (S.empty())
        return;
      size_t Begin = pick(S.size());
      std::string Copy = S.substr(Begin, 1 + pick(12));
      S.insert(Rng.chance(1, 2) ? Begin : anyPos(S), Copy);
      return;
    }
    case 7: { // A declaration renamed to another name, or duplicated.
      std::vector<Run> Decls = declared(S);
      if (Decls.empty())
        return;
      const Run &D = Decls[pick(Decls.size())];
      if (Rng.chance(1, 2)) {
        const Run &Other = Decls[pick(Decls.size())];
        S.replace(D.Begin, D.End - D.Begin,
                  S.substr(Other.Begin, Other.End - Other.Begin));
        return;
      }
      size_t Begin = S.rfind('\n', D.Begin);
      Begin = Begin == std::string::npos ? 0 : Begin + 1;
      size_t End = S.find('\n', D.Begin);
      End = End == std::string::npos ? S.size() : End + 1;
      std::string Line = S.substr(Begin, End - Begin);
      if (Line.back() != '\n')
        Line += '\n';
      S.insert(Rng.chance(1, 2) ? End : lineStart(S), Line);
      return;
    }
    case 8: { // A jump: more control-dependence parents, or a Sema error.
      static const char *Jumps[] = {
          "break;\n", "continue;\n", "return 0;\n", "return;\n",
          "if (g0 > 1) { break; }\n",
          "if (g1) { continue; } else { g0 = g0 + 1; }\n",
          "while (g0 < 0) { if (g1) { break; } continue; }\n",
          "if (input() > 3) { return 1; } else { while (1) { break; } }\n"};
      S.insert(lineStart(S), pickOf(Jumps));
      return;
    }
    default: { // Nested blocks that redeclare a name in scope.
      std::vector<Run> Decls = declared(S);
      std::string N = "g0";
      if (!Decls.empty()) {
        const Run &D = Decls[pick(Decls.size())];
        N = S.substr(D.Begin, D.End - D.Begin);
      }
      std::string Block =
          Rng.chance(1, 2)
              ? "if (" + N + " > 0) { var " + N + " = 1; if (1) { var " + N +
                    " = " + N + " + 2; print(" + N + "); } print(" + N +
                    "); }\n"
              : "while (" + N + " < 0) { var " + N + " = 3; " + N + " = " +
                    N + " + 1; break; }\n";
      S.insert(lineStart(S), Block);
      return;
    }
    }
  }

  RNG Rng;
};

//===----------------------------------------------------------------------===//
// One input
//===----------------------------------------------------------------------===//

/// Checks one source; returns the first difference, or "".
std::string checkInput(const std::string &Src, FrontendTally &T) {
  DiagnosticEngine Diags, RefDiags;
  Lexer Lex(Src, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  std::vector<RefToken> Want = RefLexer(Src, RefDiags).lexAll();
  if (std::string D = tokenDifference(Src, Tokens, Want); !D.empty())
    return "lexer: " + D;
  if (Diags.str() != RefDiags.str())
    return "lexer diagnostics:\n" + Diags.str() + "reference:\n" +
           RefDiags.str();
  if (Diags.hasErrors()) {
    ++T.LexRejected;
    return "";
  }

  Parser P(std::move(Tokens), Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  if (Diags.hasErrors())
    return "";

  RefResolver Ref(*Prog, RefDiags);
  Ref.run();
  Sema(*Prog, Diags).run();
  if (Diags.str() != RefDiags.str())
    return "sema diagnostics:\n" + Diags.str() + "reference:\n" +
           RefDiags.str();
  if (Diags.hasErrors()) {
    ++T.SemaRejected;
    return "";
  }
  if (std::string D = BindingCheck(*Prog, Ref).run(); !D.empty())
    return "sema: " + D;
  T.Shadowing += Ref.Shadowing;

  ++T.Analyzed;
  if (std::string D = analysisDifference(*Prog, T); !D.empty())
    return "static analysis: " + D;
  return "";
}

} // namespace

bool fuzz::runFrontendSeed(uint64_t Seed, bool Verbose, FrontendTally &T) {
  ++T.Generated;
  gen::RandomProgramGenerator Gen(Seed);
  std::string Program = Gen.generate();
  Mutator M(Seed * 0x9e3779b97f4a7c15ULL + 1);
  constexpr size_t Mutants = 4;
  for (size_t I = 0; I <= Mutants; ++I) {
    std::string Src = I == 0 ? Program : M.mutate(Program);
    ++T.Inputs;
    std::string Diff = checkInput(Src, T);
    if (!Diff.empty()) {
      std::printf("seed %llu, %s: %s\n--- input ---\n%s\n--- end ---\n",
                  static_cast<unsigned long long>(Seed),
                  I == 0 ? "program" : ("mutant " + std::to_string(I)).c_str(),
                  Diff.c_str(), Src.c_str());
      ++T.Failures;
      return false;
    }
  }
  if (Verbose)
    std::printf("seed %llu: ok\n", static_cast<unsigned long long>(Seed));
  return true;
}
