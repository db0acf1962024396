#include "p4/parser.h"

#include <fstream>
#include <sstream>

namespace flay::p4 {

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine& diag)
    : tokens_(std::move(tokens)), diag_(diag) {}

const Token& Parser::peek(size_t off) const {
  size_t i = std::min(pos_ + off, tokens_.size() - 1);
  return tokens_[i];
}

const Token& Parser::advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::checkIdent(std::string_view text) const {
  return peek().kind == TokenKind::kIdent && peek().text == text;
}

bool Parser::match(TokenKind kind) {
  if (!check(kind)) return false;
  advance();
  return true;
}

bool Parser::matchIdent(std::string_view text) {
  if (!checkIdent(text)) return false;
  advance();
  return true;
}

const Token& Parser::expect(TokenKind kind, const char* what) {
  if (check(kind)) return advance();
  diag_.error(peek().loc, std::string("expected ") + what + ", found '" +
                              peek().text + "'");
  return peek();  // do not consume; caller recovers
}

std::string Parser::expectIdent(const char* what) {
  if (check(TokenKind::kIdent)) return advance().text;
  diag_.error(peek().loc,
              std::string("expected ") + what + ", found '" + peek().text + "'");
  return "<error>";
}

uint32_t Parser::expectInt(const char* what) {
  if (check(TokenKind::kIntLit)) {
    const std::string& t = advance().text;
    try {
      return static_cast<uint32_t>(BitVec::parse(32, t).toUint64());
    } catch (const std::invalid_argument&) {
      diag_.error(peek().loc, "malformed integer '" + t + "'");
      return 0;
    }
  }
  diag_.error(peek().loc,
              std::string("expected ") + what + ", found '" + peek().text + "'");
  return 0;
}

void Parser::expectCloseAngle() {
  if (match(TokenKind::kRAngle)) return;
  if (check(TokenKind::kShr)) {
    // Split ">>" in place: consume the first '>', leave a single '>' as the
    // current token for the enclosing construct.
    tokens_[pos_].kind = TokenKind::kRAngle;
    tokens_[pos_].text = ">";
    return;
  }
  diag_.error(peek().loc,
              "expected '>', found '" + peek().text + "'");
}

Parser::ParsedType Parser::parseType() {
  ParsedType t;
  if (matchIdent("bit")) {
    expect(TokenKind::kLAngle, "'<'");
    t.width = expectInt("bit width");
    expectCloseAngle();
    if (t.width == 0) diag_.error(peek().loc, "bit<0> is not a valid type");
    return t;
  }
  if (matchIdent("bool")) {
    t.isBool = true;
    return t;
  }
  t.typeName = expectIdent("type name");
  return t;
}

// ---------------------------------------------------------------------------
// Top-level declarations
// ---------------------------------------------------------------------------

Program Parser::parseProgram() {
  Program prog;
  while (!check(TokenKind::kEof)) {
    if (checkIdent("header")) {
      parseHeaderDecl(prog);
    } else if (checkIdent("struct")) {
      parseStructDecl(prog);
    } else if (checkIdent("const")) {
      parseConstDecl(prog);
    } else if (checkIdent("parser")) {
      parseParserDecl(prog);
    } else if (checkIdent("control")) {
      parseControlDecl(prog);
    } else if (checkIdent("deparser")) {
      parseDeparserDecl(prog);
    } else if (checkIdent("pipeline")) {
      parsePipelineDecl(prog);
    } else {
      diag_.error(peek().loc, "expected a top-level declaration, found '" +
                                  peek().text + "'");
      advance();
    }
  }
  return prog;
}

void Parser::parseHeaderDecl(Program& prog) {
  HeaderTypeDecl decl;
  decl.loc = peek().loc;
  advance();  // header
  decl.name = expectIdent("header type name");
  expect(TokenKind::kLBrace, "'{'");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    size_t before = pos_;
    HeaderField f;
    f.loc = peek().loc;
    ParsedType t = parseType();
    if (!t.typeName.empty()) {
      diag_.error(f.loc, "header fields must be bit<N> or bool");
    }
    f.width = t.isBool ? 1 : t.width;
    f.name = expectIdent("field name");
    expect(TokenKind::kSemicolon, "';'");
    decl.fields.push_back(std::move(f));
    if (pos_ == before) advance();  // error recovery: always make progress
  }
  expect(TokenKind::kRBrace, "'}'");
  prog.headerTypes.push_back(std::move(decl));
}

void Parser::parseStructDecl(Program& prog) {
  StructTypeDecl decl;
  decl.loc = peek().loc;
  advance();  // struct
  decl.name = expectIdent("struct type name");
  expect(TokenKind::kLBrace, "'{'");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    size_t before = pos_;
    StructField f;
    f.loc = peek().loc;
    ParsedType t = parseType();
    if (t.typeName.empty()) {
      f.width = t.isBool ? 1 : t.width;
      f.isBool = t.isBool;
    } else {
      f.typeName = t.typeName;
    }
    f.name = expectIdent("field name");
    expect(TokenKind::kSemicolon, "';'");
    decl.fields.push_back(std::move(f));
    if (pos_ == before) advance();  // error recovery: always make progress
  }
  expect(TokenKind::kRBrace, "'}'");
  prog.structTypes.push_back(std::move(decl));
}

void Parser::parseConstDecl(Program& prog) {
  ConstDecl decl;
  decl.loc = peek().loc;
  advance();  // const
  ParsedType t = parseType();
  if (!t.typeName.empty() || t.isBool) {
    diag_.error(decl.loc, "const declarations must have type bit<N>");
  }
  decl.width = t.width;
  decl.name = expectIdent("const name");
  expect(TokenKind::kAssign, "'='");
  decl.value = parseExpr();
  expect(TokenKind::kSemicolon, "';'");
  prog.consts.push_back(std::move(decl));
}

void Parser::parseParserDecl(Program& prog) {
  ParserDecl decl;
  decl.loc = peek().loc;
  advance();  // parser
  decl.name = expectIdent("parser name");
  expect(TokenKind::kLBrace, "'{'");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    if (checkIdent("state")) {
      decl.states.push_back(parseParserState());
    } else if (checkIdent("value_set")) {
      decl.valueSets.push_back(parseValueSetDecl());
    } else {
      diag_.error(peek().loc,
                  "expected 'state' or 'value_set' in parser, found '" +
                      peek().text + "'");
      advance();
    }
  }
  expect(TokenKind::kRBrace, "'}'");
  prog.parsers.push_back(std::move(decl));
}

ValueSetDecl Parser::parseValueSetDecl() {
  ValueSetDecl decl;
  decl.loc = peek().loc;
  advance();  // value_set
  expect(TokenKind::kLAngle, "'<'");
  ParsedType t = parseType();
  if (!t.typeName.empty() || t.isBool) {
    diag_.error(decl.loc, "value_set element type must be bit<N>");
  }
  decl.width = t.width;
  expectCloseAngle();
  expect(TokenKind::kLParen, "'('");
  decl.size = expectInt("value_set size");
  expect(TokenKind::kRParen, "')'");
  decl.name = expectIdent("value_set name");
  expect(TokenKind::kSemicolon, "';'");
  return decl;
}

ParserStateDecl Parser::parseParserState() {
  ParserStateDecl state;
  state.loc = peek().loc;
  advance();  // state
  state.name = expectIdent("state name");
  expect(TokenKind::kLBrace, "'{'");
  bool sawTransition = false;
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    if (checkIdent("transition")) {
      state.body.push_back(parseTransition());
      sawTransition = true;
    } else {
      state.body.push_back(parseStatement(/*inParserState=*/true,
                                          /*inDeparser=*/false));
    }
  }
  if (!sawTransition) {
    diag_.error(state.loc, "parser state '" + state.name +
                               "' is missing a transition");
  }
  expect(TokenKind::kRBrace, "'}'");
  return state;
}

StmtPtr Parser::parseTransition() {
  auto stmt = std::make_unique<Stmt>();
  stmt->op = StmtOp::kTransition;
  stmt->loc = peek().loc;
  advance();  // transition
  if (matchIdent("select")) {
    expect(TokenKind::kLParen, "'('");
    stmt->transition.selectExpr = parseExpr();
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kLBrace, "'{'");
    while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
      SelectCase c;
      c.loc = peek().loc;
      if (matchIdent("default") || matchIdent("_")) {
        c.kind = SelectCase::Kind::kDefault;
      } else {
        // A literal (optionally masked) or a bare identifier; bare
        // identifiers naming value sets are reclassified by the checker.
        c.kind = SelectCase::Kind::kConst;
        c.value = parseExpr();
        if (match(TokenKind::kMask)) c.mask = parseExpr();
      }
      expect(TokenKind::kColon, "':'");
      c.nextState = expectIdent("next state");
      expect(TokenKind::kSemicolon, "';'");
      stmt->transition.cases.push_back(std::move(c));
    }
    expect(TokenKind::kRBrace, "'}'");
  } else {
    stmt->transition.nextState = expectIdent("next state");
    expect(TokenKind::kSemicolon, "';'");
  }
  return stmt;
}

void Parser::parseControlDecl(Program& prog) {
  ControlDecl decl;
  decl.loc = peek().loc;
  advance();  // control
  decl.name = expectIdent("control name");
  expect(TokenKind::kLBrace, "'{'");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    if (checkIdent("action")) {
      decl.actions.push_back(parseActionDecl());
    } else if (checkIdent("table")) {
      decl.tables.push_back(parseTableDecl());
    } else if (checkIdent("register")) {
      decl.registers.push_back(parseRegisterDecl());
    } else if (checkIdent("counter")) {
      CounterDecl c;
      c.loc = peek().loc;
      advance();
      expect(TokenKind::kLParen, "'('");
      c.size = expectInt("counter size");
      expect(TokenKind::kRParen, "')'");
      c.name = expectIdent("counter name");
      expect(TokenKind::kSemicolon, "';'");
      decl.counters.push_back(std::move(c));
    } else if (checkIdent("meter")) {
      MeterDecl m;
      m.loc = peek().loc;
      advance();
      expect(TokenKind::kLParen, "'('");
      m.size = expectInt("meter size");
      expect(TokenKind::kRParen, "')'");
      m.name = expectIdent("meter name");
      expect(TokenKind::kSemicolon, "';'");
      decl.meters.push_back(std::move(m));
    } else if (checkIdent("action_profile")) {
      ActionProfileDecl ap;
      ap.loc = peek().loc;
      advance();
      expect(TokenKind::kLParen, "'('");
      ap.size = expectInt("action_profile size");
      expect(TokenKind::kRParen, "')'");
      ap.name = expectIdent("action_profile name");
      expect(TokenKind::kSemicolon, "';'");
      decl.actionProfiles.push_back(std::move(ap));
    } else if (checkIdent("apply")) {
      advance();
      expect(TokenKind::kLBrace, "'{'");
      decl.applyBody = parseBlock(/*inParserState=*/false,
                                  /*inDeparser=*/false);
    } else {
      diag_.error(peek().loc, "unexpected token in control: '" +
                                  peek().text + "'");
      advance();
    }
  }
  expect(TokenKind::kRBrace, "'}'");
  prog.controls.push_back(std::move(decl));
}

RegisterDecl Parser::parseRegisterDecl() {
  RegisterDecl decl;
  decl.loc = peek().loc;
  advance();  // register
  expect(TokenKind::kLAngle, "'<'");
  ParsedType t = parseType();
  if (!t.typeName.empty() || t.isBool) {
    diag_.error(decl.loc, "register element type must be bit<N>");
  }
  decl.width = t.width;
  expectCloseAngle();
  expect(TokenKind::kLParen, "'('");
  decl.size = expectInt("register size");
  expect(TokenKind::kRParen, "')'");
  decl.name = expectIdent("register name");
  expect(TokenKind::kSemicolon, "';'");
  return decl;
}

ActionDecl Parser::parseActionDecl() {
  ActionDecl decl;
  decl.loc = peek().loc;
  advance();  // action
  decl.name = expectIdent("action name");
  expect(TokenKind::kLParen, "'('");
  while (!check(TokenKind::kRParen) && !check(TokenKind::kEof)) {
    ActionParam p;
    p.loc = peek().loc;
    ParsedType t = parseType();
    if (!t.typeName.empty() || t.isBool) {
      diag_.error(p.loc, "action parameters must have type bit<N>");
    }
    p.width = t.width;
    p.name = expectIdent("parameter name");
    decl.params.push_back(std::move(p));
    if (!match(TokenKind::kComma)) break;
  }
  expect(TokenKind::kRParen, "')'");
  expect(TokenKind::kLBrace, "'{'");
  decl.body = parseBlock(/*inParserState=*/false, /*inDeparser=*/false);
  return decl;
}

TableDecl Parser::parseTableDecl() {
  TableDecl decl;
  decl.loc = peek().loc;
  advance();  // table
  decl.name = expectIdent("table name");
  expect(TokenKind::kLBrace, "'{'");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    if (matchIdent("key")) {
      expect(TokenKind::kAssign, "'='");
      expect(TokenKind::kLBrace, "'{'");
      while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
        KeyElement k;
        k.loc = peek().loc;
        k.expr = parseExpr();
        expect(TokenKind::kColon, "':'");
        std::string mk = expectIdent("match kind");
        if (mk == "exact") k.matchKind = MatchKind::kExact;
        else if (mk == "ternary") k.matchKind = MatchKind::kTernary;
        else if (mk == "lpm") k.matchKind = MatchKind::kLpm;
        else diag_.error(k.loc, "unknown match kind '" + mk + "'");
        expect(TokenKind::kSemicolon, "';'");
        decl.keys.push_back(std::move(k));
      }
      expect(TokenKind::kRBrace, "'}'");
    } else if (matchIdent("actions")) {
      expect(TokenKind::kAssign, "'='");
      expect(TokenKind::kLBrace, "'{'");
      while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
        size_t before = pos_;
        decl.actionNames.push_back(expectIdent("action name"));
        expect(TokenKind::kSemicolon, "';'");
        if (pos_ == before) advance();  // error recovery
      }
      expect(TokenKind::kRBrace, "'}'");
    } else if (matchIdent("default_action")) {
      expect(TokenKind::kAssign, "'='");
      decl.defaultAction.name = expectIdent("default action name");
      if (match(TokenKind::kLParen)) {
        while (!check(TokenKind::kRParen) && !check(TokenKind::kEof)) {
          decl.defaultAction.args.push_back(parseExpr());
          if (!match(TokenKind::kComma)) break;
        }
        expect(TokenKind::kRParen, "')'");
      }
      expect(TokenKind::kSemicolon, "';'");
    } else if (matchIdent("size")) {
      expect(TokenKind::kAssign, "'='");
      decl.size = expectInt("table size");
      expect(TokenKind::kSemicolon, "';'");
    } else if (matchIdent("implementation")) {
      expect(TokenKind::kAssign, "'='");
      decl.actionProfile = expectIdent("action profile name");
      expect(TokenKind::kSemicolon, "';'");
    } else {
      diag_.error(peek().loc,
                  "unknown table property '" + peek().text + "'");
      advance();
    }
  }
  expect(TokenKind::kRBrace, "'}'");
  return decl;
}

void Parser::parseDeparserDecl(Program& prog) {
  DeparserDecl decl;
  decl.loc = peek().loc;
  advance();  // deparser
  decl.name = expectIdent("deparser name");
  expect(TokenKind::kLBrace, "'{'");
  decl.body = parseBlock(/*inParserState=*/false, /*inDeparser=*/true);
  prog.deparsers.push_back(std::move(decl));
}

void Parser::parsePipelineDecl(Program& prog) {
  prog.pipeline.loc = peek().loc;
  advance();  // pipeline
  expect(TokenKind::kLParen, "'('");
  std::vector<std::string> names;
  while (!check(TokenKind::kRParen) && !check(TokenKind::kEof)) {
    names.push_back(expectIdent("pipeline stage name"));
    if (!match(TokenKind::kComma)) break;
  }
  expect(TokenKind::kRParen, "')'");
  expect(TokenKind::kSemicolon, "';'");
  if (names.size() < 3) {
    diag_.error(prog.pipeline.loc,
                "pipeline needs at least parser, one control, and deparser");
    return;
  }
  prog.pipeline.parserName = names.front();
  prog.pipeline.deparserName = names.back();
  prog.pipeline.controlNames.assign(names.begin() + 1, names.end() - 1);
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

std::vector<StmtPtr> Parser::parseBlock(bool inParserState, bool inDeparser) {
  std::vector<StmtPtr> stmts;
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    stmts.push_back(parseStatement(inParserState, inDeparser));
  }
  expect(TokenKind::kRBrace, "'}'");
  return stmts;
}

StmtPtr Parser::parseStatement(bool inParserState, bool inDeparser) {
  SourceLoc loc = peek().loc;

  if (checkIdent("if")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->op = StmtOp::kIf;
    stmt->loc = loc;
    advance();
    expect(TokenKind::kLParen, "'('");
    stmt->cond = parseExpr();
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kLBrace, "'{'");
    stmt->thenBody = parseBlock(inParserState, inDeparser);
    if (matchIdent("else")) {
      if (checkIdent("if")) {
        stmt->elseBody.push_back(parseStatement(inParserState, inDeparser));
      } else {
        expect(TokenKind::kLBrace, "'{'");
        stmt->elseBody = parseBlock(inParserState, inDeparser);
      }
    }
    return stmt;
  }

  if (checkIdent("bit") || checkIdent("bool")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->op = StmtOp::kVarDecl;
    stmt->loc = loc;
    ParsedType t = parseType();
    stmt->varWidth = t.width;
    stmt->varIsBool = t.isBool;
    stmt->varName = expectIdent("variable name");
    if (match(TokenKind::kAssign)) stmt->rhs = parseExpr();
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  if (checkIdent("extract")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->op = StmtOp::kExtract;
    stmt->loc = loc;
    if (!inParserState) {
      diag_.error(loc, "extract() is only allowed inside parser states");
    }
    advance();
    expect(TokenKind::kLParen, "'('");
    stmt->lhs = parsePath();
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  if (checkIdent("emit")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->op = StmtOp::kEmit;
    stmt->loc = loc;
    if (!inDeparser) {
      diag_.error(loc, "emit() is only allowed inside deparsers");
    }
    advance();
    expect(TokenKind::kLParen, "'('");
    stmt->lhs = parsePath();
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  if (checkIdent("mark_to_drop")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->op = StmtOp::kMarkToDrop;
    stmt->loc = loc;
    advance();
    expect(TokenKind::kLParen, "'('");
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  if (checkIdent("exit")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->op = StmtOp::kExit;
    stmt->loc = loc;
    advance();
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  if (checkIdent("transition")) {
    diag_.error(loc, "transition must be the trailing statement of a state");
    return parseTransition();
  }

  return parsePathStatement();
}

StmtPtr Parser::parsePathStatement() {
  SourceLoc loc = peek().loc;
  // Parse the dotted path; the token after decides what statement this is.
  std::vector<std::string> path;
  path.push_back(expectIdent("statement"));
  while (check(TokenKind::kDot)) {
    advance();
    path.push_back(expectIdent("member name"));
  }

  auto stmt = std::make_unique<Stmt>();
  stmt->loc = loc;

  if (check(TokenKind::kLParen) && path.size() == 1) {
    // Direct action invocation: act(arg, ...);
    stmt->op = StmtOp::kActionCall;
    stmt->target = path[0];
    advance();  // (
    while (!check(TokenKind::kRParen) && !check(TokenKind::kEof)) {
      stmt->args.push_back(parseExpr());
      if (!match(TokenKind::kComma)) break;
    }
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  if (check(TokenKind::kLParen) && path.size() >= 2) {
    // path.method(args)
    std::string method = path.back();
    path.pop_back();
    advance();  // (
    if (path.size() != 1 && method != "setValid" && method != "setInvalid") {
      diag_.error(loc, "method call target must be a simple name");
    }
    stmt->target = path.size() == 1 ? path[0] : "";
    auto mkPathExpr = [&loc](std::vector<std::string> p) {
      auto e = std::make_unique<Expr>();
      e->op = ExprOp::kPath;
      e->loc = loc;
      e->path = std::move(p);
      return e;
    };
    if (method == "apply") {
      stmt->op = StmtOp::kApply;
      expect(TokenKind::kRParen, "')'");
    } else if (method == "read") {
      stmt->op = StmtOp::kRegRead;
      stmt->lhs = parseExpr();
      expect(TokenKind::kComma, "','");
      stmt->index = parseExpr();
      expect(TokenKind::kRParen, "')'");
    } else if (method == "write") {
      stmt->op = StmtOp::kRegWrite;
      stmt->index = parseExpr();
      expect(TokenKind::kComma, "','");
      stmt->rhs = parseExpr();
      expect(TokenKind::kRParen, "')'");
    } else if (method == "count") {
      stmt->op = StmtOp::kCountCall;
      stmt->index = parseExpr();
      expect(TokenKind::kRParen, "')'");
    } else if (method == "execute") {
      stmt->op = StmtOp::kMeterCall;
      stmt->lhs = parseExpr();
      expect(TokenKind::kComma, "','");
      stmt->index = parseExpr();
      expect(TokenKind::kRParen, "')'");
    } else if (method == "setValid") {
      stmt->op = StmtOp::kSetValid;
      stmt->lhs = mkPathExpr(path);
      expect(TokenKind::kRParen, "')'");
    } else if (method == "setInvalid") {
      stmt->op = StmtOp::kSetInvalid;
      stmt->lhs = mkPathExpr(path);
      expect(TokenKind::kRParen, "')'");
    } else {
      diag_.error(loc, "unknown method '" + method + "'");
      stmt->op = StmtOp::kExit;
      expect(TokenKind::kRParen, "')'");
    }
    expect(TokenKind::kSemicolon, "';'");
    return stmt;
  }

  // Assignment: path [slice] = expr ;
  auto lhs = std::make_unique<Expr>();
  lhs->op = ExprOp::kPath;
  lhs->loc = loc;
  lhs->path = std::move(path);
  if (check(TokenKind::kLBracket)) {
    advance();
    auto slice = std::make_unique<Expr>();
    slice->op = ExprOp::kSlice;
    slice->loc = loc;
    slice->sliceHi = expectInt("slice high bit");
    expect(TokenKind::kColon, "':'");
    slice->sliceLo = expectInt("slice low bit");
    expect(TokenKind::kRBracket, "']'");
    slice->a = std::move(lhs);
    lhs = std::move(slice);
  }
  stmt->op = StmtOp::kAssign;
  stmt->lhs = std::move(lhs);
  expect(TokenKind::kAssign, "'='");
  stmt->rhs = parseExpr();
  expect(TokenKind::kSemicolon, "';'");
  return stmt;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Parser::parseExpr() { return parseTernary(); }

ExprPtr Parser::parseTernary() {
  ExprPtr cond = parseBinaryLevel(0);
  if (!match(TokenKind::kQuestion)) return cond;
  auto e = std::make_unique<Expr>();
  e->op = ExprOp::kTernary;
  e->loc = cond->loc;
  e->a = std::move(cond);
  e->b = parseExpr();
  expect(TokenKind::kColon, "':'");
  e->c = parseExpr();
  return e;
}

namespace {
struct LevelOp {
  TokenKind token;
  BinOp op;
};
// Binary precedence levels, loosest first.
constexpr int kNumLevels = 8;
const std::vector<LevelOp> kLevels[kNumLevels] = {
    {{TokenKind::kOrOr, BinOp::kLOr}},
    {{TokenKind::kAndAnd, BinOp::kLAnd}},
    {{TokenKind::kEqEq, BinOp::kEq}, {TokenKind::kNotEq, BinOp::kNe}},
    {{TokenKind::kLAngle, BinOp::kLt},
     {TokenKind::kLe, BinOp::kLe},
     {TokenKind::kRAngle, BinOp::kGt},
     {TokenKind::kGe, BinOp::kGe}},
    {{TokenKind::kPipe, BinOp::kBitOr},
     {TokenKind::kCaret, BinOp::kBitXor},
     {TokenKind::kAmp, BinOp::kBitAnd}},
    {{TokenKind::kShl, BinOp::kShl}, {TokenKind::kShr, BinOp::kShr}},
    {{TokenKind::kPlus, BinOp::kAdd},
     {TokenKind::kMinus, BinOp::kSub},
     {TokenKind::kConcatOp, BinOp::kConcat}},
    {{TokenKind::kStar, BinOp::kMul},
     {TokenKind::kSlash, BinOp::kDiv},
     {TokenKind::kPercent, BinOp::kMod}},
};
}  // namespace

ExprPtr Parser::parseBinaryLevel(int level) {
  if (level >= kNumLevels) return parseUnary();
  ExprPtr lhs = parseBinaryLevel(level + 1);
  for (;;) {
    const LevelOp* found = nullptr;
    for (const auto& lo : kLevels[level]) {
      if (check(lo.token)) {
        found = &lo;
        break;
      }
    }
    if (found == nullptr) return lhs;
    SourceLoc loc = peek().loc;
    advance();
    auto e = std::make_unique<Expr>();
    e->op = ExprOp::kBinary;
    e->binOp = found->op;
    e->loc = loc;
    e->a = std::move(lhs);
    e->b = parseBinaryLevel(level + 1);
    lhs = std::move(e);
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc loc = peek().loc;
  auto mkUnary = [&loc, this](UnOp op) {
    auto e = std::make_unique<Expr>();
    e->op = ExprOp::kUnary;
    e->unOp = op;
    e->loc = loc;
    e->a = parseUnary();
    return e;
  };
  if (match(TokenKind::kBang)) return mkUnary(UnOp::kLNot);
  if (match(TokenKind::kTilde)) return mkUnary(UnOp::kBitNot);
  if (match(TokenKind::kMinus)) return mkUnary(UnOp::kNeg);
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  SourceLoc loc = peek().loc;

  if (check(TokenKind::kIntLit)) {
    auto e = std::make_unique<Expr>();
    e->op = ExprOp::kIntLit;
    e->loc = loc;
    std::string text = advance().text;
    // Split "8w255" into width and value; validate in the checker.
    size_t wPos = std::string::npos;
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == 'w' &&
          i + 1 < text.size() &&  // require digits on both sides
          std::isdigit(static_cast<unsigned char>(text[0]))) {
        // Exclude hex digits context: 'w' never appears in 0x literals.
        wPos = i;
        break;
      }
    }
    if (wPos != std::string::npos && text.compare(0, 2, "0x") != 0 &&
        text.compare(0, 2, "0b") != 0) {
      try {
        e->literalWidth =
            static_cast<uint32_t>(BitVec::parse(32, text.substr(0, wPos))
                                      .toUint64());
      } catch (const std::invalid_argument&) {
        diag_.error(loc, "malformed literal width in '" + text + "'");
      }
      e->literalText = text.substr(wPos + 1);
    } else {
      e->literalText = std::move(text);
    }
    return e;
  }

  if (checkIdent("true") || checkIdent("false")) {
    auto e = std::make_unique<Expr>();
    e->op = ExprOp::kBoolLit;
    e->loc = loc;
    e->boolValue = advance().text == "true";
    return e;
  }

  if (check(TokenKind::kLParen)) {
    // Either a cast "(bit<W>) expr" or a parenthesized expression.
    if (peek(1).kind == TokenKind::kIdent && peek(1).text == "bit" &&
        peek(2).kind == TokenKind::kLAngle) {
      advance();  // (
      advance();  // bit
      advance();  // <
      uint32_t w = expectInt("cast width");
      expectCloseAngle();
      expect(TokenKind::kRParen, "')'");
      auto e = std::make_unique<Expr>();
      e->op = ExprOp::kCast;
      e->loc = loc;
      e->castWidth = w;
      e->a = parseUnary();
      return e;
    }
    advance();
    ExprPtr inner = parseExpr();
    expect(TokenKind::kRParen, "')'");
    // Allow slicing a parenthesized expression.
    if (check(TokenKind::kLBracket)) {
      advance();
      auto slice = std::make_unique<Expr>();
      slice->op = ExprOp::kSlice;
      slice->loc = loc;
      slice->sliceHi = expectInt("slice high bit");
      expect(TokenKind::kColon, "':'");
      slice->sliceLo = expectInt("slice low bit");
      expect(TokenKind::kRBracket, "']'");
      slice->a = std::move(inner);
      return slice;
    }
    return inner;
  }

  if (check(TokenKind::kIdent)) {
    ExprPtr path = parsePath();
    // path.isValid()
    if (path->path.size() >= 2 && path->path.back() == "isValid" &&
        check(TokenKind::kLParen)) {
      advance();
      expect(TokenKind::kRParen, "')'");
      auto e = std::make_unique<Expr>();
      e->op = ExprOp::kIsValid;
      e->loc = loc;
      e->path.assign(path->path.begin(), path->path.end() - 1);
      return e;
    }
    if (check(TokenKind::kLBracket)) {
      advance();
      auto slice = std::make_unique<Expr>();
      slice->op = ExprOp::kSlice;
      slice->loc = loc;
      slice->sliceHi = expectInt("slice high bit");
      expect(TokenKind::kColon, "':'");
      slice->sliceLo = expectInt("slice low bit");
      expect(TokenKind::kRBracket, "']'");
      slice->a = std::move(path);
      return slice;
    }
    return path;
  }

  diag_.error(loc, "expected an expression, found '" + peek().text + "'");
  advance();
  auto e = std::make_unique<Expr>();
  e->op = ExprOp::kIntLit;
  e->loc = loc;
  e->literalText = "0";
  return e;
}

ExprPtr Parser::parsePath() {
  auto e = std::make_unique<Expr>();
  e->op = ExprOp::kPath;
  e->loc = peek().loc;
  e->path.push_back(expectIdent("name"));
  while (check(TokenKind::kDot)) {
    // Stop before method names that the caller handles (isValid handled by
    // parsePrimary after the fact).
    advance();
    e->path.push_back(expectIdent("member name"));
  }
  return e;
}

// ---------------------------------------------------------------------------
// Convenience wrappers
// ---------------------------------------------------------------------------

Program parseString(std::string_view source, DiagnosticEngine& diag) {
  Lexer lexer(source, diag);
  Parser parser(lexer.tokenize(), diag);
  return parser.parseProgram();
}

Program parseStringOrThrow(std::string_view source) {
  DiagnosticEngine diag;
  Program prog = parseString(source, diag);
  diag.throwIfErrors();
  return prog;
}

Program parseFileOrThrow(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CompileError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parseStringOrThrow(buf.str());
}

}  // namespace flay::p4
