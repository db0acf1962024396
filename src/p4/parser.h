#ifndef FLAY_P4_PARSER_H
#define FLAY_P4_PARSER_H

#include <string_view>

#include "p4/ast.h"
#include "p4/lexer.h"

namespace flay::p4 {

/// Recursive-descent parser for P4-lite. On success returns the untyped AST;
/// diagnostics accumulate in `diag` and parsing continues past most errors
/// to report several at once.
class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticEngine& diag);

  Program parseProgram();

 private:
  // Token helpers.
  const Token& peek(size_t off = 0) const;
  const Token& advance();
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool checkIdent(std::string_view text) const;
  bool match(TokenKind kind);
  bool matchIdent(std::string_view text);
  const Token& expect(TokenKind kind, const char* what);
  /// Consumes a '>' that may be the first half of a '>>' token, as in
  /// value_set<bit<16>>.
  void expectCloseAngle();
  std::string expectIdent(const char* what);
  uint32_t expectInt(const char* what);

  // Types.
  struct ParsedType {
    uint32_t width = 0;
    bool isBool = false;
    std::string typeName;  // set for named (header/struct) types
  };
  ParsedType parseType();

  // Declarations.
  void parseHeaderDecl(Program& prog);
  void parseStructDecl(Program& prog);
  void parseConstDecl(Program& prog);
  void parseParserDecl(Program& prog);
  void parseControlDecl(Program& prog);
  void parseDeparserDecl(Program& prog);
  void parsePipelineDecl(Program& prog);

  ParserStateDecl parseParserState();
  ValueSetDecl parseValueSetDecl();
  ActionDecl parseActionDecl();
  TableDecl parseTableDecl();
  RegisterDecl parseRegisterDecl();
  StmtPtr parseTransition();

  // Statements.
  std::vector<StmtPtr> parseBlock(bool inParserState, bool inDeparser);
  StmtPtr parseStatement(bool inParserState, bool inDeparser);
  StmtPtr parsePathStatement();

  // Expressions (precedence climbing).
  ExprPtr parseExpr();
  ExprPtr parseTernary();
  ExprPtr parseBinaryLevel(int level);
  ExprPtr parseUnary();
  ExprPtr parsePrimary();
  ExprPtr parsePath();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  DiagnosticEngine& diag_;
};

/// Convenience: lex + parse + (optionally) throw on errors.
Program parseString(std::string_view source, DiagnosticEngine& diag);
Program parseStringOrThrow(std::string_view source);
Program parseFileOrThrow(const std::string& path);

}  // namespace flay::p4

#endif  // FLAY_P4_PARSER_H
