#include "verilog/parser.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "util/logging.hpp"
#include "util/strings.hpp"
#include "verilog/lexer.hpp"

namespace rtlrepair::verilog {

namespace {

/** Recursive-descent parser over a pre-lexed token stream. */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens)
        : _tokens(std::move(tokens)) {}

    SourceFile
    parseSourceFile()
    {
        SourceFile file;
        while (!at(TokenKind::Eof))
            file.modules.push_back(parseModule());
        return file;
    }

    ExprPtr
    parseSingleExpression()
    {
        _module = std::make_unique<Module>();
        ExprPtr e = parseExpr();
        expect(TokenKind::Eof);
        return e;
    }

  private:
    // -- token helpers ------------------------------------------------

    const Token &peek(size_t ahead = 0) const
    {
        size_t i = _pos + ahead;
        return i < _tokens.size() ? _tokens[i] : _tokens.back();
    }

    bool at(TokenKind kind) const { return peek().kind == kind; }

    const Token &
    advance()
    {
        const Token &t = _tokens[_pos];
        if (_pos + 1 < _tokens.size())
            ++_pos;
        return t;
    }

    bool
    accept(TokenKind kind)
    {
        if (!at(kind))
            return false;
        advance();
        return true;
    }

    const Token &
    expect(TokenKind kind)
    {
        if (!at(kind)) {
            fail(format("expected %s, found %s '%s'", tokenKindName(kind),
                        tokenKindName(peek().kind), peek().text.c_str()));
        }
        return advance();
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        failAt(peek().loc, msg);
    }

    [[noreturn]] static void
    failAt(SourceLoc loc, const std::string &msg)
    {
        fatal(format("line %u:%u: %s", loc.line, loc.col, msg.c_str()));
    }

    /**
     * Verilog reserved words our lexer does not tokenize (they lex as
     * plain identifiers).  Flagged eagerly wherever a statement or
     * item may start so the diagnostic lands on the keyword itself
     * instead of on whatever token the misparse trips over later.
     */
    static bool
    isUnsupportedKeyword(const std::string &text)
    {
        static const std::set<std::string> kUnsupported = {
            "task",      "endtask",   "while",    "repeat",
            "forever",   "wait",      "disable",  "fork",
            "join",      "force",     "release",  "deassign",
            "defparam",  "specify",   "endspecify", "primitive",
            "endprimitive", "table",  "endtable", "real",
            "time",      "event",     "realtime", "specparam",
            "tri",       "tri0",      "tri1",     "trireg",
            "wand",      "wor",       "supply0",  "supply1",
            "automatic", "pullup",    "pulldown",
        };
        return kUnsupported.count(text) > 0;
    }

    // -- node helpers -------------------------------------------------

    /** Own a freshly allocated node at once (a later parse error
     *  must not leak it) and give it an id and @p loc. */
    template <typename T>
    std::unique_ptr<T>
    tag(T *node, SourceLoc loc)
    {
        std::unique_ptr<T> owned(node);
        owned->id = _module->newNodeId();
        owned->loc = loc;
        return owned;
    }

    ExprPtr
    makeIdent(std::string name, SourceLoc loc)
    {
        return ExprPtr(tag(new IdentExpr(std::move(name)), loc));
    }

    // -- module level -------------------------------------------------

    std::unique_ptr<Module>
    parseModule()
    {
        _module = std::make_unique<Module>();
        _items = &_module->items;
        expect(TokenKind::KwModule);
        _module->name = expect(TokenKind::Identifier).text;

        if (accept(TokenKind::Hash))
            parseParameterPortList();

        if (accept(TokenKind::LParen)) {
            if (!at(TokenKind::RParen))
                parsePortList();
            expect(TokenKind::RParen);
        }
        expect(TokenKind::Semicolon);

        while (!at(TokenKind::KwEndmodule))
            parseItem();
        expect(TokenKind::KwEndmodule);

        return std::move(_module);
    }

    /** #(parameter A = 1, parameter [3:0] B = 2) */
    void
    parseParameterPortList()
    {
        expect(TokenKind::LParen);
        expect(TokenKind::KwParameter);
        parseParamAssignments(/*is_local=*/false, /*stop_at_paren=*/true);
        while (accept(TokenKind::Comma)) {
            accept(TokenKind::KwParameter); // keyword may be repeated
            parseParamAssignments(false, true);
        }
        expect(TokenKind::RParen);
    }

    /** ANSI or plain port list inside the module header parens. */
    void
    parsePortList()
    {
        PortDir dir = PortDir::Unknown;
        NetKind net = NetKind::Wire;
        bool is_signed = false;
        ExprPtr msb, lsb;
        bool have_decl = false;

        do {
            if (at(TokenKind::KwInput) || at(TokenKind::KwOutput) ||
                at(TokenKind::KwInout)) {
                dir = at(TokenKind::KwInput) ? PortDir::Input
                    : at(TokenKind::KwOutput) ? PortDir::Output
                                              : PortDir::Inout;
                advance();
                net = NetKind::Wire;
                is_signed = false;
                msb.reset();
                lsb.reset();
                have_decl = true;
                if (accept(TokenKind::KwReg))
                    net = NetKind::Reg;
                else
                    accept(TokenKind::KwWire);
                if (accept(TokenKind::KwSigned))
                    is_signed = true;
                if (at(TokenKind::LBracket))
                    parseRange(msb, lsb);
            }
            const Token &name_tok = expect(TokenKind::Identifier);
            Port port;
            port.name = name_tok.text;
            port.dir = dir;
            _module->ports.push_back(port);
            if (have_decl) {
                auto decl = tag(new NetDecl(), name_tok.loc);
                decl->name = name_tok.text;
                decl->net = net;
                decl->is_signed = is_signed;
                decl->dir = dir;
                decl->msb = msb ? msb->clone() : nullptr;
                decl->lsb = lsb ? lsb->clone() : nullptr;
                _items->emplace_back(std::move(decl));
            }
        } while (accept(TokenKind::Comma));
    }

    /** [msb:lsb] */
    void
    parseRange(ExprPtr &msb, ExprPtr &lsb)
    {
        expect(TokenKind::LBracket);
        msb = parseExpr();
        expect(TokenKind::Colon);
        lsb = parseExpr();
        expect(TokenKind::RBracket);
    }

    void
    parseItem()
    {
        switch (peek().kind) {
          case TokenKind::KwInput:
          case TokenKind::KwOutput:
          case TokenKind::KwInout:
            parsePortDeclItem();
            return;
          case TokenKind::KwWire:
          case TokenKind::KwReg:
            parseNetDeclItem();
            return;
          case TokenKind::KwInteger:
            parseIntegerDeclItem();
            return;
          case TokenKind::KwParameter:
            advance();
            parseParamAssignments(false, false);
            expect(TokenKind::Semicolon);
            return;
          case TokenKind::KwLocalparam:
            advance();
            parseParamAssignments(true, false);
            expect(TokenKind::Semicolon);
            return;
          case TokenKind::KwAssign:
            parseContAssign();
            return;
          case TokenKind::KwAlways:
            parseAlways();
            return;
          case TokenKind::KwInitial: {
            SourceLoc loc = peek().loc;
            advance();
            auto item = tag(new InitialBlock(), loc);
            item->body = parseStmt();
            _items->emplace_back(std::move(item));
            return;
          }
          case TokenKind::Identifier:
            if (isUnsupportedKeyword(peek().text)) {
                fail(format("unsupported keyword '%s' at module level: "
                            "outside the synthesizable subset",
                            peek().text.c_str()));
            }
            parseInstance();
            return;
          case TokenKind::KwFunction:
            parseFunction();
            return;
          case TokenKind::KwGenerate:
            parseGenerateRegion();
            return;
          case TokenKind::KwGenvar:
            parseGenvarDecl();
            return;
          case TokenKind::KwFor:
            parseGenFor();
            return;
          case TokenKind::KwIf:
            parseGenIf();
            return;
          default:
            fail("unexpected token at module level");
        }
    }

    // -- generate constructs ------------------------------------------

    void
    parseGenvarDecl()
    {
        expect(TokenKind::KwGenvar);
        do {
            const Token &name_tok = expect(TokenKind::Identifier);
            auto decl = tag(new GenvarDecl(), name_tok.loc);
            decl->name = name_tok.text;
            _items->emplace_back(std::move(decl));
        } while (accept(TokenKind::Comma));
        expect(TokenKind::Semicolon);
    }

    /** `generate ... endgenerate` is a transparent wrapper. */
    void
    parseGenerateRegion()
    {
        expect(TokenKind::KwGenerate);
        while (!at(TokenKind::KwEndgenerate)) {
            if (at(TokenKind::Eof))
                fail("unterminated generate region");
            parseItem();
        }
        expect(TokenKind::KwEndgenerate);
    }

    /**
     * `begin [: label] items end`, or a single unlabeled item, parsed
     * into @p into.  Returns the label (empty when absent).
     */
    std::string
    parseGenBlock(std::vector<ItemPtr> &into)
    {
        std::string label;
        std::vector<ItemPtr> *saved = _items;
        _items = &into;
        if (accept(TokenKind::KwBegin)) {
            if (accept(TokenKind::Colon))
                label = expect(TokenKind::Identifier).text;
            while (!at(TokenKind::KwEnd)) {
                if (at(TokenKind::Eof))
                    fail("unterminated generate block");
                parseItem();
            }
            expect(TokenKind::KwEnd);
        } else {
            parseItem();
        }
        _items = saved;
        return label;
    }

    void
    parseGenFor()
    {
        SourceLoc loc = peek().loc;
        expect(TokenKind::KwFor);
        auto item = tag(new GenFor(), loc);
        expect(TokenKind::LParen);
        item->genvar = expect(TokenKind::Identifier).text;
        expect(TokenKind::Equals);
        item->init = parseExpr();
        expect(TokenKind::Semicolon);
        item->cond = parseExpr();
        expect(TokenKind::Semicolon);
        const Token &step_var = expect(TokenKind::Identifier);
        if (step_var.text != item->genvar) {
            failAt(step_var.loc,
                   "generate-for step must update the loop genvar");
        }
        expect(TokenKind::Equals);
        item->step = parseExpr();
        expect(TokenKind::RParen);
        item->label = parseGenBlock(item->body);
        _items->emplace_back(std::move(item));
    }

    void
    parseGenIf()
    {
        SourceLoc loc = peek().loc;
        expect(TokenKind::KwIf);
        auto item = tag(new GenIf(), loc);
        expect(TokenKind::LParen);
        item->cond = parseExpr();
        expect(TokenKind::RParen);
        item->then_label = parseGenBlock(item->then_items);
        if (accept(TokenKind::KwElse)) {
            if (at(TokenKind::KwIf)) {
                // else-if chains nest as a one-item else block.
                std::vector<ItemPtr> *saved = _items;
                _items = &item->else_items;
                parseGenIf();
                _items = saved;
            } else {
                item->else_label = parseGenBlock(item->else_items);
            }
        }
        _items->emplace_back(std::move(item));
    }

    // -- functions ----------------------------------------------------

    /** Range or `integer` marker of a function input/local/return. */
    void
    parseFunctionVarType(ExprPtr &msb, ExprPtr &lsb, bool &is_integer)
    {
        msb.reset();
        lsb.reset();
        is_integer = false;
        if (accept(TokenKind::KwInteger)) {
            is_integer = true;
            return;
        }
        accept(TokenKind::KwSigned);  // accepted, treated as unsigned
        if (at(TokenKind::LBracket))
            parseRange(msb, lsb);
    }

    void
    parseFunction()
    {
        SourceLoc loc = peek().loc;
        expect(TokenKind::KwFunction);
        auto item = tag(new FunctionDecl(), loc);
        bool ret_integer = false;
        parseFunctionVarType(item->ret_msb, item->ret_lsb, ret_integer);
        if (ret_integer) {
            item->ret_msb = makeInt(31, loc);
            item->ret_lsb = makeInt(0, loc);
        }
        item->name = expect(TokenKind::Identifier).text;

        if (accept(TokenKind::LParen)) {
            // ANSI header: (input [r] a, input b, ...)
            do {
                expect(TokenKind::KwInput);
                FunctionVar var;
                parseFunctionVarType(var.msb, var.lsb, var.is_integer);
                var.name = expect(TokenKind::Identifier).text;
                item->inputs.push_back(std::move(var));
            } while (accept(TokenKind::Comma));
            expect(TokenKind::RParen);
        }
        expect(TokenKind::Semicolon);

        // Classic declarations before the body statement.
        while (true) {
            if (accept(TokenKind::KwInput)) {
                FunctionVar var;
                parseFunctionVarType(var.msb, var.lsb, var.is_integer);
                var.name = expect(TokenKind::Identifier).text;
                item->inputs.push_back(std::move(var));
                while (accept(TokenKind::Comma)) {
                    FunctionVar more;
                    more.msb = var.msb ? var.msb->clone() : nullptr;
                    more.lsb = var.lsb ? var.lsb->clone() : nullptr;
                    more.is_integer = var.is_integer;
                    more.name = expect(TokenKind::Identifier).text;
                    item->inputs.push_back(std::move(more));
                }
                expect(TokenKind::Semicolon);
            } else if (at(TokenKind::KwReg) || at(TokenKind::KwInteger)) {
                bool is_integer = at(TokenKind::KwInteger);
                advance();
                FunctionVar var;
                var.is_integer = is_integer;
                if (!is_integer) {
                    accept(TokenKind::KwSigned);
                    if (at(TokenKind::LBracket))
                        parseRange(var.msb, var.lsb);
                }
                var.name = expect(TokenKind::Identifier).text;
                item->locals.push_back(std::move(var));
                while (accept(TokenKind::Comma)) {
                    FunctionVar more;
                    more.msb = var.msb ? var.msb->clone() : nullptr;
                    more.lsb = var.lsb ? var.lsb->clone() : nullptr;
                    more.is_integer = var.is_integer;
                    more.name = expect(TokenKind::Identifier).text;
                    item->locals.push_back(std::move(more));
                }
                expect(TokenKind::Semicolon);
            } else {
                break;
            }
        }

        item->body = parseStmt();
        expect(TokenKind::KwEndfunction);
        _items->emplace_back(std::move(item));
    }

    ExprPtr
    makeInt(uint64_t v, SourceLoc loc)
    {
        return ExprPtr(tag(
            new LiteralExpr(bv::Value::fromUint(32, v), false), loc));
    }

    void
    parsePortDeclItem()
    {
        PortDir dir = at(TokenKind::KwInput) ? PortDir::Input
                    : at(TokenKind::KwOutput) ? PortDir::Output
                                              : PortDir::Inout;
        advance();
        NetKind net = NetKind::Wire;
        if (accept(TokenKind::KwReg))
            net = NetKind::Reg;
        else
            accept(TokenKind::KwWire);
        bool is_signed = accept(TokenKind::KwSigned);
        ExprPtr msb, lsb;
        if (at(TokenKind::LBracket))
            parseRange(msb, lsb);
        do {
            const Token &name_tok = expect(TokenKind::Identifier);
            // Merge with a pre-existing implicit decl (non-ANSI style
            // `output q; reg q;` handled by the reg decl updating kind).
            NetDecl *existing = _module->findNet(name_tok.text);
            if (existing) {
                existing->dir = dir;
                if (net == NetKind::Reg)
                    existing->net = net;
                if (msb) {
                    existing->msb = msb->clone();
                    existing->lsb = lsb->clone();
                }
            } else {
                auto decl = tag(new NetDecl(), name_tok.loc);
                decl->name = name_tok.text;
                decl->net = net;
                decl->is_signed = is_signed;
                decl->dir = dir;
                decl->msb = msb ? msb->clone() : nullptr;
                decl->lsb = lsb ? lsb->clone() : nullptr;
                _items->emplace_back(std::move(decl));
            }
            // Record direction on the port list for non-ANSI headers.
            for (auto &port : _module->ports) {
                if (port.name == name_tok.text &&
                    port.dir == PortDir::Unknown) {
                    port.dir = dir;
                }
            }
        } while (accept(TokenKind::Comma));
        expect(TokenKind::Semicolon);
    }

    void
    parseNetDeclItem()
    {
        NetKind net = at(TokenKind::KwReg) ? NetKind::Reg : NetKind::Wire;
        advance();
        bool is_signed = accept(TokenKind::KwSigned);
        ExprPtr msb, lsb;
        if (at(TokenKind::LBracket))
            parseRange(msb, lsb);
        do {
            const Token &name_tok = expect(TokenKind::Identifier);
            // Memory (2-D reg) dimension after the name.
            ExprPtr arr_msb, arr_lsb;
            if (at(TokenKind::LBracket)) {
                if (net != NetKind::Reg) {
                    fail("wire arrays are outside the synthesizable "
                         "subset (only reg memories)");
                }
                parseRange(arr_msb, arr_lsb);
                if (at(TokenKind::LBracket))
                    fail("memories with more than one address "
                         "dimension are outside the subset");
            }
            // Merge only with module-scope decls; names declared in a
            // generate body are a fresh scope.
            NetDecl *existing = _items == &_module->items
                                    ? _module->findNet(name_tok.text)
                                    : nullptr;
            if (existing && !arr_msb && !existing->isMemory()) {
                // `reg q;` after `output q;`
                existing->net = net;
                existing->is_signed = existing->is_signed || is_signed;
                if (msb) {
                    existing->msb = msb->clone();
                    existing->lsb = lsb->clone();
                }
            } else {
                auto decl = tag(new NetDecl(), name_tok.loc);
                decl->name = name_tok.text;
                decl->net = net;
                decl->is_signed = is_signed;
                decl->msb = msb ? msb->clone() : nullptr;
                decl->lsb = lsb ? lsb->clone() : nullptr;
                decl->arr_msb = std::move(arr_msb);
                decl->arr_lsb = std::move(arr_lsb);
                _items->emplace_back(std::move(decl));
            }
            if (accept(TokenKind::Equals)) {
                // Wire initializer is sugar for a continuous assign.
                auto assign = tag(new ContAssign(), name_tok.loc);
                assign->lhs = makeIdent(name_tok.text, name_tok.loc);
                assign->rhs = parseExpr();
                _items->emplace_back(std::move(assign));
            }
        } while (accept(TokenKind::Comma));
        expect(TokenKind::Semicolon);
    }

    void
    parseIntegerDeclItem()
    {
        SourceLoc loc = peek().loc;
        advance();
        do {
            const Token &name_tok = expect(TokenKind::Identifier);
            auto decl = tag(new NetDecl(), loc);
            decl->name = name_tok.text;
            decl->net = NetKind::Integer;
            _items->emplace_back(std::move(decl));
        } while (accept(TokenKind::Comma));
        expect(TokenKind::Semicolon);
    }

    void
    parseParamAssignments(bool is_local, bool stop_at_paren)
    {
        // Optional range on the parameter: parsed and ignored for value
        // semantics (our parameters are plain integers).
        ExprPtr msb, lsb;
        if (at(TokenKind::LBracket))
            parseRange(msb, lsb);
        while (true) {
            const Token &name_tok = expect(TokenKind::Identifier);
            expect(TokenKind::Equals);
            auto decl = tag(new ParamDecl(), name_tok.loc);
            decl->name = name_tok.text;
            decl->is_local = is_local;
            decl->value = parseExpr();
            _items->emplace_back(std::move(decl));
            if (stop_at_paren)
                return; // caller handles the comma between `parameter`s
            if (!accept(TokenKind::Comma))
                return;
        }
    }

    void
    parseContAssign()
    {
        expect(TokenKind::KwAssign);
        if (accept(TokenKind::Hash))
            expect(TokenKind::Number); // delay, ignored
        do {
            SourceLoc loc = peek().loc;
            ExprPtr lhs = parseLValue();
            expect(TokenKind::Equals);
            auto item = tag(new ContAssign(), loc);
            item->lhs = std::move(lhs);
            item->rhs = parseExpr();
            _items->emplace_back(std::move(item));
        } while (accept(TokenKind::Comma));
        expect(TokenKind::Semicolon);
    }

    void
    parseAlways()
    {
        SourceLoc loc = peek().loc;
        expect(TokenKind::KwAlways);
        auto item = tag(new AlwaysBlock(), loc);
        expect(TokenKind::At);
        if (accept(TokenKind::Star)) {
            item->sensitivity.push_back(
                SensItem{SensItem::Edge::Star, ""});
        } else {
            expect(TokenKind::LParen);
            if (accept(TokenKind::Star)) {
                item->sensitivity.push_back(
                    SensItem{SensItem::Edge::Star, ""});
            } else {
                do {
                    SensItem sens;
                    if (accept(TokenKind::KwPosedge))
                        sens.edge = SensItem::Edge::Posedge;
                    else if (accept(TokenKind::KwNegedge))
                        sens.edge = SensItem::Edge::Negedge;
                    else
                        sens.edge = SensItem::Edge::Level;
                    sens.signal = expect(TokenKind::Identifier).text;
                    item->sensitivity.push_back(sens);
                } while (accept(TokenKind::KwOr) ||
                         accept(TokenKind::Comma));
            }
            expect(TokenKind::RParen);
        }
        item->body = parseStmt();
        _items->emplace_back(std::move(item));
    }

    void
    parseInstance()
    {
        SourceLoc loc = peek().loc;
        auto item = tag(new Instance(), loc);
        item->module_name = expect(TokenKind::Identifier).text;
        if (accept(TokenKind::Hash)) {
            expect(TokenKind::LParen);
            item->params = parseConnections();
            expect(TokenKind::RParen);
        }
        item->instance_name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);
        if (!at(TokenKind::RParen))
            item->ports = parseConnections();
        expect(TokenKind::RParen);
        expect(TokenKind::Semicolon);
        _items->emplace_back(std::move(item));
    }

    std::vector<Connection>
    parseConnections()
    {
        std::vector<Connection> conns;
        do {
            Connection conn;
            if (accept(TokenKind::Dot)) {
                conn.port = expect(TokenKind::Identifier).text;
                expect(TokenKind::LParen);
                if (!at(TokenKind::RParen))
                    conn.expr = parseExpr();
                expect(TokenKind::RParen);
            } else {
                conn.expr = parseExpr();
            }
            conns.push_back(std::move(conn));
        } while (accept(TokenKind::Comma));
        return conns;
    }

    // -- statements ---------------------------------------------------

    StmtPtr
    parseStmt()
    {
        SourceLoc loc = peek().loc;
        switch (peek().kind) {
          case TokenKind::KwBegin: {
            advance();
            auto block = tag(new BlockStmt({}), loc);
            if (accept(TokenKind::Colon))
                block->label = expect(TokenKind::Identifier).text;
            while (!at(TokenKind::KwEnd))
                block->stmts.push_back(parseStmt());
            expect(TokenKind::KwEnd);
            return block;
          }
          case TokenKind::KwIf: {
            advance();
            expect(TokenKind::LParen);
            ExprPtr cond = parseExpr();
            expect(TokenKind::RParen);
            StmtPtr then_stmt = parseStmt();
            StmtPtr else_stmt;
            if (accept(TokenKind::KwElse))
                else_stmt = parseStmt();
            return StmtPtr(tag(
                new IfStmt(std::move(cond), std::move(then_stmt),
                           std::move(else_stmt)),
                loc));
          }
          case TokenKind::KwCase:
          case TokenKind::KwCasez:
          case TokenKind::KwCasex:
            return parseCase();
          case TokenKind::KwFor:
            return parseFor();
          case TokenKind::Semicolon:
            advance();
            return StmtPtr(tag(new EmptyStmt(), loc));
          case TokenKind::SystemName: {
            // $display and friends: simulation-only, synthesizes to
            // nothing; treated as an empty statement.
            advance();
            if (accept(TokenKind::LParen)) {
                int depth = 1;
                while (depth > 0 && !at(TokenKind::Eof)) {
                    if (at(TokenKind::LParen))
                        ++depth;
                    if (at(TokenKind::RParen))
                        --depth;
                    advance();
                }
            }
            expect(TokenKind::Semicolon);
            return StmtPtr(tag(new EmptyStmt(), loc));
          }
          case TokenKind::Hash: {
            // `#n stmt` — plain delay prefix, ignored.
            advance();
            expect(TokenKind::Number);
            return parseStmt();
          }
          case TokenKind::KwFunction:
          case TokenKind::KwGenerate:
          case TokenKind::KwGenvar:
          case TokenKind::KwInitial:
          case TokenKind::KwAlways:
          case TokenKind::KwAssign:
            // Report the offending keyword's own position; without
            // this the misparse surfaces at a later token.
            fail(format("unsupported construct %s inside a procedural "
                        "block: outside the synthesizable subset",
                        tokenKindName(peek().kind)));
          case TokenKind::Identifier:
            if (isUnsupportedKeyword(peek().text)) {
                fail(format("unsupported keyword '%s' in statement: "
                            "outside the synthesizable subset",
                            peek().text.c_str()));
            }
            return parseAssignStmt();
          default:
            return parseAssignStmt();
        }
    }

    StmtPtr
    parseCase()
    {
        SourceLoc loc = peek().loc;
        CaseStmt::Mode mode = CaseStmt::Mode::Plain;
        if (at(TokenKind::KwCasez))
            mode = CaseStmt::Mode::CaseZ;
        else if (at(TokenKind::KwCasex))
            mode = CaseStmt::Mode::CaseX;
        advance();
        expect(TokenKind::LParen);
        ExprPtr subject = parseExpr();
        expect(TokenKind::RParen);

        std::vector<CaseItem> items;
        StmtPtr default_body;
        while (!at(TokenKind::KwEndcase)) {
            if (accept(TokenKind::KwDefault)) {
                accept(TokenKind::Colon);
                if (default_body)
                    fail("duplicate default case");
                default_body = parseStmt();
                continue;
            }
            CaseItem item;
            do {
                item.labels.push_back(parseExpr());
            } while (accept(TokenKind::Comma));
            expect(TokenKind::Colon);
            item.body = parseStmt();
            items.push_back(std::move(item));
        }
        expect(TokenKind::KwEndcase);
        return StmtPtr(tag(
            new CaseStmt(std::move(subject), std::move(items),
                         std::move(default_body), mode),
            loc));
    }

    StmtPtr
    parseFor()
    {
        SourceLoc loc = peek().loc;
        expect(TokenKind::KwFor);
        expect(TokenKind::LParen);
        StmtPtr init = parseForAssign();
        expect(TokenKind::Semicolon);
        ExprPtr cond = parseExpr();
        expect(TokenKind::Semicolon);
        StmtPtr step = parseForAssign();
        expect(TokenKind::RParen);
        StmtPtr body = parseStmt();
        return StmtPtr(tag(
            new ForStmt(std::move(init), std::move(cond), std::move(step),
                        std::move(body)),
            loc));
    }

    /** `i = expr` without trailing semicolon (for-loop header). */
    StmtPtr
    parseForAssign()
    {
        SourceLoc loc = peek().loc;
        ExprPtr lhs = parseLValue();
        expect(TokenKind::Equals);
        ExprPtr rhs = parseExpr();
        return StmtPtr(tag(
            new AssignStmt(std::move(lhs), std::move(rhs), true), loc));
    }

    StmtPtr
    parseAssignStmt()
    {
        SourceLoc loc = peek().loc;
        ExprPtr lhs = parseLValue();
        bool blocking;
        if (accept(TokenKind::Equals)) {
            blocking = true;
        } else if (accept(TokenKind::LtEq)) {
            blocking = false;
        } else {
            fail("expected '=' or '<=' in assignment");
        }
        bool has_delay = false;
        if (accept(TokenKind::Hash)) {
            expect(TokenKind::Number);
            has_delay = true;
        }
        ExprPtr rhs = parseExpr();
        expect(TokenKind::Semicolon);
        auto stmt =
            tag(new AssignStmt(std::move(lhs), std::move(rhs), blocking),
                loc);
        stmt->has_delay = has_delay;
        return stmt;
    }

    /** Identifier with optional select, or a concatenation of those. */
    ExprPtr
    parseLValue()
    {
        SourceLoc loc = peek().loc;
        if (accept(TokenKind::LBrace)) {
            std::vector<ExprPtr> parts;
            do {
                parts.push_back(parseLValue());
            } while (accept(TokenKind::Comma));
            expect(TokenKind::RBrace);
            return ExprPtr(tag(new ConcatExpr(std::move(parts)), loc));
        }
        const Token &name_tok = expect(TokenKind::Identifier);
        ExprPtr base = makeIdent(name_tok.text, name_tok.loc);
        return parsePostfixSelect(std::move(base));
    }

    // -- expressions ---------------------------------------------------

    ExprPtr
    parseExpr()
    {
        return parseTernary();
    }

    ExprPtr
    parseTernary()
    {
        ExprPtr cond = parseBinary(0);
        if (!at(TokenKind::Question))
            return cond;
        SourceLoc loc = peek().loc;
        advance();
        ExprPtr then_expr = parseExpr();
        expect(TokenKind::Colon);
        ExprPtr else_expr = parseTernary();
        return ExprPtr(tag(
            new TernaryExpr(std::move(cond), std::move(then_expr),
                            std::move(else_expr)),
            loc));
    }

    /** Binary operator precedence, loosest first. */
    static int
    binaryLevel(TokenKind kind)
    {
        switch (kind) {
          case TokenKind::PipePipe: return 1;
          case TokenKind::AmpAmp: return 2;
          case TokenKind::Pipe: return 3;
          case TokenKind::Caret:
          case TokenKind::TildeCaret: return 4;
          case TokenKind::Amp: return 5;
          case TokenKind::EqEq:
          case TokenKind::BangEq:
          case TokenKind::EqEqEq:
          case TokenKind::BangEqEq: return 6;
          case TokenKind::Lt:
          case TokenKind::LtEq:
          case TokenKind::Gt:
          case TokenKind::GtEq: return 7;
          case TokenKind::Shl:
          case TokenKind::Shr:
          case TokenKind::AShl:
          case TokenKind::AShr: return 8;
          case TokenKind::Plus:
          case TokenKind::Minus: return 9;
          case TokenKind::Star:
          case TokenKind::Slash:
          case TokenKind::Percent: return 10;
          default: return -1;
        }
    }

    static BinaryOp
    binaryOpFor(TokenKind kind)
    {
        switch (kind) {
          case TokenKind::PipePipe: return BinaryOp::LogicOr;
          case TokenKind::AmpAmp: return BinaryOp::LogicAnd;
          case TokenKind::Pipe: return BinaryOp::BitOr;
          case TokenKind::Caret: return BinaryOp::BitXor;
          case TokenKind::TildeCaret: return BinaryOp::BitXnor;
          case TokenKind::Amp: return BinaryOp::BitAnd;
          case TokenKind::EqEq: return BinaryOp::Eq;
          case TokenKind::BangEq: return BinaryOp::Ne;
          case TokenKind::EqEqEq: return BinaryOp::CaseEq;
          case TokenKind::BangEqEq: return BinaryOp::CaseNe;
          case TokenKind::Lt: return BinaryOp::Lt;
          case TokenKind::LtEq: return BinaryOp::Le;
          case TokenKind::Gt: return BinaryOp::Gt;
          case TokenKind::GtEq: return BinaryOp::Ge;
          case TokenKind::Shl:
          case TokenKind::AShl: return BinaryOp::Shl;
          case TokenKind::Shr: return BinaryOp::Shr;
          case TokenKind::AShr: return BinaryOp::AShr;
          case TokenKind::Plus: return BinaryOp::Add;
          case TokenKind::Minus: return BinaryOp::Sub;
          case TokenKind::Star: return BinaryOp::Mul;
          case TokenKind::Slash: return BinaryOp::Div;
          case TokenKind::Percent: return BinaryOp::Mod;
          default: panic("not a binary operator token");
        }
    }

    ExprPtr
    parseBinary(int min_level)
    {
        ExprPtr lhs = parseUnary();
        while (true) {
            int level = binaryLevel(peek().kind);
            if (level < 0 || level < min_level)
                return lhs;
            TokenKind op_tok = peek().kind;
            SourceLoc loc = peek().loc;
            advance();
            ExprPtr rhs = parseBinary(level + 1);
            lhs = ExprPtr(tag(
                new BinaryExpr(binaryOpFor(op_tok), std::move(lhs),
                               std::move(rhs)),
                loc));
        }
    }

    ExprPtr
    parseUnary()
    {
        SourceLoc loc = peek().loc;
        UnaryOp op;
        switch (peek().kind) {
          case TokenKind::Tilde: op = UnaryOp::BitNot; break;
          case TokenKind::Bang: op = UnaryOp::LogicNot; break;
          case TokenKind::Minus: op = UnaryOp::Minus; break;
          case TokenKind::Plus: op = UnaryOp::Plus; break;
          case TokenKind::Amp: op = UnaryOp::RedAnd; break;
          case TokenKind::Pipe: op = UnaryOp::RedOr; break;
          case TokenKind::Caret: op = UnaryOp::RedXor; break;
          case TokenKind::TildeAmp: op = UnaryOp::RedNand; break;
          case TokenKind::TildePipe: op = UnaryOp::RedNor; break;
          case TokenKind::TildeCaret: op = UnaryOp::RedXnor; break;
          default:
            return parsePrimary();
        }
        advance();
        return ExprPtr(tag(new UnaryExpr(op, parseUnary()), loc));
    }

    ExprPtr
    parsePrimary()
    {
        SourceLoc loc = peek().loc;
        switch (peek().kind) {
          case TokenKind::Number: {
            const Token &tok = advance();
            bool sized = tok.text.find('\'') != std::string::npos;
            return ExprPtr(tag(
                new LiteralExpr(bv::Value::parseVerilog(tok.text), sized),
                loc));
          }
          case TokenKind::Identifier: {
            const Token &tok = advance();
            if (at(TokenKind::LParen)) {
                // User-defined function call: f(a, b).
                advance();
                std::vector<ExprPtr> args;
                if (!at(TokenKind::RParen)) {
                    do {
                        args.push_back(parseExpr());
                    } while (accept(TokenKind::Comma));
                }
                expect(TokenKind::RParen);
                return ExprPtr(tag(
                    new CallExpr(tok.text, std::move(args)), loc));
            }
            ExprPtr base = makeIdent(tok.text, loc);
            return parsePostfixSelect(std::move(base));
          }
          case TokenKind::LParen: {
            advance();
            ExprPtr inner = parseExpr();
            expect(TokenKind::RParen);
            return inner;
          }
          case TokenKind::LBrace: {
            advance();
            ExprPtr first = parseExpr();
            if (at(TokenKind::LBrace)) {
                // {count{inner}}
                advance();
                ExprPtr inner = parseExpr();
                // Replication body may itself be a concatenation list.
                if (at(TokenKind::Comma)) {
                    std::vector<ExprPtr> parts;
                    parts.push_back(std::move(inner));
                    while (accept(TokenKind::Comma))
                        parts.push_back(parseExpr());
                    inner = ExprPtr(
                        tag(new ConcatExpr(std::move(parts)), loc));
                }
                expect(TokenKind::RBrace);
                expect(TokenKind::RBrace);
                return ExprPtr(tag(
                    new ReplExpr(std::move(first), std::move(inner)),
                    loc));
            }
            std::vector<ExprPtr> parts;
            parts.push_back(std::move(first));
            while (accept(TokenKind::Comma))
                parts.push_back(parseExpr());
            expect(TokenKind::RBrace);
            return ExprPtr(tag(new ConcatExpr(std::move(parts)), loc));
          }
          case TokenKind::SystemName:
            fail("system functions are outside the subset");
          default:
            fail("expected expression");
        }
    }

    /** base[...] selects after an identifier. */
    ExprPtr
    parsePostfixSelect(ExprPtr base)
    {
        while (at(TokenKind::LBracket)) {
            SourceLoc loc = peek().loc;
            advance();
            ExprPtr first = parseExpr();
            if (accept(TokenKind::Colon)) {
                ExprPtr lsb = parseExpr();
                expect(TokenKind::RBracket);
                base = ExprPtr(tag(
                    new RangeSelectExpr(std::move(base), std::move(first),
                                        std::move(lsb)),
                    loc));
            } else {
                expect(TokenKind::RBracket);
                base = ExprPtr(tag(
                    new IndexExpr(std::move(base), std::move(first)),
                    loc));
            }
        }
        if (at(TokenKind::Dot)) {
            fail("hierarchical names are outside the synthesizable "
                 "subset");
        }
        return base;
    }

    std::vector<Token> _tokens;
    size_t _pos = 0;
    std::unique_ptr<Module> _module;
    /** Target list for parsed items (a generate body, or the module). */
    std::vector<ItemPtr> *_items = nullptr;
};

} // namespace

SourceFile
parse(std::string_view source)
{
    Parser parser(lex(source));
    return parser.parseSourceFile();
}

SourceFile
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open Verilog file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

ExprPtr
parseExpression(std::string_view source)
{
    Parser parser(lex(source));
    return parser.parseSingleExpression();
}

} // namespace rtlrepair::verilog
