//! Recursive-descent SQL parser.

use crate::error::{DbError, DbResult};
use crate::exec::expr::BinOp;
use crate::schema::ColumnType;
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Token};

/// Words that terminate an implicit alias position.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "limit", "left", "right", "inner", "outer",
    "join", "on", "as", "and", "or", "not", "in", "is", "null", "values", "set", "by", "asc",
    "desc", "with", "union", "having", "distinct", "insert", "update", "delete",
];

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> DbResult<Statement> {
    let toks = tokenize(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_semi();
    if p.pos != p.toks.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// `?` placeholders seen so far — numbers them left to right.
    params: usize,
}

impl Parser {
    fn err(&self, msg: &str) -> DbError {
        let near = self
            .toks
            .get(self.pos)
            .map(|t| format!(" near '{t}'"))
            .unwrap_or_else(|| " at end of input".to_owned());
        DbError::Parse(format!("{msg}{near} (token {})", self.pos))
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.toks.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> DbResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{t}'")))
        }
    }

    fn eat_semi(&mut self) {
        while self.eat(&Token::Semi) {}
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s.to_ascii_lowercase()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn statement(&mut self) -> DbResult<Statement> {
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(Box::new(self.select()?)));
        }
        if self.at_kw("select") || self.at_kw("with") {
            return Ok(Statement::Select(Box::new(self.select()?)));
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            return self.delete();
        }
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("index") {
                return self.create_index();
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_kw("drop") {
            self.expect_kw("table")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        Err(self.err("expected a statement"))
    }

    // ---------- SELECT ----------

    fn select(&mut self) -> DbResult<SelectStmt> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                let mut cols = Vec::new();
                if self.eat(&Token::LParen) {
                    loop {
                        cols.push(self.ident()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                }
                self.expect_kw("as")?;
                self.expect(&Token::LParen)?;
                let query = self.select()?;
                self.expect(&Token::RParen)?;
                ctes.push(Cte { name, cols, query });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projections = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                projections.push(Projection::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if let Some(Token::Ident(s)) = self.peek() {
                    if RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                        None
                    } else {
                        Some(self.ident()?)
                    }
                } else {
                    None
                };
                projections.push(Projection::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            from.push(FromClause {
                kind: JoinKind::Cross,
                item: self.from_item()?,
                on: None,
            });
            loop {
                if self.eat(&Token::Comma) {
                    from.push(FromClause {
                        kind: JoinKind::Cross,
                        item: self.from_item()?,
                        on: None,
                    });
                } else if self.at_kw("left") {
                    self.expect_kw("left")?;
                    self.eat_kw("outer");
                    self.expect_kw("join")?;
                    let item = self.from_item()?;
                    self.expect_kw("on")?;
                    let on = self.expr()?;
                    from.push(FromClause {
                        kind: JoinKind::LeftOuter,
                        item,
                        on: Some(on),
                    });
                } else if self.at_kw("inner") || self.at_kw("join") {
                    self.eat_kw("inner");
                    self.expect_kw("join")?;
                    let item = self.from_item()?;
                    self.expect_kw("on")?;
                    let on = self.expr()?;
                    from.push(FromClause {
                        kind: JoinKind::Inner,
                        item,
                        on: Some(on),
                    });
                } else {
                    break;
                }
            }
        }
        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected row count after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            ctes,
            projections,
            from,
            where_,
            group_by,
            order_by,
            limit,
            distinct,
        })
    }

    #[allow(clippy::wrong_self_convention)] // "from" = SQL FROM, not a conversion
    fn from_item(&mut self) -> DbResult<FromItem> {
        let table = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            if RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(FromItem { table, alias })
    }

    // ---------- DML / DDL ----------

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut cols = Vec::new();
        // Column list vs. parenthesized SELECT: lookahead.
        if self.peek() == Some(&Token::LParen)
            && !matches!(self.peek2(), Some(t) if t.is_kw("select") || t.is_kw("with"))
        {
            self.expect(&Token::LParen)?;
            loop {
                cols.push(self.ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        let source = if self.eat_kw("values") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.eat(&Token::LParen) {
            let q = self.select()?;
            self.expect(&Token::RParen)?;
            InsertSource::Select(Box::new(q))
        } else if self.at_kw("select") || self.at_kw("with") {
            InsertSource::Select(Box::new(self.select()?))
        } else {
            return Err(self.err("expected VALUES or SELECT in INSERT"));
        };
        Ok(Statement::Insert {
            table,
            cols,
            source,
        })
    }

    fn update(&mut self) -> DbResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            // DB2 allows `set (score) = expr`.
            let parened = self.eat(&Token::LParen);
            let col = self.ident()?;
            if parened {
                self.expect(&Token::RParen)?;
            }
            self.expect(&Token::Eq)?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_,
        })
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_kw("from")?;
        let table = self.ident()?;
        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, where_ })
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut cols = Vec::new();
        loop {
            let cname = self.ident()?;
            let tyname = self.ident()?;
            let ty = ColumnType::parse(&tyname)
                .ok_or_else(|| self.err(&format!("unknown column type '{tyname}'")))?;
            cols.push((cname, ty));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable { name, cols })
    }

    fn create_index(&mut self) -> DbResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex { name, table, cols })
    }

    // ---------- expressions ----------

    fn expr(&mut self) -> DbResult<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<AstExpr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            let r = self.and_expr()?;
            e = AstExpr::Bin(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> DbResult<AstExpr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and") {
            let r = self.not_expr()?;
            e = AstExpr::Bin(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> DbResult<AstExpr> {
        if self.eat_kw("not") {
            let e = self.not_expr()?;
            return Ok(AstExpr::Not(Box::new(e)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> DbResult<AstExpr> {
        let e = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(e),
                negated,
            });
        }
        // [NOT] IN
        let negated_in = if self.at_kw("not") && self.peek2().is_some_and(|t| t.is_kw("in")) {
            self.eat_kw("not");
            true
        } else {
            false
        };
        if self.eat_kw("in") {
            self.expect(&Token::LParen)?;
            if self.at_kw("select") || self.at_kw("with") {
                let q = self.select()?;
                self.expect(&Token::RParen)?;
                return Ok(AstExpr::InSubquery {
                    expr: Box::new(e),
                    query: Box::new(q),
                    negated: negated_in,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(AstExpr::InList {
                expr: Box::new(e),
                list,
                negated: negated_in,
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let r = self.add_expr()?;
            return Ok(AstExpr::Bin(op, Box::new(e), Box::new(r)));
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> DbResult<AstExpr> {
        let mut e = self.mul_expr()?;
        loop {
            if self.eat(&Token::Plus) {
                let r = self.mul_expr()?;
                e = AstExpr::Bin(BinOp::Add, Box::new(e), Box::new(r));
            } else if self.eat(&Token::Minus) {
                let r = self.mul_expr()?;
                e = AstExpr::Bin(BinOp::Sub, Box::new(e), Box::new(r));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> DbResult<AstExpr> {
        let mut e = self.unary_expr()?;
        loop {
            if self.eat(&Token::Star) {
                let r = self.unary_expr()?;
                e = AstExpr::Bin(BinOp::Mul, Box::new(e), Box::new(r));
            } else if self.eat(&Token::Slash) {
                let r = self.unary_expr()?;
                e = AstExpr::Bin(BinOp::Div, Box::new(e), Box::new(r));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> DbResult<AstExpr> {
        if self.eat(&Token::Minus) {
            let e = self.unary_expr()?;
            return Ok(AstExpr::Neg(Box::new(e)));
        }
        if self.eat(&Token::Plus) {
            return self.unary_expr();
        }
        self.primary()
    }

    /// Interval suffix: `1 hour`, `30 minute(s)`, `10 second(s)` → seconds.
    #[allow(clippy::wrong_self_convention)]
    fn interval_suffix(&mut self, n: i64) -> AstExpr {
        let mult = match self.peek() {
            Some(Token::Ident(s)) => match s.to_ascii_lowercase().as_str() {
                "hour" | "hours" => Some(3600),
                "minute" | "minutes" => Some(60),
                "second" | "seconds" => Some(1),
                "day" | "days" => Some(86_400),
                _ => None,
            },
            _ => None,
        };
        match mult {
            Some(m) => {
                self.bump();
                AstExpr::Int(n * m)
            }
            None => AstExpr::Int(n),
        }
    }

    fn primary(&mut self) -> DbResult<AstExpr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.bump();
                Ok(self.interval_suffix(n))
            }
            Some(Token::Float(f)) => {
                self.bump();
                Ok(AstExpr::Float(f))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(AstExpr::Str(s))
            }
            Some(Token::Question) => {
                self.bump();
                let n = self.params;
                self.params += 1;
                Ok(AstExpr::Param(n))
            }
            Some(Token::LParen) => {
                self.bump();
                if self.at_kw("select") || self.at_kw("with") {
                    let q = self.select()?;
                    self.expect(&Token::RParen)?;
                    return Ok(AstExpr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(raw)) => {
                let lower = raw.to_ascii_lowercase();
                if lower == "null" {
                    self.bump();
                    return Ok(AstExpr::Null);
                }
                // Reserved words cannot start an expression: catches
                // malformed queries like `select from t`.
                if RESERVED.contains(&lower.as_str()) {
                    return Err(self.err("expected an expression"));
                }
                // `current timestamp` / `current_timestamp`
                if lower == "current_timestamp" {
                    self.bump();
                    return Ok(AstExpr::CurrentTimestamp);
                }
                if lower == "current" && self.peek2().is_some_and(|t| t.is_kw("timestamp")) {
                    self.bump();
                    self.bump();
                    return Ok(AstExpr::CurrentTimestamp);
                }
                self.bump();
                // Function call?
                if self.peek() == Some(&Token::LParen) {
                    self.bump();
                    if self.eat(&Token::Star) {
                        self.expect(&Token::RParen)?;
                        return Ok(AstExpr::Call {
                            name: lower,
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(AstExpr::Call {
                        name: lower,
                        args,
                        star: false,
                    });
                }
                // Qualified column?
                if self.eat(&Token::Dot) {
                    let name = self.ident()?;
                    return Ok(AstExpr::Column {
                        qualifier: Some(lower),
                        name,
                    });
                }
                Ok(AstExpr::Column {
                    qualifier: None,
                    name: lower,
                })
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse_statement(
            "select oid, url from crawl where relevance > 0.5 order by oid desc limit 10",
        )
        .unwrap();
        let q = match s {
            Statement::Select(q) => q,
            _ => panic!("not a select"),
        };
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert!(q.where_.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].1, "desc");
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn figure3_bulkprobe_parses() {
        // Nearly verbatim Figure 3 (names adapted: stat_c0, taxonomy, document).
        let sql = "
        with
          partial(did, kcid, lpr1) as
           (select did, taxonomy.kcid,
                   sum(freq * (logtheta + logdenom))
            from stat_c0, document, taxonomy
            where taxonomy.pcid = 7
              and stat_c0.tid = document.tid
              and stat_c0.kcid = taxonomy.kcid
            group by did, taxonomy.kcid),
          doclen(did, len) as
           (select did, sum(freq) from document
            where tid in (select tid from stat_c0)
            group by did),
          complete(did, kcid, lpr2) as
           (select did, kcid, - len * logdenom
            from doclen, taxonomy where pcid = 7)
        select c.did, c.kcid, lpr2 + coalesce(lpr1, 0)
        from complete as c left outer join partial as p
          on c.did = p.did and c.kcid = p.kcid";
        let s = parse_statement(sql).unwrap();
        let q = match s {
            Statement::Select(q) => q,
            _ => panic!(),
        };
        assert_eq!(q.ctes.len(), 3);
        assert_eq!(q.ctes[0].cols, vec!["did", "kcid", "lpr1"]);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[1].kind, JoinKind::LeftOuter);
        assert!(q.from[1].on.is_some());
    }

    #[test]
    fn figure4_distiller_parses() {
        let stmts = [
            "delete from hubs",
            "insert into hubs(oid, score)
               (select oid_src, sum(score * wgt_rev)
                from auth, link
                where sid_src <> sid_dst
                  and oid = oid_dst
                group by oid_src)",
            "update hubs set (score) = score /
               (select sum(score) from hubs);",
        ]
        .map(|sql| parse_statement(sql).unwrap());
        assert!(matches!(stmts[0], Statement::Delete { .. }));
        match &stmts[1] {
            Statement::Insert {
                table,
                cols,
                source,
            } => {
                assert_eq!(table, "hubs");
                assert_eq!(cols, &["oid", "score"]);
                assert!(matches!(source, InsertSource::Select(_)));
            }
            _ => panic!(),
        }
        match &stmts[2] {
            Statement::Update { sets, .. } => {
                assert_eq!(sets[0].0, "score");
                assert!(matches!(sets[0].1, AstExpr::Bin(BinOp::Div, _, _)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn monitoring_query_with_interval_and_current_timestamp() {
        let sql = "select minute(lastvisited), avg(exp(relevance))
                   from crawl
                   where lastvisited + 1 hour > current timestamp
                   group by minute(lastvisited)
                   order by minute(lastvisited)";
        let s = parse_statement(sql).unwrap();
        let q = match s {
            Statement::Select(q) => q,
            _ => panic!(),
        };
        assert_eq!(q.group_by.len(), 1);
        // `1 hour` became Int(3600) and current timestamp parsed.
        let w = q.where_.unwrap();
        let printed = format!("{w:?}");
        assert!(printed.contains("3600"), "{printed}");
        assert!(printed.contains("CurrentTimestamp"), "{printed}");
    }

    #[test]
    fn census_cte_query_parses() {
        let sql = "with census(kcid, cnt) as
                     (select kcid, count(oid) from crawl group by kcid)
                   select kcid, cnt, name from census, taxonomy
                   where census.kcid = taxonomy.kcid order by cnt";
        assert!(parse_statement(sql).is_ok());
    }

    #[test]
    fn hub_neighborhood_query_parses() {
        let sql = "select url, relevance from crawl where oid in
                     (select oid_dst from link
                      where oid_src in (select oid from hubs where score > 0.01)
                        and sid_src <> sid_dst)
                   and numtries = 0";
        assert!(parse_statement(sql).is_ok());
    }

    #[test]
    fn ddl_and_dml() {
        assert!(matches!(
            parse_statement("create table t (a int, b float, c text)").unwrap(),
            Statement::CreateTable { .. }
        ));
        assert!(matches!(
            parse_statement("create index i on t (a, b)").unwrap(),
            Statement::CreateIndex { .. }
        ));
        assert!(matches!(
            parse_statement("insert into t values (1, 2.5, 'x'), (2, 3.5, 'y')").unwrap(),
            Statement::Insert { .. }
        ));
        assert!(matches!(
            parse_statement("drop table t").unwrap(),
            Statement::DropTable { .. }
        ));
        assert!(matches!(
            parse_statement("delete from t where a = 1 or a = 2").unwrap(),
            Statement::Delete { .. }
        ));
    }

    #[test]
    fn count_star_and_not_in() {
        let s = parse_statement("select count(*) from t where a not in (1, 2)").unwrap();
        let q = match s {
            Statement::Select(q) => q,
            _ => panic!(),
        };
        match &q.projections[0] {
            Projection::Expr {
                expr: AstExpr::Call { star, .. },
                ..
            } => assert!(star),
            p => panic!("unexpected projection {p:?}"),
        }
        match q.where_.as_ref().unwrap() {
            AstExpr::InList { negated, .. } => assert!(*negated),
            w => panic!("unexpected where {w:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let s = parse_statement("select 1 + 2 * 3 - -4").unwrap();
        let q = match s {
            Statement::Select(q) => q,
            _ => panic!(),
        };
        // ((1 + (2*3)) - (-4))
        match &q.projections[0] {
            Projection::Expr {
                expr: AstExpr::Bin(BinOp::Sub, l, r),
                ..
            } => {
                assert!(matches!(**l, AstExpr::Bin(BinOp::Add, _, _)));
                assert!(matches!(**r, AstExpr::Neg(_)));
            }
            p => panic!("unexpected {p:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_statement("selec 1").is_err());
        assert!(parse_statement("select from").is_err());
        assert!(parse_statement("select 1 extra garbage !").is_err());
        assert!(parse_statement("create table t (a blob)").is_err());
        assert!(parse_statement("insert into t").is_err());
    }

    #[test]
    fn aliases() {
        let s = parse_statement("select c.did d from complete c, partial as p").unwrap();
        let q = match s {
            Statement::Select(q) => q,
            _ => panic!(),
        };
        assert_eq!(q.from[0].item.alias.as_deref(), Some("c"));
        assert_eq!(q.from[1].item.alias.as_deref(), Some("p"));
        match &q.projections[0] {
            Projection::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("d")),
            _ => panic!(),
        }
    }
}
