"""Recursive-descent parser for the PGQL subset.

Grammar sketch (see DESIGN.md §6 for coverage notes)::

    query        := SELECT select_list WHERE where_list
                    [GROUP BY expr_list] [HAVING expr]
                    [ORDER BY order_list] [LIMIT number]
    select_list  := select_item ("," select_item)*
    select_item  := expr [AS ident]
    where_list   := where_elem ("," where_elem)*
    where_elem   := path | expr                 -- disambiguated by backtracking
    path         := vertex (edge vertex)*
    vertex       := "(" [ident] [":" ident] [WITH expr] ")"
    edge         := "->" | "<-"                            -- anonymous shorthand
                  | "-" "[" [ident] [":" ident] "]" "->"   -- forward
                  | "<-" "[" [ident] [":" ident] "]" "-"   -- reverse

Inside a ``WITH`` filter, bare identifiers and argument-less ``id()`` /
``label()`` calls refer to the enclosing vertex; the parser rewrites them
to qualified references immediately, so downstream passes only ever see
``PropRef`` / ``IdCall`` / ``LabelCall`` with explicit variables.
"""

from repro.errors import PgqlSyntaxError
from repro.graph.types import Direction
from repro.pgql.ast import (
    Aggregate,
    AggregateFunc,
    Binary,
    EdgePattern,
    HasPropCall,
    IdCall,
    LabelCall,
    Literal,
    OrderItem,
    PathPattern,
    PropRef,
    Query,
    SelectItem,
    Unary,
    VarRef,
    VertexPattern,
)
from repro.pgql.lexer import TokenType, tokenize

#: How deep an expression may nest — parentheses, ``NOT``, unary minus
#: and chains of binary operators alike.  Parsing, validation, printing
#: and predicate generation all recurse over the tree, so past roughly
#: 150 levels Python's recursion limit would end a query with a raw
#: ``RecursionError``; this bound keeps every pass well inside it.
MAX_EXPRESSION_DEPTH = 64

_AGG_KEYWORDS = {
    "COUNT": AggregateFunc.COUNT,
    "SUM": AggregateFunc.SUM,
    "AVG": AggregateFunc.AVG,
    "MIN": AggregateFunc.MIN,
    "MAX": AggregateFunc.MAX,
}


def parse(text):
    """Parse *text* into a :class:`repro.pgql.ast.Query`."""
    return _Parser(text).parse_query()


class _Parser:
    def __init__(self, text):
        self._tokens = tokenize(text)
        self._pos = 0
        self._anon_counter = 0
        self._nesting = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset=0):
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self):
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect_symbol(self, value):
        token = self._advance()
        if not token.is_symbol(value):
            raise PgqlSyntaxError(
                "expected %r, found %r" % (value, token.value), token.position
            )
        return token

    def _expect_keyword(self, value):
        token = self._advance()
        if not token.is_keyword(value):
            raise PgqlSyntaxError(
                "expected %s, found %r" % (value, token.value), token.position
            )
        return token

    def _expect_ident(self):
        token = self._advance()
        if token.type is not TokenType.IDENT:
            raise PgqlSyntaxError(
                "expected identifier, found %r" % (token.value,), token.position
            )
        return token.value

    def _accept_symbol(self, value):
        if self._peek().is_symbol(value):
            self._advance()
            return True
        return False

    def _accept_keyword(self, value):
        if self._peek().is_keyword(value):
            self._advance()
            return True
        return False

    def _fresh_var(self, prefix):
        name = "$%s%d" % (prefix, self._anon_counter)
        self._anon_counter += 1
        return name

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def parse_query(self):
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        select_items = self._parse_select_list()
        self._expect_keyword("WHERE")
        paths, constraints = self._parse_where_list()

        group_by = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept_symbol(","):
                group_by.append(self._parse_expression())

        having = None
        if self._accept_keyword("HAVING"):
            having = self._parse_expression()

        order_by = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_symbol(","):
                order_by.append(self._parse_order_item())

        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._advance()
            if token.type is not TokenType.NUMBER or isinstance(token.value, float):
                raise PgqlSyntaxError("LIMIT expects an integer", token.position)
            limit = token.value

        trailing = self._peek()
        if trailing.type is not TokenType.EOF:
            raise PgqlSyntaxError(
                "unexpected trailing input: %r" % (trailing.value,),
                trailing.position,
            )
        return Query(
            select_items,
            paths,
            constraints,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_list(self):
        items = [self._parse_select_item()]
        while self._peek().is_symbol(","):
            # A comma could also start the WHERE clause's pattern list only
            # after WHERE; inside SELECT it always separates select items.
            self._advance()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self):
        expr = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _parse_order_item(self):
        expr = self._parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr, ascending)

    # ------------------------------------------------------------------
    # WHERE clause: paths and constraints, disambiguated by backtracking
    # ------------------------------------------------------------------
    def _parse_where_list(self):
        paths = []
        constraints = []
        while True:
            element = self._parse_where_element()
            if isinstance(element, PathPattern):
                paths.append(element)
            else:
                constraints.append(element)
            if not self._accept_symbol(","):
                break
        return paths, constraints

    def _parse_where_element(self):
        if self._peek().is_symbol("("):
            saved = self._pos
            saved_anon = self._anon_counter
            try:
                return self._parse_path()
            except PgqlSyntaxError:
                self._pos = saved
                self._anon_counter = saved_anon
        return self._parse_expression()

    def _parse_path(self):
        vertices = [self._parse_vertex()]
        edges = []
        while True:
            edge = self._try_parse_edge()
            if edge is None:
                break
            edges.append(edge)
            vertices.append(self._parse_vertex())
        return PathPattern(vertices, edges)

    def _parse_vertex(self):
        self._expect_symbol("(")
        var = None
        label = None
        filter_expr = None
        token = self._peek()
        if token.type is TokenType.IDENT:
            var = self._advance().value
        if self._accept_symbol(":"):
            label = self._expect_ident()
        anonymous = var is None
        if anonymous:
            var = self._fresh_var("v")
        if self._accept_keyword("WITH"):
            filter_expr = self._parse_expression(implicit_var=var)
        self._expect_symbol(")")
        return VertexPattern(var, label=label, filter=filter_expr,
                             anonymous=anonymous)

    def _try_parse_edge(self):
        token = self._peek()
        if token.is_symbol("->"):
            self._advance()
            return EdgePattern(self._fresh_var("e"), direction=Direction.OUT,
                               anonymous=True)
        if token.is_symbol("-") and self._peek(1).is_symbol("["):
            self._advance()
            var, label = self._parse_edge_body()
            self._expect_symbol("->")
            anonymous = var is None
            if anonymous:
                var = self._fresh_var("e")
            return EdgePattern(var, label=label, direction=Direction.OUT,
                               anonymous=anonymous)
        if token.is_symbol("-") and self._peek(1).is_symbol("/"):
            self._advance()
            label, min_hops, max_hops = self._parse_quantified_body()
            self._expect_symbol("->")
            return EdgePattern(
                self._fresh_var("e"), label=label, direction=Direction.OUT,
                anonymous=True, min_hops=min_hops, max_hops=max_hops,
            )
        if token.is_symbol("<-"):
            self._advance()
            if self._peek().is_symbol("["):
                var, label = self._parse_edge_body()
                self._expect_symbol("-")
            elif self._peek().is_symbol("/"):
                label, min_hops, max_hops = self._parse_quantified_body()
                self._expect_symbol("-")
                return EdgePattern(
                    self._fresh_var("e"), label=label,
                    direction=Direction.IN, anonymous=True,
                    min_hops=min_hops, max_hops=max_hops,
                )
            else:
                var, label = None, None
            anonymous = var is None
            if anonymous:
                var = self._fresh_var("e")
            return EdgePattern(var, label=label, direction=Direction.IN,
                               anonymous=anonymous)
        return None

    def _parse_quantified_body(self):
        """``/:label{m,n}/`` — the body of a variable-length edge."""
        self._expect_symbol("/")
        label = None
        if self._accept_symbol(":"):
            label = self._expect_ident()
        self._expect_symbol("{")
        min_token = self._advance()
        if min_token.type is not TokenType.NUMBER or \
                isinstance(min_token.value, float):
            raise PgqlSyntaxError("path quantifier expects integers",
                                  min_token.position)
        self._expect_symbol(",")
        max_token = self._advance()
        if max_token.type is not TokenType.NUMBER or \
                isinstance(max_token.value, float):
            raise PgqlSyntaxError("path quantifier expects integers",
                                  max_token.position)
        self._expect_symbol("}")
        self._expect_symbol("/")
        return label, min_token.value, max_token.value

    def _parse_edge_body(self):
        self._expect_symbol("[")
        var = None
        label = None
        if self._peek().type is TokenType.IDENT:
            var = self._advance().value
        if self._accept_symbol(":"):
            label = self._expect_ident()
        self._expect_symbol("]")
        return var, label

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expression(self, implicit_var=None):
        position = self._peek().position
        expr = self._nested(self._parse_or, implicit_var)
        if self._nesting == 0 and _height(expr) > MAX_EXPRESSION_DEPTH:
            raise _too_deep(position)
        return expr

    def _nested(self, parse, implicit_var):
        """``parse(implicit_var)`` one nesting level down: the parser's
        own recursion stops at :data:`MAX_EXPRESSION_DEPTH`."""
        if self._nesting >= MAX_EXPRESSION_DEPTH:
            raise _too_deep(self._peek().position)
        self._nesting += 1
        try:
            return parse(implicit_var)
        finally:
            self._nesting -= 1

    def _parse_or(self, implicit_var):
        expr = self._parse_and(implicit_var)
        while self._accept_keyword("OR"):
            expr = Binary("OR", expr, self._parse_and(implicit_var))
        return expr

    def _parse_and(self, implicit_var):
        expr = self._parse_not(implicit_var)
        while self._accept_keyword("AND"):
            expr = Binary("AND", expr, self._parse_not(implicit_var))
        return expr

    def _parse_not(self, implicit_var):
        if self._accept_keyword("NOT"):
            return Unary("NOT", self._nested(self._parse_not, implicit_var))
        return self._parse_comparison(implicit_var)

    def _parse_comparison(self, implicit_var):
        expr = self._parse_additive(implicit_var)
        token = self._peek()
        for op in ("=", "!=", "<=", ">=", "<", ">"):
            if token.is_symbol(op):
                self._advance()
                return Binary(op, expr, self._parse_additive(implicit_var))
        return expr

    def _parse_additive(self, implicit_var):
        expr = self._parse_multiplicative(implicit_var)
        while True:
            token = self._peek()
            if token.is_symbol("+") or token.is_symbol("-"):
                self._advance()
                rhs = self._parse_multiplicative(implicit_var)
                expr = Binary(token.value, expr, rhs)
            else:
                return expr

    def _parse_multiplicative(self, implicit_var):
        expr = self._parse_unary(implicit_var)
        while True:
            token = self._peek()
            if token.is_symbol("*") or token.is_symbol("/") or token.is_symbol("%"):
                self._advance()
                expr = Binary(token.value, expr, self._parse_unary(implicit_var))
            else:
                return expr

    def _parse_unary(self, implicit_var):
        if self._accept_symbol("-"):
            return Unary("-", self._nested(self._parse_unary, implicit_var))
        return self._parse_primary(implicit_var)

    def _parse_primary(self, implicit_var):
        token = self._peek()
        if token.is_symbol("("):
            self._advance()
            expr = self._parse_expression(implicit_var)
            self._expect_symbol(")")
            return expr
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.type is TokenType.KEYWORD and token.value in _AGG_KEYWORDS:
            return self._parse_aggregate(implicit_var)
        if token.type is TokenType.IDENT:
            return self._parse_reference(implicit_var)
        raise PgqlSyntaxError(
            "unexpected token %r in expression" % (token.value,), token.position
        )

    def _parse_aggregate(self, implicit_var):
        func = _AGG_KEYWORDS[self._advance().value]
        self._expect_symbol("(")
        distinct = self._accept_keyword("DISTINCT")
        if func is AggregateFunc.COUNT and self._accept_symbol("*"):
            self._expect_symbol(")")
            return Aggregate(func, None, distinct)
        arg = self._parse_expression(implicit_var)
        self._expect_symbol(")")
        return Aggregate(func, arg, distinct)

    def _parse_reference(self, implicit_var):
        name = self._expect_ident()
        # Bare calls bind to the WITH filter's vertex: ``id()``, ``label()``.
        if self._peek().is_symbol("(") and implicit_var is not None \
                and name in ("id", "label"):
            self._advance()
            self._expect_symbol(")")
            if name == "id":
                return IdCall(implicit_var)
            return LabelCall(implicit_var)
        if self._accept_symbol("."):
            member = self._expect_ident()
            if self._accept_symbol("("):
                if member == "id":
                    self._expect_symbol(")")
                    return IdCall(name)
                if member == "label":
                    self._expect_symbol(")")
                    return LabelCall(name)
                if member == "has":
                    token = self._advance()
                    if token.type is not TokenType.STRING:
                        raise PgqlSyntaxError(
                            "has() expects a string literal", token.position
                        )
                    self._expect_symbol(")")
                    return HasPropCall(name, token.value)
                raise PgqlSyntaxError(
                    "unknown method %r (supported: id, label, has)" % member,
                    self._peek().position,
                )
            return PropRef(name, member)
        if implicit_var is not None:
            # Inside WITH, a bare identifier is a property of the vertex.
            return PropRef(implicit_var, name)
        return VarRef(name)


def _too_deep(position):
    return PgqlSyntaxError(
        "expression nests deeper than the limit of %d levels"
        % MAX_EXPRESSION_DEPTH, position,
    )


def _height(expr):
    """Levels of *expr*'s tree, counted without recursion."""
    height = 0
    pending = [(expr, 1)]
    while pending:
        node, level = pending.pop()
        height = max(height, level)
        pending.extend((child, level + 1) for child in node.children())
    return height
