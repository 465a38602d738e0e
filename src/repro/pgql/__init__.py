"""PGQL front-end: lexer, parser, AST, expression evaluation, validation."""

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
from repro.pgql.expressions import (
    EvalEnv,
    MappingEnv,
    evaluate,
    evaluate_predicate,
    referenced_props,
    referenced_vars,
    split_conjuncts,
)
from repro.pgql.lexer import Token, TokenType, tokenize
from repro.pgql.parser import parse
from repro.pgql.printer import expr_to_pgql, to_pgql
from repro.pgql.validator import validate


def parse_and_validate(text):
    """Parse *text* and run semantic validation; returns the Query."""
    return validate(parse(text))


def as_query(query):
    """*query* — PGQL text or an already parsed Query — as a Query.

    The text-or-Query rule of every entry point that takes a query
    (``plan_query`` and the engines' ``query``/``plan``/``submit``).
    """
    if isinstance(query, str):
        return parse_and_validate(query)
    if isinstance(query, Query):
        return query
    raise TypeError("expected PGQL text or a parsed Query")


__all__ = [
    "parse",
    "to_pgql",
    "expr_to_pgql",
    "validate",
    "parse_and_validate",
    "as_query",
    "tokenize",
    "Token",
    "TokenType",
    "Query",
    "SelectItem",
    "OrderItem",
    "PathPattern",
    "VertexPattern",
    "EdgePattern",
    "Literal",
    "VarRef",
    "PropRef",
    "IdCall",
    "LabelCall",
    "HasPropCall",
    "Unary",
    "Binary",
    "Aggregate",
    "AggregateFunc",
    "EvalEnv",
    "MappingEnv",
    "evaluate",
    "evaluate_predicate",
    "referenced_vars",
    "referenced_props",
    "split_conjuncts",
]
