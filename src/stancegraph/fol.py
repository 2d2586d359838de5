"""First-order-logic rationale parsing and instance graph construction.

The accepted line grammar (lowest precedence first):

    expr    := or_expr ( IMPLIES or_expr )*        left-associative, binary nodes
    or_expr := and_expr ( OR and_expr )*           flattened to one n-ary node
    and_expr:= unary ( AND unary )*                flattened to one n-ary node
    unary   := NOT unary | atom
    atom    := '(' expr ')' | predicate
    pred    := NAME [ '(' args ')' ]

Connective surface forms: {∧ & AND}, {∨ | OR}, {¬ ~ NOT}, {→ -> implies IMPLIES}.
A quantifier (∀ or ∃) is dropped together with the one name that follows it,
its bound variable. A NAME is a run of characters that are neither
whitespace nor one of ()∧∨¬→&|~, and that does not contain '->'.
Arguments are free strings: anything up to a top-level comma or the closing
paren, with inner whitespace collapsed; nested balanced parens stay verbatim.
At most MAX_NESTING '(', NOT and IMPLIES may be open at once (an IMPLIES
stays open until its chain ends); a deeper line is a ParseError. That bounds
the depth of every tree, which keeps the recursive parser and the recursive
graph builder well inside Python's stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .errors import EmptyGraphError, ParseError

MAX_NESTING = 100


class Relation(str, Enum):
    IMPLIES = "Implies"
    CONJUNCTION = "Conjunction"
    DISJUNCTION = "Disjunction"
    INSTANCE_OF = "InstanceOf"


@dataclass(frozen=True)
class Predicate:
    name: str
    args: tuple[str, ...] = ()
    negated: bool = False

    def canonical(self) -> str:
        sign = "¬" if self.negated else ""
        return f"{sign}{self.name}({','.join(self.args)})"


@dataclass(frozen=True)
class Connective:
    kind: str  # 'and' | 'or' | 'implies' | 'not'
    children: tuple["FolExpr", ...]


FolExpr = Union[Predicate, Connective]


# ---------------------------------------------------------------------------
# Lexer and parser

_NAME_CHAR = r"(?:[^\s()∧∨¬→&|~,-]|-(?!>))"
# Skips (whitespace, or a quantifier and its variable), then one symbol or
# name in group 1; group 1 is unset only at the end of the line.
_LEXEME = re.compile(
    rf"(?:\s|[∀∃]\s*{_NAME_CHAR}*)*(->|[()∧∨¬→&|~,]|{_NAME_CHAR}+)?")
# Token kind of each symbol and word operator; any other lexeme is a name.
_KINDS = {"(": "lparen", ")": "rparen", ",": "comma",
          "∧": "and", "&": "and", "AND": "and",
          "∨": "or", "|": "or", "OR": "or",
          "¬": "not", "~": "not", "NOT": "not",
          "→": "implies", "->": "implies", "implies": "implies",
          "IMPLIES": "implies"}


class _Parser:
    """Recursive descent with one token of lookahead, lexed on demand:
    kind, text and offset describe the next unconsumed token, and `resume`
    is where lexing continues after it."""

    def __init__(self, line: str):
        self.line = line
        self.depth = 0
        self.parse_and = partial(self.parse_nary, "and", self.parse_unary)
        self.lex(0)

    def lex(self, pos: int) -> None:
        m = _LEXEME.match(self.line, pos)
        self.resume = m.end()
        self.text = m.group(1) or ""
        if self.text:
            self.kind = _KINDS.get(self.text, "name")
            self.offset = m.start(1)
        else:
            self.kind, self.offset = "end", self.resume

    def advance(self) -> None:
        self.lex(self.resume)

    def expect(self, kind: str) -> None:
        if self.kind != kind:
            raise ParseError(f"unexpected token {self.text!r}", self.offset, {kind})
        self.advance()

    def enter(self) -> None:
        """Open one '(', NOT or IMPLIES at the lookahead token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting too deep", self.offset)
        self.advance()

    def parse(self) -> FolExpr:
        expr = self.parse_implies()
        if self.kind != "end":
            raise ParseError(f"trailing input {self.text!r}", self.offset, {"end"})
        return expr

    def parse_implies(self) -> FolExpr:
        # each → deepens the left-deep tree by one level, so it holds one
        # nesting level until this chain ends
        expr = self.parse_nary("or", self.parse_and)
        opened = 0
        while self.kind == "implies":
            self.enter()
            opened += 1
            expr = Connective("implies", (expr, self.parse_nary("or", self.parse_and)))
        self.depth -= opened
        return expr

    def parse_nary(self, kind: str, operand: Callable[[], FolExpr]) -> FolExpr:
        children = [operand()]
        while self.kind == kind:
            self.advance()
            children.append(operand())
        if len(children) == 1:
            return children[0]
        return Connective(kind, tuple(children))

    def parse_unary(self) -> FolExpr:
        if self.kind != "not":
            return self.parse_atom()
        self.enter()
        child = self.parse_unary()
        self.depth -= 1
        if isinstance(child, Predicate):
            return replace(child, negated=not child.negated)
        return Connective("not", (child,))

    def parse_atom(self) -> FolExpr:
        if self.kind == "lparen":
            self.enter()
            expr = self.parse_implies()
            self.expect("rparen")
            self.depth -= 1
            return expr
        if self.kind == "name":
            name = self.text
            self.advance()
            if self.kind != "lparen":
                return Predicate(name)
            # arguments are raw text up to the matching paren, so they may
            # hold any character; lexing resumes after that paren
            args, end = _scan_args(self.line, self.offset)
            self.lex(end)
            return Predicate(name, args)
        raise ParseError(f"unexpected token {self.text or 'end of input'!r}",
                         self.offset, {"predicate", "(", "¬"})


_ARG_MARK = re.compile(r"[(),]")


def _scan_args(line: str, open_off: int) -> tuple[tuple[str, ...], int]:
    """Arguments of the list whose '(' is at open_off, and the offset just
    past its matching ')'. Arguments are split at top-level commas, with
    inner whitespace collapsed; an all-empty list such as '( , )' has none."""
    depth, start, args = 0, open_off + 1, []
    for mark in _ARG_MARK.finditer(line, open_off):
        c, i = mark.group(), mark.start()
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                args.append(" ".join(line[start:i].split()))
                return (tuple(args) if any(args) else ()), i + 1
        elif depth == 1:
            args.append(" ".join(line[start:i].split()))
            start = i + 1
    raise ParseError("unterminated argument list", open_off, {")"})


def parse_fol_line(line: str) -> FolExpr:
    """Parse one FOL line into an expression tree.

    Raises ParseError (offset + expected-token set) on malformed input.
    """
    line = line.rstrip().rstrip(".")  # LLMs often terminate lines with a period
    if not line:
        raise ParseError("empty line", 0, {"predicate", "("})
    return _Parser(line).parse()


# ---------------------------------------------------------------------------
# Pretty printer (debug interface; round-trips through parse_fol_line)

_PRECEDENCE = {"implies": 1, "or": 2, "and": 3, "not": 4}


def format_expr(expr: FolExpr) -> str:
    return _format(expr, 0)


def _format(expr: FolExpr, parent_prec: int) -> str:
    if isinstance(expr, Predicate):
        return expr.canonical()
    prec = _PRECEDENCE[expr.kind]
    if expr.kind == "not":
        text = f"¬{_format(expr.children[0], prec)}"
    elif expr.kind == "implies":
        lhs = _format(expr.children[0], prec)
        rhs = _format(expr.children[1], prec + 1)
        text = f"{lhs} → {rhs}"
    else:
        sep = " ∧ " if expr.kind == "and" else " ∨ "
        text = sep.join(_format(c, prec + 1) for c in expr.children)
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Line extraction

_FOL_LINE_RE = re.compile(
    r"\w+\s*\([^)]*\)"            # Name(...) call syntax
    r"|[∧∨¬→~&|]"                  # symbolic connectives
    r"|->"
    r"|\b(?:AND|OR|NOT|IMPLIES|implies)\b"
)


def split_fol_lines(llm_response: str) -> tuple[list[str], int]:
    """Split an LLM response into FOL candidate lines.

    Returns (matching lines in order, count of dropped non-matching lines).
    Blank lines are ignored entirely and counted in neither bucket.
    """
    kept: list[str] = []
    dropped = 0
    for raw in llm_response.splitlines():
        line = raw.strip()
        if not line:
            continue
        if _FOL_LINE_RE.search(line):
            kept.append(line)
        else:
            dropped += 1
    return kept, dropped


# ---------------------------------------------------------------------------
# Instance graph

@dataclass
class FolNode:
    predicate: Predicate
    embedding: Optional[np.ndarray] = None
    is_schema: bool = False

    def canonical(self) -> str:
        return self.predicate.canonical()


@dataclass
class FolGraph:
    nodes: list[FolNode] = field(default_factory=list)
    edges: list[tuple[int, int, Relation]] = field(default_factory=list)

    def canonical_strings(self) -> list[str]:
        return [n.canonical() for n in self.nodes]

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "name": n.predicate.name,
                    "args": list(n.predicate.args),
                    "negated": n.predicate.negated,
                    "is_schema": n.is_schema,
                    "embedding": None if n.embedding is None else [float(x) for x in n.embedding],
                }
                for n in self.nodes
            ],
            "edges": [[s, d, r.value] for s, d, r in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FolGraph":
        nodes = []
        for nd in data["nodes"]:
            emb = nd.get("embedding")
            nodes.append(FolNode(
                predicate=Predicate(nd["name"], tuple(nd["args"]), nd["negated"]),
                embedding=None if emb is None else np.asarray(emb, dtype=np.float64),
                is_schema=nd.get("is_schema", False),
            ))
        edges = [(s, d, Relation(r)) for s, d, r in data["edges"]]
        return cls(nodes=nodes, edges=edges)


def predicate_leaves(expr: FolExpr) -> list[Predicate]:
    """Predicate leaves in left-to-right order."""
    if isinstance(expr, Predicate):
        return [expr]
    out: list[Predicate] = []
    for child in expr.children:
        out.extend(predicate_leaves(child))
    return out


def build_fol_graph(exprs: list[FolExpr]) -> FolGraph:
    """Build the instance graph: one node per distinct predicate, edges from
    connectives (antecedent→consequent leaves for implications, pairwise for
    conjunction/disjunction, the latter stored as two directed edges)."""
    index: dict[str, int] = {}
    nodes: list[FolNode] = []

    def node_of(p: Predicate) -> int:
        key = p.canonical()
        if key not in index:
            index[key] = len(nodes)
            nodes.append(FolNode(predicate=p))
        return index[key]

    for expr in exprs:
        for leaf in predicate_leaves(expr):
            node_of(leaf)
    if not nodes:
        raise EmptyGraphError("expression list contains no predicate leaves")

    edges: list[tuple[int, int, Relation]] = []
    seen: set[tuple[int, int, Relation]] = set()

    def add_edge(src: int, dst: int, rel: Relation) -> None:
        if src == dst:
            return
        key = (src, dst, rel)
        if key in seen:
            return
        seen.add(key)
        edges.append(key)

    def walk(expr: FolExpr) -> None:
        if isinstance(expr, Predicate):
            return
        if expr.kind == "implies":
            ant, cons = expr.children
            for u in predicate_leaves(ant):
                for v in predicate_leaves(cons):
                    add_edge(node_of(u), node_of(v), Relation.IMPLIES)
        elif expr.kind in ("and", "or"):
            rel = Relation.CONJUNCTION if expr.kind == "and" else Relation.DISJUNCTION
            leaves = predicate_leaves(expr)
            for a in range(len(leaves)):
                for b in range(a + 1, len(leaves)):
                    u, v = node_of(leaves[a]), node_of(leaves[b])
                    add_edge(u, v, rel)
                    add_edge(v, u, rel)
        for child in expr.children:
            walk(child)

    for expr in exprs:
        walk(expr)
    return FolGraph(nodes=nodes, edges=edges)


def fallback_graph(target: str) -> FolGraph:
    """Single synthetic node used when a rationale yields no parseable FOL.

    The caller attaches the raw-sentence embedding to the node."""
    return FolGraph(nodes=[FolNode(predicate=Predicate("Text", (target,)))], edges=[])
