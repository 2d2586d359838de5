"""Grammar, parsing, and instance-graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancegraph.embed import HashEmbeddingProvider
from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import EmptyGraphError, ParseError
from stancegraph.fol import (MAX_NESTING, Connective, Predicate, Relation,
                             build_fol_graph, format_expr, parse_fol_line,
                             predicate_leaves, split_fol_lines)
from stancegraph.pipeline import GenerateStats, rationale_to_graph
from tests.oracle import oracle_parse_fol_line


class TestExtractFolBlock:
    def test_single_matching_line(self):
        text = "The claim holds.\nSupport(Masks)\nTherefore favor."
        assert split_fol_lines(text)[0] == ["Support(Masks)"]

    def test_empty_input(self):
        assert split_fol_lines("") == ([], 0)

    def test_grammar_line_kept_noise_dropped(self):
        assert split_fol_lines("A(x) ∧ B(x) → C(x)\nnoise")[0] == \
            ["A(x) ∧ B(x) → C(x)"]

    def test_dropped_count(self):
        _, dropped = split_fol_lines("noise one\nA(x)\nnoise two")
        assert dropped == 2


class TestParseFolLine:
    def test_implies_with_args(self):
        expr = parse_fol_line("Reduce(Vaccines,Risk) → Support(Vaccines)")
        assert isinstance(expr, Connective) and expr.kind == "implies"
        lhs, rhs = expr.children
        assert lhs == Predicate("Reduce", ("Vaccines", "Risk"))
        assert rhs == Predicate("Support", ("Vaccines",))

    def test_negation_folds_into_leaf(self):
        expr = parse_fol_line("¬Safe(Policy)")
        assert expr == Predicate("Safe", ("Policy",), negated=True)

    def test_precedence_implies_lowest(self):
        expr = parse_fol_line("A(x) ∧ B(x) → C(x)")
        assert expr.kind == "implies"
        conj, cons = expr.children
        assert conj.kind == "and"
        assert [p.name for p in conj.children] == ["A", "B"]
        assert cons == Predicate("C", ("x",))

    def test_ascii_operators(self):
        assert parse_fol_line("A(x) & B(x) -> C(x)") == \
            parse_fol_line("A(x) ∧ B(x) → C(x)")

    def test_implies_left_associative(self):
        expr = parse_fol_line("A(x) → B(x) → C(x)")
        assert expr.kind == "implies"
        assert expr.children[0].kind == "implies"

    def test_error_reports_offset_and_expected(self):
        with pytest.raises(ParseError) as exc:
            parse_fol_line("A(x) →")
        assert exc.value.offset is not None
        assert exc.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_fol_line("A(x")

    def test_empty_line(self):
        with pytest.raises(ParseError):
            parse_fol_line("   ")

    def test_word_operator_is_not_a_predicate_name(self):
        with pytest.raises(ParseError):
            parse_fol_line("A ∧ OR")


class TestBuildFolGraph:
    def _embed(self, graph):
        return graph

    def test_implies_over_conjunction(self):
        expr = parse_fol_line("A(x) ∧ B(x) → C(x)")
        graph = build_fol_graph([expr])
        assert len(graph.nodes) == 3
        names = {n.predicate.canonical(): i for i, n in enumerate(graph.nodes)}
        edges = set(graph.edges)
        a, b, c = names["A(x)"], names["B(x)"], names["C(x)"]
        assert (a, c, Relation.IMPLIES) in edges
        assert (b, c, Relation.IMPLIES) in edges
        assert (a, b, Relation.CONJUNCTION) in edges
        assert (b, a, Relation.CONJUNCTION) in edges

    def test_single_atom(self):
        graph = build_fol_graph([Predicate("A", ("x",))])
        assert len(graph.nodes) == 1 and graph.edges == []

    def test_deduplication(self):
        expr = parse_fol_line("A(x) → B(x)")
        graph = build_fol_graph([expr, expr])
        assert len(graph.nodes) == 2
        assert len(graph.edges) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyGraphError):
            build_fol_graph([])


class TestCanonical:
    def test_args(self):
        assert Predicate("Reduce", ("Vaccines", "Risk")).canonical() == \
            "Reduce(Vaccines,Risk)"

    def test_negated(self):
        assert Predicate("Safe", ("Policy",), negated=True).canonical() == \
            "¬Safe(Policy)"

    def test_zero_arity(self):
        assert Predicate("P", ()).canonical() == "P()"


# Names the grammar reads as word operators are not predicate names.
_WORD_OPERATORS = {"AND", "OR", "NOT", "IMPLIES"}
_name = st.from_regex(r"[A-Z][A-Za-z]{0,6}", fullmatch=True).filter(
    lambda name: name not in _WORD_OPERATORS)
_arg = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True)


def _predicates():
    return st.builds(
        lambda n, args, neg: Predicate(n, tuple(args), negated=neg),
        _name, st.lists(_arg, max_size=3), st.booleans())


def _exprs(depth=3):
    if depth == 0:
        return _predicates()
    sub = _exprs(depth - 1)
    return st.one_of(
        _predicates(),
        st.builds(lambda a, b: Connective("implies", (a, b)), sub, sub),
        st.builds(lambda kids: Connective("and", tuple(kids)),
                  st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda kids: Connective("or", tuple(kids)),
                  st.lists(sub, min_size=2, max_size=3)),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_format_parse_roundtrip(expr):
    assert parse_fol_line(format_expr(expr)) == expr


@settings(max_examples=100, deadline=None)
@given(_exprs())
def test_parse_deterministic(expr):
    line = format_expr(expr)
    assert parse_fol_line(line) == parse_fol_line(line)


def test_predicate_leaves_order():
    expr = parse_fol_line("A(x) ∧ B(x) → C(x)")
    assert [p.name for p in predicate_leaves(expr)] == ["A", "B", "C"]


def test_graph_round_trip_dict():
    expr = parse_fol_line("A(x) → B(x)")
    graph = build_fol_graph([expr])
    for node in graph.nodes:
        node.embedding = embed_text(node.predicate.canonical(), 8)
    doc = graph.to_dict()
    clone = type(graph).from_dict(doc)
    assert clone.to_dict() == doc
    np.testing.assert_array_equal(clone.nodes[0].embedding,
                                  graph.nodes[0].embedding)


class TestNesting:
    def test_parens_and_negations_at_the_bound_parse(self):
        assert MAX_NESTING == 100
        assert parse_fol_line("(" * 100 + "A" + ")" * 100) == Predicate("A")
        assert parse_fol_line("¬" * 100 + "A(x)") == Predicate("A", ("x",))
        assert parse_fol_line("¬(" * 50 + "A" + ")" * 50) == Predicate("A")

    @pytest.mark.parametrize("line", [
        "(" * 10_000 + "A" + ")" * 10_000,
        "¬" * 10_000 + "A",
        "(¬" * 5_000 + "A" + ")" * 5_000,
        "(" * 101 + "A" + ")" * 101,
        "¬" * 101 + "A",
    ])
    def test_deeper_lines_are_parse_errors(self, line):
        with pytest.raises(ParseError, match="^nesting too deep") as exc:
            parse_fol_line(line)
        assert exc.value.offset == 100

    def test_too_deep_line_counts_as_unparsed(self):
        stats = GenerateStats()
        rationale = "(" * 10_000 + "A(x)" + ")" * 10_000 + "\nB(x) → C(x)"
        graph = rationale_to_graph(rationale, "t", HashEmbeddingProvider(8),
                                   stats)
        assert graph.canonical_strings() == ["B(x)", "C(x)"]
        assert stats.unparsed_lines == 1


# Differential tests: the on-demand lexer against the reference parser in
# tests/oracle.py, which tokenizes the whole line first and re-reads each
# argument list from the raw string. Same tree, or same ParseError message,
# offset and expected set.

def _outcome(parse, line):
    try:
        return parse(line)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset, exc.expected)


def _assert_same_as_oracle(line):
    assert _outcome(parse_fol_line, line) == \
        _outcome(oracle_parse_fol_line, line), repr(line)


_PIECES = (list("()∧∨¬→&|~,-> .:∀∃") + ["->", "\x1c", "\x85", "\u3000", "\t"]
           + ["A", "Pred", "x", "y1", "a-b", "p.q", "AND", "OR", "NOT",
              "implies", "IMPLIES", "And", "ORx"]
           + ["()", "(,)", "P( a ,b )", "Q(f(x), )", "R(g(a ,b))", "S(x->y)"])


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_PIECES), max_size=40)
       .map(lambda pieces: "".join(pieces)[:60]))
def test_parse_matches_oracle_on_connective_strings(line):
    _assert_same_as_oracle(line)


def test_parse_matches_oracle_on_random_bytes():
    rng = np.random.default_rng(2024)
    for _ in range(20_000):
        raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 40)),
                                 dtype=np.uint8))
        _assert_same_as_oracle(raw.decode("utf-8", errors="replace"))
