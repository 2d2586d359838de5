"""Long → chains: each → holds one nesting level until its chain ends, so
MAX_NESTING bounds the depth of the left-deep tree that build_fol_graph
walks."""

import pytest

from stancegraph.embed import HashEmbeddingProvider
from stancegraph.errors import ParseError
from stancegraph.fol import MAX_NESTING, build_fol_graph, parse_fol_line
from stancegraph.pipeline import GenerateStats, rationale_to_graph


def chain(links: int) -> str:
    return " → ".join(f"P{i}(x)" for i in range(links))


def test_a_chain_at_the_bound_parses_and_builds():
    graph = build_fol_graph([parse_fol_line(chain(MAX_NESTING + 1))])
    assert len(graph.nodes) == MAX_NESTING + 1
    assert len(graph.edges) == MAX_NESTING * (MAX_NESTING + 1) // 2


def test_a_chain_of_100_links_parses():
    graph = build_fol_graph([parse_fol_line(chain(100))])
    assert len(graph.edges) == 99 * 100 // 2


@pytest.mark.parametrize("links", [MAX_NESTING + 2, 1_500, 10_000])
def test_a_longer_chain_is_a_parse_error(links):
    line = chain(links)
    with pytest.raises(ParseError, match="^nesting too deep") as exc:
        parse_fol_line(line)
    assert exc.value.offset == line.index("→", len(chain(MAX_NESTING + 1)))


def test_arrows_share_the_counter_with_parens_and_negations():
    def nested(links):
        return "(" * 25 + "¬(" * 25 + chain(links) + ")" * 50

    parse_fol_line(nested(26))
    with pytest.raises(ParseError, match="^nesting too deep"):
        parse_fol_line(nested(27))


def test_a_chain_releases_its_levels_when_it_ends():
    line = " ∧ ".join(f"({chain(60)})" for _ in range(5)) + " → Q(x)"
    graph = build_fol_graph([parse_fol_line(line)])
    assert len(graph.nodes) == 61


def test_a_too_long_chain_counts_as_unparsed():
    stats = GenerateStats()
    rationale = chain(1_500) + "\nB(x) → C(x)"
    graph = rationale_to_graph(rationale, "t", HashEmbeddingProvider(8), stats)
    assert graph.canonical_strings() == ["B(x)", "C(x)"]
    assert stats.unparsed_lines == 1
