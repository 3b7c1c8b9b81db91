"""Unit tests for the matching-kernel machinery (`repro.store.kernel`).

Kernel selection ($REPRO_KERNEL), the sorted columns and the merge-join
over them, the adjacency columns' incremental invalidation, and the per-id
signature accessor — the parts the Hypothesis parity suite exercises only
indirectly.  A numpy-free interpreter is simulated by blocking the import
(``sys.modules["numpy"] = None``) so those tests run even where numpy is
installed.
"""

import sys

import pytest

from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import (
    KERNEL_CHOICES,
    KERNEL_ENV,
    KERNEL_PYTHON,
    KERNEL_SETS,
    LocalMatcher,
    SignatureIndex,
    default_kernel,
    resolve_kernel,
)
from repro.store.encoding import encoded_view
from repro.store.kernel import SortedColumn, adjacency_view

EX = Namespace("http://example.org/")
ALICE, BOB, CAROL, DAVE = EX.term("alice"), EX.term("bob"), EX.term("carol"), EX.term("dave")
KNOWS, NAME = EX.term("knows"), EX.term("name")
LIKES = EX.term("likes")


def social_graph() -> RDFGraph:
    graph = RDFGraph()
    graph.add(Triple(ALICE, KNOWS, BOB))
    graph.add(Triple(BOB, KNOWS, CAROL))
    graph.add(Triple(CAROL, KNOWS, ALICE))
    graph.add(Triple(ALICE, KNOWS, DAVE))
    graph.add(Triple(ALICE, NAME, Literal("Alice")))
    graph.add(Triple(BOB, NAME, Literal("Bob")))
    return graph


def knows_chain() -> QueryGraph:
    return QueryGraph(
        BasicGraphPattern(
            [
                TriplePattern(Variable("x"), KNOWS, Variable("y")),
                TriplePattern(Variable("y"), KNOWS, Variable("z")),
            ]
        )
    )


@pytest.fixture
def no_numpy(monkeypatch):
    """Simulate a numpy-free interpreter: ``import numpy`` raises."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
class TestKernelResolution:
    def test_default_is_python(self, monkeypatch):
        """``perfbench/run.py`` records ``resolve_kernel(None)`` as its
        kernel: an importable numpy must not move the default off
        ``python``, only ``$REPRO_KERNEL`` may."""
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert default_kernel() == KERNEL_PYTHON
        assert resolve_kernel(None) == KERNEL_PYTHON

    def test_environment_variable_wins(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, KERNEL_SETS)
        assert default_kernel() == KERNEL_SETS
        assert resolve_kernel() == KERNEL_SETS

    def test_environment_variable_is_validated(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "bogus")
        with pytest.raises(ValueError, match="unknown kernel 'bogus'"):
            default_kernel()

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match=", ".join(KERNEL_CHOICES)):
            resolve_kernel("simd")

    def test_explicit_name_passes_through(self):
        for name in (KERNEL_PYTHON, KERNEL_SETS):
            assert resolve_kernel(name) == name

    def test_numpy_free_default_is_python(self, no_numpy, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert default_kernel() == KERNEL_PYTHON

    def test_numpy_free_vectorized_is_an_error(self, no_numpy):
        """The retired numpy kernel is an unknown name, not a fallback."""
        with pytest.raises(ValueError, match="unknown kernel 'vectorized'"):
            resolve_kernel("vectorized")

    def test_matcher_follows_the_environment(self, monkeypatch):
        matcher = LocalMatcher(social_graph())
        monkeypatch.setenv(KERNEL_ENV, KERNEL_SETS)
        list(matcher.find_matches(knows_chain()))
        assert matcher.kernel == KERNEL_SETS
        assert matcher.last_kernel == KERNEL_SETS
        monkeypatch.setenv(KERNEL_ENV, KERNEL_PYTHON)
        list(matcher.find_matches(knows_chain()))
        assert matcher.last_kernel == KERNEL_PYTHON

    def test_pinned_matcher_ignores_the_environment(self, monkeypatch):
        matcher = LocalMatcher(social_graph(), kernel=KERNEL_SETS)
        monkeypatch.setenv(KERNEL_ENV, KERNEL_PYTHON)
        list(matcher.find_matches(knows_chain()))
        assert matcher.last_kernel == KERNEL_SETS


# ----------------------------------------------------------------------
# Sorted columns (CSR rows) and the merge-join over them
# ----------------------------------------------------------------------
class TestSortedColumn:
    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 1000])
    def test_rows_tile_the_values_exactly(self, count, width):
        rows = [(3 * key, list(range(key, key + 1 + key % width))) for key in range(count)]
        column = SortedColumn(rows)
        assert column.keys == [key for key, _ in rows]
        covered = []
        for key, values in rows:
            low, high = column.bounds(key)
            assert 0 <= low <= high <= len(column.values)
            assert low == len(covered)
            assert column.row(key) == values
            covered.extend(column.values[low:high])
        assert covered == column.values
        assert column.offsets == [0] + [
            sum(len(values) for _, values in rows[: position + 1])
            for position in range(count)
        ]

    def test_absent_key_has_no_row(self):
        column = SortedColumn([(2, [5, 9]), (4, [1])])
        assert column.bounds(3) is None
        assert column.row(3) == []
        assert column.row(2) == [5, 9]


def two_hub_graph(knows_ids, likes_ids) -> RDFGraph:
    """Hub ``a`` knows ``y<i>`` for ``knows_ids``; hub ``b`` likes ``y<j>``."""
    graph = RDFGraph()
    hub_a, hub_b = EX.term("a"), EX.term("b")
    graph.add(Triple(hub_a, NAME, Literal("A")))
    graph.add(Triple(hub_b, NAME, Literal("B")))
    for index in knows_ids:
        graph.add(Triple(hub_a, KNOWS, EX.term(f"y{index}")))
    for index in likes_ids:
        graph.add(Triple(hub_b, LIKES, EX.term(f"y{index}")))
    return graph


OVERLAPS = {
    "disjoint": lambda size: (range(0, 2 * size, 2), range(1, 2 * size, 2)),
    "interleaved": lambda size: (range(0, 2 * size, 2), range(0, 3 * size, 3)),
    "nested": lambda size: (range(size), range(0, size, 2)),
}


class TestMergeJoin:
    @pytest.mark.parametrize("overlap", sorted(OVERLAPS))
    @pytest.mark.parametrize("size", [0, 1, 7, 64])
    def test_two_row_intersection_is_the_set_intersection(self, size, overlap):
        """``?y`` must sit in hub a's ``knows`` row and hub b's ``likes``
        row: the sorted-column merge-join yields exactly the common ids, in
        the oracle's order and with the oracle's ``search_steps``."""
        knows_ids, likes_ids = OVERLAPS[overlap](size)
        graph = two_hub_graph(knows_ids, likes_ids)
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("a"), NAME, Literal("A")),
                    TriplePattern(Variable("b"), NAME, Literal("B")),
                    TriplePattern(Variable("a"), KNOWS, Variable("y")),
                    TriplePattern(Variable("b"), LIKES, Variable("y")),
                ]
            )
        )
        python = LocalMatcher(graph, kernel=KERNEL_PYTHON)
        sets = LocalMatcher(graph, kernel=KERNEL_SETS)
        matches = list(python.find_matches(query))
        assert matches == list(sets.find_matches(query))
        assert python.search_steps == sets.search_steps
        expected = {EX.term(f"y{index}") for index in set(knows_ids) & set(likes_ids)}
        assert {match[Variable("y")] for match in matches} == expected
        assert len(matches) == len(expected)


# ----------------------------------------------------------------------
# Sorted adjacency columns
# ----------------------------------------------------------------------
class TestSortedAdjacency:
    def test_view_is_cached(self):
        encoded = encoded_view(social_graph())
        assert adjacency_view(encoded) is adjacency_view(encoded)

    def test_columns_are_sorted_and_complete(self):
        graph = social_graph()
        encoded = encoded_view(graph)
        adjacency = adjacency_view(encoded)
        code = encoded.dictionary.id_of(KNOWS)
        alice = encoded.dictionary.id_of(ALICE)
        row = list(adjacency.objects_from(alice, code))
        assert row == sorted(row)
        assert {encoded.dictionary.n3_of(v) for v in row} == {BOB.n3(), DAVE.n3()}
        keys = list(adjacency.subject_keys(code))
        assert keys == sorted(keys)

    def test_vertex_pool_is_the_candidate_sort_order(self):
        encoded = encoded_view(social_graph())
        adjacency = adjacency_view(encoded)
        ids = adjacency.vertex_pool()
        assert tuple(ids) == encoded.sorted_vertex_ids
        assert adjacency.vertex_pool() is ids  # memoized

    def test_invalidate_drops_only_the_touched_predicates(self):
        encoded = encoded_view(social_graph())
        adjacency = adjacency_view(encoded)
        knows = encoded.dictionary.id_of(KNOWS)
        name = encoded.dictionary.id_of(NAME)
        knows_column = adjacency.out_column(knows)
        name_column = adjacency.out_column(name)
        adjacency.invalidate({knows})
        assert adjacency.out_column(knows) is not knows_column
        assert adjacency.out_column(name) is name_column

    @pytest.mark.parametrize("kernel", [KERNEL_SETS, KERNEL_PYTHON])
    def test_mutation_then_query_sees_the_new_edges(self, kernel):
        graph = social_graph()
        matcher = LocalMatcher(graph, kernel=kernel)
        query = knows_chain()
        before = list(matcher.find_matches(query))
        graph.add(Triple(DAVE, KNOWS, CAROL))
        after = list(matcher.find_matches(query))
        assert len(after) > len(before)
        # A cold matcher over an identical graph agrees exactly — the
        # incrementally patched columns are not an approximation.
        fresh = LocalMatcher(graph.copy(), kernel=kernel)
        assert list(fresh.find_matches(query)) == after
        assert fresh.search_steps == matcher.search_steps


# ----------------------------------------------------------------------
# Per-id signature bits (the kernel's filter input)
# ----------------------------------------------------------------------
class TestBitsMatrix:
    def test_stale_encoded_view_is_an_error(self):
        graph = social_graph()
        index = SignatureIndex(graph)
        other = encoded_view(social_graph())
        with pytest.raises(ValueError, match="different graph"):
            index.bits_matrix(other)

    def test_rows_are_the_per_term_signatures(self):
        graph = social_graph()
        index = SignatureIndex(graph)
        encoded = encoded_view(graph)
        matrix = index.bits_matrix(encoded)
        assert len(matrix) == len(encoded.dictionary)
        for term in (ALICE, BOB, CAROL, DAVE, Literal("Alice")):
            assert matrix[encoded.dictionary.id_of(term)] == index.signature_of(term).bits

    def test_matrix_refreshes_after_mutation(self):
        graph = social_graph()
        index = SignatureIndex(graph)
        before = len(index.bits_matrix(encoded_view(graph)))
        graph.add(Triple(DAVE, NAME, Literal("Dave")))
        encoded = encoded_view(graph)
        fresh = index.bits_matrix(encoded)
        assert len(fresh) > before
        dave_name = encoded.dictionary.id_of(Literal("Dave"))
        assert fresh[dave_name] != 0
        assert fresh[encoded.dictionary.id_of(DAVE)] == SignatureIndex(graph).signature_of(DAVE).bits


# ----------------------------------------------------------------------
# Numpy-free end to end
# ----------------------------------------------------------------------
class TestNumpyFreeMatching:
    def test_python_kernel_matches_sets_without_numpy(self, no_numpy, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        graph = social_graph()
        query = knows_chain()
        default = LocalMatcher(graph)
        sets = LocalMatcher(graph, kernel=KERNEL_SETS)
        default_matches = list(default.find_matches(query))
        sets_matches = list(sets.find_matches(query))
        assert default.last_kernel == KERNEL_PYTHON
        assert default_matches == sets_matches
        assert default.search_steps == sets.search_steps
