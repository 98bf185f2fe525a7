import random
from fractions import Fraction

from almostdirect.linalg import Eliminator, span_rank
from oracles import spans_equal


def test_span_rank_basic():
    rows = [{"a": 1, "b": 2}, {"b": 1}, {"a": 1, "b": 3}]
    # third row = first + second
    assert span_rank(rows) == 2
    assert span_rank([]) == 0
    assert span_rank([{}]) == 0


def test_span_rank_with_fractions():
    rows = [
        {"a": Fraction(1, 2), "b": Fraction(1, 3)},
        {"a": Fraction(3, 2), "b": Fraction(1, 1)},
    ]
    assert span_rank(rows) == 1


def test_eliminator_add_reports_independence():
    el = Eliminator()
    assert el.add({"a": 1, "b": 1})
    assert el.add({"b": 1})
    assert not el.add({"a": 2, "b": 5})


def test_reduces_to_zero():
    # a row lies in the span of others when adding it keeps the rank
    rows = [{"a": 1, "b": -1}, {"b": 1, "c": 1}]
    assert span_rank(rows) == 2
    assert span_rank(rows + [{"a": 2, "c": 2}]) == 2
    assert span_rank(rows + [{"a": 1}]) == 3
    assert span_rank(rows + [{}]) == 2


def test_cancellation_inside_reduction():
    # reducing the third row against the first cancels its "b" entry;
    # the remaining "c" entry must survive as a new pivot
    el = Eliminator()
    assert el.add({"b": 1, "c": 1})
    assert el.add({"a": 1, "b": 1})
    assert el.add({"a": 1, "c": 3})
    assert span_rank([{"b": 1, "c": 1}, {"a": 1, "b": 1}, {"a": 1, "c": 3}]) == 3


def test_spans_equal():
    rows1 = [{"a": 1, "b": 1}, {"a": 1, "b": -1}]
    rows2 = [{"a": 1}, {"b": 7}]
    assert spans_equal(rows1, rows2)
    assert not spans_equal(rows1, [{"a": 1}])
    assert not spans_equal([{"a": 1}], [{"b": 1}])
    assert spans_equal([], [{}])


def test_rank_matches_dense_elimination():
    # fixed 4x5 integer matrix of rank 3 (row3 = row0 + 2*row1 - row2)
    dense = [
        [1, 0, 2, -1, 3],
        [0, 1, 1, 1, 0],
        [2, -1, 0, 0, 1],
        [-1, 3, 4, 1, 2],
    ]
    rows = [
        {j: v for j, v in enumerate(r) if v} for r in dense
    ]
    assert span_rank(rows) == 3


def dense_rank(matrix):
    """Plain Gaussian elimination over the rationals: the reference rank."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_eliminator_matches_dense_reference_on_random_matrices():
    rng = random.Random(20081)
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = [
            [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if rng.random() < 0.2
                else rng.randint(-3, 3)
                for _ in range(n_cols)
            ]
            for _ in range(n_rows)
        ]
        if n_rows >= 3 and rng.random() < 0.5:
            # replace the last row by a combination of two others
            a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2)
            matrix[-1] = [a * u + b * v for u, v in zip(matrix[0], matrix[1])]
        # sparse rows over shuffled string columns, so column order differs
        # from the dense one
        names = ["c%d" % j for j in range(n_cols)]
        rng.shuffle(names)
        rows = [{names[j]: v for j, v in enumerate(r) if v} for r in matrix]
        rank = dense_rank(matrix)
        assert span_rank(rows) == rank
        el = Eliminator()
        assert sum(el.add(row) for row in rows) == rank == el.rank
        # every row lies in the span of the pivots, so none adds again
        assert not any(el.add(row) for row in rows) and el.rank == rank
        assert spans_equal(rows, rows[::-1])
