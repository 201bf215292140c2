"""Shared example configurations for the test suite.

``FORCED_FIFTH`` is a ten-point set spanning exactly five squares, four of
which already determine the fifth; the label -> point map drives the
square-list and root-degree tests.  The oriented square sets form a
chain of extensions whose solution-space dimensions and realizability
verdicts are pinned in test_realize.py.
"""

from squarespan.geometry import PointSet
from squarespan.realize import OrientedSquareSet

# Ten points labelled 1..10; squares (as label sets): {1,2,3,4}, {4,5,6,7},
# {3,7,8,9}, {2,5,9,10} and the forced {3,4,6,9}.
FORCED_FIFTH = {
    1: (0, 0), 2: (2, 0), 3: (2, 2), 4: (0, 2), 5: (0, 1),
    6: (1, 1), 7: (1, 2), 8: (2, 3), 9: (1, 3), 10: (3, 2),
}

FORCED_FIFTH_SET = PointSet.of(FORCED_FIFTH.values())

FORCED_FIFTH_OSS = OrientedSquareSet(
    order=10,
    squares=((1, 2, 3, 4), (4, 5, 6, 7), (3, 8, 9, 7), (2, 10, 9, 5)))

# Two squares sharing one label; the solution space with the first two
# labels pinned is a plane (two real parameters).
TWO_SQUARES_7 = OrientedSquareSet(order=7, squares=((1, 4, 3, 2), (4, 7, 6, 5)))

# Chain of oriented square sets: three squares on nine labels (solution
# space dimension 6), a fourth square on a tenth label (dimension 4,
# still realizable), and a fifth square that collapses every solution
# to a single point (dimension 2, not realizable).
THREE_SQUARES_9 = OrientedSquareSet(
    order=9, squares=((1, 3, 4, 2), (2, 5, 9, 8), (4, 7, 6, 5)))
FOUR_SQUARES_10 = OrientedSquareSet(
    order=10, squares=((1, 3, 4, 2), (2, 5, 9, 8), (4, 7, 6, 5), (3, 6, 8, 10)))
FIVE_SQUARES_10 = OrientedSquareSet(
    order=10,
    squares=((1, 3, 4, 2), (2, 5, 9, 8), (4, 7, 6, 5), (3, 6, 8, 10),
             (1, 10, 7, 9)))

# An integer realization of FOUR_SQUARES_10, listed in label order 1..10.
FOUR_SQUARES_10_POINTS = [
    (0, 5), (5, 5), (0, 0), (5, 0), (7, 1),
    (8, -1), (6, -2), (9, 7), (11, 3), (1, 8),
]

# An integer realization of THREE_SQUARES_9, listed in label order 1..9.
THREE_SQUARES_9_POINTS = [
    (0, 1), (1, 1), (0, 0), (1, 0), (2, 1), (3, 0), (2, -1), (1, 2), (2, 2),
]
