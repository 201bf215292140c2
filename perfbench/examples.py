"""The paper's worked oriented square sets, as (order, squares) data.

A copy of the worked examples the package's tests use, kept here so the
benchmark does not import the test suite.  Quadruples are
counterclockwise, smallest label first.
"""

# Two squares sharing one label; gauged solution space of dimension 2.
TWO_SQUARES_7 = (7, ((1, 4, 3, 2), (4, 7, 6, 5)))

# A chain: three squares on nine labels (dimension 6), a fourth square on
# a tenth label (dimension 4, realizable), and a fifth square that
# collapses every solution to one point (dimension 2, 45 degenerate pairs).
THREE_SQUARES_9 = (9, ((1, 3, 4, 2), (2, 5, 9, 8), (4, 7, 6, 5)))
FOUR_SQUARES_10 = (10, ((1, 3, 4, 2), (2, 5, 9, 8), (4, 7, 6, 5),
                        (3, 6, 8, 10)))
FIVE_SQUARES_10 = (10, ((1, 3, 4, 2), (2, 5, 9, 8), (4, 7, 6, 5),
                        (3, 6, 8, 10), (1, 10, 7, 9)))

# Four squares on ten labels that force a fifth, (3, 9, 4, 6).
FORCED_FIFTH = (10, ((1, 2, 3, 4), (4, 5, 6, 7), (3, 8, 9, 7),
                     (2, 10, 9, 5)))

WORKED = {
    "two-squares-7": TWO_SQUARES_7,
    "three-squares-9": THREE_SQUARES_9,
    "four-squares-10": FOUR_SQUARES_10,
    "five-squares-10": FIVE_SQUARES_10,
    "forced-fifth-10": FORCED_FIFTH,
}

# The paper's facts about them.
DIMENSIONS = {"four-squares-10": 4, "five-squares-10": 2}
GAUGED_DIMENSIONS = {"two-squares-7": 2}
DEGENERATE_PAIR_COUNTS = {"five-squares-10": 45}
FORCED = {"forced-fifth-10": ((3, 9, 4, 6),)}

# Realizable examples that also get strict_witness / grid_embed.
WITNESSED = ("two-squares-7", "forced-fifth-10")
EMBEDDED = ("two-squares-7",)

# A system without squares: realizable, of dimension 2 * order.
SQUARE_FREE = (3, ())
