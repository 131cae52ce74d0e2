"""The Figure 2 interaction structure: trigger-category × action-category.

Figure 2's heat map shows which category pairs carry add count: IoT
services "serve as both triggers (usually paired with service categories
of 1, 5, 9) and actions (paired with service categories of 1, 7, 9, 12)";
social networks sync with each other; online services notify via personal
managers; and so on.

We encode those qualitative affinities in a base matrix and then run
iterative proportional fitting (IPF) so the row sums match Table 1's
trigger add-count marginals and the column sums match its action
add-count marginals exactly.  Sampling applet category pairs from the
fitted matrix reproduces both the marginals and the hot-spot structure.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ecosystem.categories import CATEGORIES, action_addcount_weights, trigger_addcount_weights

N_CATEGORIES = len(CATEGORIES)

#: Qualitative affinity boosts: (trigger category, action category, factor).
_AFFINITY_BOOSTS = [
    # IoT triggers pair with smarthome, smartphone, personal-manager actions.
    *[(i, 1, 6.0) for i in (1, 2, 3, 4)],
    *[(i, 5, 3.0) for i in (1, 2, 3, 4)],
    *[(i, 9, 3.0) for i in (1, 2, 3, 4)],
    # IoT actions pair with smarthome, online, personal, time/location triggers.
    *[(1, j, 6.0) for j in (2, 3, 4)],
    (7, 1, 4.0), (9, 1, 4.0), (12, 1, 5.0),
    (7, 2, 2.0), (9, 2, 2.0), (12, 2, 2.0),
    # Social-network sync (top non-IoT use case).
    (10, 10, 8.0),
    # Online services / RSS notify users and log to storage.
    (7, 9, 4.0), (8, 9, 3.0), (7, 6, 2.0), (8, 6, 2.0),
    # Time/location drives personal managers and phones.
    (12, 9, 4.0), (12, 5, 3.0),
    # Email to storage and personal managers; and back.
    (13, 6, 3.0), (13, 9, 3.0), (10, 6, 2.0),
    # Phones log to storage and notify.
    (5, 6, 2.0), (5, 9, 2.0),
]


def base_affinity_matrix() -> List[List[float]]:
    """The pre-IPF qualitative affinity matrix (1-indexed categories)."""
    matrix = [[1.0] * N_CATEGORIES for _ in range(N_CATEGORIES)]
    for trigger_cat, action_cat, factor in _AFFINITY_BOOSTS:
        matrix[trigger_cat - 1][action_cat - 1] *= factor
    return matrix


def ipf_fit(
    matrix: List[List[float]],
    row_targets: Sequence[float],
    col_targets: Sequence[float],
    iterations: int = 200,
    tolerance: float = 1e-9,
) -> List[List[float]]:
    """Iterative proportional fitting of a non-negative matrix.

    Scales rows then columns alternately until row sums match
    ``row_targets`` and column sums match ``col_targets`` (both target
    vectors are normalized to sum to 1 internally).  Zero targets zero
    out their row/column.
    """
    n_rows, n_cols = len(matrix), len(matrix[0])
    if len(row_targets) != n_rows or len(col_targets) != n_cols:
        raise ValueError("target vector lengths must match matrix shape")
    row_total = float(sum(row_targets))
    col_total = float(sum(col_targets))
    if row_total <= 0 or col_total <= 0:
        raise ValueError("targets must have positive sums")
    rows = [t / row_total for t in row_targets]
    cols = [t / col_total for t in col_targets]
    m = [list(row) for row in matrix]
    for _ in range(iterations):
        max_err = 0.0
        for i in range(n_rows):
            s = sum(m[i])
            factor = (rows[i] / s) if s > 0 else 0.0
            for j in range(n_cols):
                m[i][j] *= factor
        for j in range(n_cols):
            s = sum(m[i][j] for i in range(n_rows))
            factor = (cols[j] / s) if s > 0 else 0.0
            for i in range(n_rows):
                m[i][j] *= factor
        for i in range(n_rows):
            max_err = max(max_err, abs(sum(m[i]) - rows[i]))
        if max_err < tolerance:
            break
    return m


def fit_interaction_matrix() -> List[List[float]]:
    """The fitted Figure 2 matrix: cell (i, j) is the probability that an
    applet's add count flows from trigger category i+1 to action category
    j+1.  Rows/columns follow Table 1's add-count marginals."""
    return ipf_fit(
        base_affinity_matrix(),
        trigger_addcount_weights(),
        action_addcount_weights(),
    )
