"""Figure 2: the trigger-category × action-category heat map."""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.classify import ServiceClassifier
from repro.crawler.snapshot import CrawlSnapshot
from repro.ecosystem.categories import CATEGORIES


def interaction_heatmap(
    snapshot: CrawlSnapshot, classifier: Optional[ServiceClassifier] = None
) -> List[List[int]]:
    """The 14×14 add-count matrix: cell [i][j] sums the add count of
    applets whose trigger service is in category i+1 and action service
    in category j+1 (Figure 2's color intensity)."""
    classifier = classifier or ServiceClassifier()
    categories = classifier.classify_all(snapshot.services.values())
    n = len(CATEGORIES)
    matrix = [[0] * n for _ in range(n)]
    for applet in snapshot.applets.values():
        i = categories.get(applet.trigger_service_slug, 14) - 1
        j = categories.get(applet.action_service_slug, 14) - 1
        matrix[i][j] += applet.add_count
    return matrix


def heatmap_intensity(matrix: List[List[int]]) -> List[List[float]]:
    """Normalize a heat map to [0, 1] by its maximum cell."""
    peak = max((cell for row in matrix for cell in row), default=0)
    if peak == 0:
        return [[0.0] * len(matrix[0]) for _ in matrix]
    return [[cell / peak for cell in row] for row in matrix]


def row_sums(matrix: List[List[int]]) -> List[int]:
    """Per-trigger-category totals (Table 1's trigger AC marginals)."""
    return [sum(row) for row in matrix]


def col_sums(matrix: List[List[int]]) -> List[int]:
    """Per-action-category totals (Table 1's action AC marginals)."""
    return [sum(matrix[i][j] for i in range(len(matrix))) for j in range(len(matrix[0]))]
