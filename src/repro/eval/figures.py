"""ASCII rendering of ROC curves (the paper's figures, in a terminal).

The paper's ROC figures plot TP rate against FP rate over a restricted FP
range (e.g. [0, 0.01]).  :func:`ascii_roc` renders one or more curves on a
character grid with distinct markers per series — enough to *see* the
crossovers the benchmarks assert numerically.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.ml.metrics import RocCurve

_MARKERS = "ox+*#@%&"


def ascii_roc(
    curves: Dict[str, RocCurve],
    max_fpr: float = 0.01,
    width: int = 64,
    height: int = 20,
) -> str:
    """Render curves as an ASCII plot (FPR on x in [0, max_fpr], TPR on y).

    Later series overdraw earlier ones on shared cells; the legend maps
    markers to names.
    """
    if not curves:
        raise ValueError("need at least one curve")
    if not 0 < max_fpr <= 1:
        raise ValueError("max_fpr must be in (0, 1]")
    if len(curves) > len(_MARKERS):
        raise ValueError(f"at most {len(_MARKERS)} series supported")

    grid = [[" "] * width for _ in range(height)]
    fpr_grid = np.linspace(0.0, max_fpr, width)

    for (name, curve), marker in zip(curves.items(), _MARKERS):
        # Step-interpolate TPR at each x column (best TPR at fpr <= x).
        for col, fpr in enumerate(fpr_grid):
            tpr = curve.tpr_at(float(fpr))
            row = height - 1 - int(round(tpr * (height - 1)))
            row = min(max(row, 0), height - 1)
            grid[row][col] = marker

    lines: List[str] = []
    for i, row in enumerate(grid):
        tpr_label = 1.0 - i / (height - 1)
        prefix = f"{tpr_label:4.2f} |" if i % 4 == 0 or i == height - 1 else "     |"
        lines.append(prefix + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(
        "      0"
        + " " * (width - 12)
        + f"FPR {max_fpr:.4f}".rjust(11)
    )
    legend = "  ".join(
        f"{marker} {name}" for (name, _), marker in zip(curves.items(), _MARKERS)
    )
    lines.append("      " + legend)
    return "\n".join(lines)

