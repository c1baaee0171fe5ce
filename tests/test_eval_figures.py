"""Tests for ASCII figure rendering."""

import numpy as np
import pytest

from repro.eval.figures import ascii_roc
from repro.ml.metrics import roc_curve


def make_curve(separation=1.0, n=500, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n // 10, dtype=int)])
    scores = np.concatenate(
        [rng.normal(0, 1, n), rng.normal(separation * 3, 1, n // 10)]
    )
    return roc_curve(y, scores)


class TestAsciiRoc:
    def test_renders_all_series(self):
        text = ascii_roc({"good": make_curve(1.0), "bad": make_curve(0.1, seed=1)})
        assert "o good" in text
        assert "x bad" in text
        assert "FPR" in text

    def test_grid_dimensions(self):
        text = ascii_roc({"a": make_curve()}, width=30, height=10)
        plot_lines = [l for l in text.splitlines() if "|" in l]
        assert len(plot_lines) == 10
        assert all(len(l.split("|", 1)[1]) == 30 for l in plot_lines)

    def test_better_curve_plots_higher(self):
        good = make_curve(2.0)
        bad = make_curve(0.0, seed=2)
        text = ascii_roc({"good": good, "bad": bad}, max_fpr=0.05)
        lines = [l.split("|", 1)[1] for l in text.splitlines() if "|" in l]
        first_o = next(i for i, l in enumerate(lines) if "o" in l)
        first_x = next(i for i, l in enumerate(lines) if "x" in l)
        assert first_o <= first_x

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_roc({})
        with pytest.raises(ValueError):
            ascii_roc({"a": make_curve()}, max_fpr=0)
        too_many = {f"s{i}": make_curve(seed=i) for i in range(9)}
        with pytest.raises(ValueError):
            ascii_roc(too_many)

