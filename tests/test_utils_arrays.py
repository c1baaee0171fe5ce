"""`sorted_unique` against `np.unique`, and the guard that keeps the
flagless `np.unique(` out of the day's integer set operations."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.utils.arrays import sorted_unique

INT_DTYPES = (np.int64, np.uint64, np.uint32, np.int8)


class TestSortedUnique:
    @given(
        st.sampled_from(INT_DTYPES).flatmap(
            lambda dtype: hnp.arrays(dtype, st.integers(0, 200))
        )
    )
    def test_equals_np_unique(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3, 3], [1, 2, 2, 5, 9, 9], [9, 1, 5, 1, 9, 0]],
        ids=["empty", "one", "all_equal", "sorted", "shuffled"],
    )
    def test_shapes_of_input(self, dtype, values):
        array = np.array(values, dtype=dtype)
        got = sorted_unique(array)
        np.testing.assert_array_equal(got, np.unique(array))
        assert got.dtype == array.dtype
        assert got.ndim == 1

    def test_extreme_values_do_not_wrap(self):
        for dtype in INT_DTYPES:
            info = np.iinfo(dtype)
            array = np.array([info.max, info.min, info.max, 0], dtype=dtype)
            np.testing.assert_array_equal(sorted_unique(array), np.unique(array))

    @pytest.mark.parametrize("values", [[], [4], [2, 2], [1, 2, 3], [3, 1, 2]])
    def test_returns_a_fresh_array(self, values):
        array = np.array(values, dtype=np.int64)
        before = array.copy()
        got = sorted_unique(array)
        assert not np.shares_memory(got, array)
        got[...] = -1  # writable, and writing reaches nobody else
        np.testing.assert_array_equal(array, before)

    def test_read_only_mmap_input(self, tmp_path):
        path = tmp_path / "ids.npy"
        np.save(path, np.array([5, 1, 5, 3, 1], dtype=np.int64))
        mapped = np.load(path, mmap_mode="r")
        got = sorted_unique(mapped)
        assert got.tolist() == [1, 3, 5]
        assert type(got) is np.ndarray and got.flags.writeable

    def test_two_dimensional_input_is_flattened_like_np_unique(self):
        array = np.array([[3, 1], [1, 2]], dtype=np.uint32)
        np.testing.assert_array_equal(sorted_unique(array), np.unique(array))

    def test_floats_are_refused(self):
        """NaN != NaN: the adjacent comparison would keep every NaN."""
        with pytest.raises(TypeError, match="integer arrays"):
            sorted_unique(np.array([1.0, np.nan, np.nan]))


# ---------------------------------------------------------------------- #
# keep the slow call out
# ---------------------------------------------------------------------- #

#: where a flagless ``np.unique(`` may stay, and why (path prefixes under
#: ``src/repro``); everything else de-duplicates through ``sorted_unique``
ALLOWED = {
    "ml/preprocessing.py": "float quantile edges: np.unique's NaN handling is wanted",
    "ml/drift.py": "float quantile edges: np.unique's NaN handling is wanted",
    "ml/forest.py": "class labels of any dtype, a handful of distinct values",
    "ml/folds.py": "class labels of any dtype, a handful of distinct values",
    "ml/logistic.py": "class labels of any dtype, a handful of distinct values",
    "baselines/": "comparison systems run by experiments, never by a tracked day",
    "synth/": "world generation, outside the tracked day",
}


def flagless_unique_calls(source):
    """Line numbers of ``np.unique(...)`` calls that pass no ``return_*`` or
    ``axis`` keyword — the form NumPy 2.4 serves from its hash-set path."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        flags = [keyword.arg or "" for keyword in node.keywords]
        if not any(f == "axis" or f.startswith("return_") for f in flags):
            lines.append(node.lineno)
    return lines


def test_guard_sees_the_flagless_form_only():
    source = (
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_counts=True)\n"
        "d = np.unique(pairs, axis=0)\n"
        "e = numpy.unique(np.concatenate(parts))\n"
        "f = sorted_unique(x)\n"
    )
    assert flagless_unique_calls(source) == [2, 5]


def test_no_flagless_np_unique_outside_the_allow_list():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith(tuple(ALLOWED)):
            continue
        offenders += [
            f"src/repro/{relative}:{line}"
            for line in flagless_unique_calls(path.read_text())
        ]
    assert not offenders, (
        "flagless np.unique( hashes on NumPy 2.4 and is 10-35x slower than "
        "a sort on integer ids: use repro.utils.arrays.sorted_unique, or add "
        f"the file to ALLOWED with its reason — {offenders}"
    )


def test_allow_list_names_only_files_that_need_it():
    root = pathlib.Path(repro.__file__).parent
    for prefix in ALLOWED:
        paths = [root / prefix] if prefix.endswith(".py") else (root / prefix).rglob("*.py")
        assert any(
            flagless_unique_calls(path.read_text()) for path in paths
        ), f"{prefix} no longer calls a flagless np.unique: drop it from ALLOWED"
