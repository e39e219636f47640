"""Layer-2 determinism linter: positive and negative cases per rule.

Each rule gets at least one snippet it must flag and one idiomatic
spelling it must leave alone, plus the waiver mechanics.  The final test
pins the repo invariant the linter gates in CI: ``src/repro`` itself
lints clean (wall-clock surfaces carry justified waivers).
"""

import os

import pytest

from repro.analysis import (
    default_lint_root,
    lint_fixture_files,
    lint_paths,
    lint_source,
)

pytestmark = pytest.mark.analysis


def _rules(source):
    return [d.rule for d in lint_source(source)]


# -- lint/unseeded-rng ---------------------------------------------------

def test_legacy_global_rng_flagged():
    assert _rules("import numpy as np\nx = np.random.rand(3)\n") == [
        "lint/unseeded-rng"
    ]
    assert _rules("import numpy as np\nnp.random.seed(0)\n") == [
        "lint/unseeded-rng"
    ]


def test_bare_default_rng_flagged_seeded_allowed():
    assert _rules("import numpy as np\nr = np.random.default_rng()\n") == [
        "lint/unseeded-rng"
    ]
    assert _rules("import numpy as np\nr = np.random.default_rng(42)\n") == []
    assert _rules(
        "import numpy as np\nr = np.random.RandomState(seed=7)\n"
    ) == []


def test_full_numpy_module_name_also_matched():
    assert _rules("import numpy\nnumpy.random.shuffle(x)\n") == [
        "lint/unseeded-rng"
    ]


# -- lint/wallclock ------------------------------------------------------

def test_wallclock_reads_flagged():
    assert _rules("import time\nt = time.time()\n") == ["lint/wallclock"]
    assert _rules("import time\nt = time.perf_counter()\n") == [
        "lint/wallclock"
    ]
    assert _rules(
        "import datetime\nd = datetime.datetime.now()\n"
    ) == ["lint/wallclock"]


def test_wallclock_waiver_suppresses():
    src = (
        "import time\n"
        "t = time.perf_counter()  # lint: allow(wallclock) measured pass\n"
    )
    assert _rules(src) == []


def test_waiver_for_wrong_rule_does_not_suppress():
    src = (
        "import time\n"
        "t = time.time()  # lint: allow(set-iteration) wrong rule\n"
    )
    # The violation survives, and the waiver itself is flagged stale —
    # it names a real lint rule but suppresses nothing.
    assert sorted(_rules(src)) == ["lint/wallclock", "waiver/stale"]


def test_waiver_only_covers_its_own_line():
    src = (
        "import time\n"
        "a = time.time()  # lint: allow(wallclock) here only\n"
        "b = time.time()\n"
    )
    assert _rules(src) == ["lint/wallclock"]


def test_time_sleep_not_a_wallclock_read():
    assert _rules("import time\ntime.sleep(0.1)\n") == []


# -- lint/set-iteration --------------------------------------------------

def test_for_over_set_flagged():
    assert _rules("for x in set(items):\n    use(x)\n") == [
        "lint/set-iteration"
    ]
    assert _rules("ys = [f(x) for x in {1, 2, 3}]\n") == [
        "lint/set-iteration"
    ]


def test_order_sinks_on_sets_flagged():
    assert _rules("xs = list(set(items))\n") == ["lint/set-iteration"]
    assert _rules("xs = tuple(a_set | b_set)\n") == []  # names, not sets
    assert _rules("xs = list(set(a) - set(b))\n") == ["lint/set-iteration"]


def test_sorted_set_is_the_blessed_spelling():
    assert _rules("for x in sorted(set(items)):\n    use(x)\n") == []
    assert _rules("xs = sorted({1, 2})\n") == []


def test_set_membership_not_flagged():
    assert _rules("ok = x in set(items)\nseen = set()\nseen.add(x)\n") == []


# -- lint/float32-accum --------------------------------------------------

def test_dtype_float32_reduction_flagged():
    assert _rules(
        "import numpy as np\ns = x.sum(dtype=np.float32)\n"
    ) == ["lint/float32-accum"]
    assert _rules(
        "import numpy as np\ns = np.mean(x, dtype='float32')\n"
    ) == ["lint/float32-accum"]


def test_astype_float32_then_reduce_flagged():
    assert _rules(
        "import numpy as np\ns = x.astype(np.float32).sum()\n"
    ) == ["lint/float32-accum"]


def test_float64_and_default_accumulators_allowed():
    assert _rules("s = x.sum()\n") == []
    assert _rules(
        "import numpy as np\ns = x.sum(dtype=np.float64)\n"
    ) == []
    assert _rules(
        "import numpy as np\ny = x.astype(np.float32)\ns = float(x.sum())\n"
    ) == []


# -- lint/bare-unique ----------------------------------------------------

_HOT = os.path.join("src", "repro", "graphs", "generators.py")
_BARE = "import numpy as np\nu = np.unique(k)\n"


def test_bare_unique_flagged_in_hot_packages():
    for pkg in ("graphs", "gpusim", "analysis", "kernels", "formats",
                "reorder", "engine"):
        path = os.path.join("src", "repro", pkg, "mod.py")
        rules = [d.rule for d in lint_source(_BARE, path)]
        assert rules == ["lint/bare-unique"], pkg
    diags = lint_source("import numpy\nu, c = numpy.unique(k, True)\n", _HOT)
    assert [d.rule for d in diags] == ["lint/bare-unique"]


def test_bare_unique_allowed_outside_hot_packages():
    for path in (
        os.path.join("src", "repro", "serve", "server.py"),
        os.path.join("src", "repro", "sortops.py"),
        os.path.join("tests", "test_x.py"),
        "<string>",
    ):
        assert lint_source(_BARE, path) == [], path


def test_sorted_unique_is_the_blessed_spelling():
    src = (
        "from repro.sortops import sorted_unique\n"
        "u, c = sorted_unique(k, return_counts=True)\n"
    )
    assert lint_source(src, _HOT) == []


def test_bare_unique_waiver_suppresses_and_goes_stale():
    waived = (
        "import numpy as np\n"
        "u = np.unique(k)  # lint: allow(bare-unique) cold path\n"
    )
    assert lint_source(waived, _HOT) == []
    stale = "u = sorted(k)  # lint: allow(bare-unique) cold path\n"
    assert [d.rule for d in lint_source(stale, _HOT)] == ["waiver/stale"]


@pytest.mark.parametrize("path", lint_fixture_files(), ids=os.path.basename)
def test_each_lint_fixture_flags_exactly_its_rule(path):
    expected = {"bare_unique.py": "lint/bare-unique"}[os.path.basename(path)]
    with open(path, encoding="utf-8") as fh:
        diags = lint_source(fh.read(), path=path)
    assert {d.rule for d in diags} == {expected}


# -- machinery -----------------------------------------------------------

def test_syntax_error_reported_not_raised():
    diags = lint_source("def broken(:\n")
    assert [d.rule for d in diags] == ["lint/syntax"]


def test_diagnostics_carry_line_locations():
    diags = lint_source("import time\n\n\nt = time.time()\n")
    assert diags[0].location == "line 4"


def test_lint_paths_counts_files(tmp_path):
    (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("import time\ntime.time()\n")
    diags, nfiles = lint_paths([str(tmp_path)])
    assert nfiles == 2  # __pycache__ is skipped
    assert [d.rule for d in diags] == ["lint/wallclock"]


def test_repo_source_tree_lints_clean():
    """The CI invariant: src/repro has zero lint errors (waivers included)."""
    diags, nfiles = lint_paths([default_lint_root()])
    assert nfiles > 50
    assert diags == [], "\n".join(d.render() for d in diags)
