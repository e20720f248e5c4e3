"""Fuzz gate on the command line: generated input exits 0, 1 or 2, never 3.

Every subcommand runs in process through `cli.main` on well-typed argv (each
value written as --flag=value, so a value that starts with "-" is not read as
a flag).  Input files go to a temporary directory made inside the test, since
hypothesis does not reset function-scoped fixtures between examples.
"""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import canonical_pencil, cli, sample_point
from test_fibration import SPLIT_PAIRS, one_invertible_point

SPLIT_LAMBDAS = "--lambdas=0,16,-9,32,-18,1"  # the pencil of one_invertible_point()


@lru_cache(maxsize=None)
def base_points():
    """(pencil flag, point JSON) pairs: sampled points, split-algebra points
    among them, and a point with one invertible coordinate."""
    drawn = [(2, 5, 0, False), (3, 1, 0, False)] + SPLIT_PAIRS
    points = [
        (f"--g={g}", sample_point(canonical_pencil(g), seed, index, on_Y).to_json())
        for g, seed, index, on_Y in drawn
    ]
    return points + [(SPLIT_LAMBDAS, one_invertible_point().to_json())]


rational = st.builds(
    lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(-9, 9), st.integers(1, 4)
)
# one bad token in about half of the lists of lambdas, none in the others
bad_token = st.sampled_from([None, None, None, "abc", "1/0", ""])


@st.composite
def lambda_flag(draw):
    # 5-8 small rationals, repeats included
    tokens = draw(st.lists(rational, min_size=5, max_size=8))
    bad = draw(bad_token)
    if bad is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    return "--lambdas=" + ",".join(tokens)


# a canonical pencil, the split pencil or a list of lambdas, one in four each
pencil_flags = st.sampled_from(["--g=2", "--g=3", SPLIT_LAMBDAS, None]).flatmap(
    lambda flag: st.just([flag]) if flag else lambda_flag().map(lambda flag: [flag])
)
# JSON values to put where a reader expects a number or a list
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["abc", "1/0", "0", "1", "-1", "2/3", ""]),
    st.lists(st.one_of(st.sampled_from(["0", "1", "1/0", "x"]), st.floats()), max_size=5),
    st.just({}),
)


def paths(value, path=()):
    """The path of `value` and of every part of it, in its lists and objects."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from paths(item, path + (key,))


def mutated(draw, payload):
    """`payload` with one part, or all of it, replaced by junk or deleted."""
    path = draw(st.sampled_from(list(paths(payload))))
    if not path:
        return draw(junk)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(junk)
    return payload


@st.composite
def point_file(draw):
    """A pencil flag and a point JSON: a base point, at times mutated, at
    times read on another pencil."""
    flag, payload = draw(st.sampled_from(base_points()))
    payload = json.loads(json.dumps(payload))
    if draw(st.booleans()):
        payload = mutated(draw, payload)
    pencil = [flag] if draw(st.integers(0, 3)) else draw(pencil_flags)
    return pencil, payload


@st.composite
def skew_matrix(draw):
    n = draw(st.integers(0, 5))
    upper = iter(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
    m = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            m[a][b] = next(upper)
            m[b][a] = -m[a][b]
    return m


matrix_file = st.one_of(
    skew_matrix(),
    # ragged, non-square, nested, null, bool and float entries
    st.lists(st.lists(st.one_of(st.integers(-3, 3), junk), max_size=4), max_size=4),
    junk,
)


def argv(*parts):
    """A strategy for the argv made of the lists that `parts` draw."""
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


def flag(name, values):
    return values.map(lambda value: [f"--{name}={value}"])


big = st.integers(-(2**80), 2**80)
seeded = argv(pencil_flags, flag("seed", big))
one_sample = argv(seeded, flag("index", big))
on_y = argv(one_sample, st.sampled_from([[], ["--on-y"]]))
count = st.integers(-2, 3)
budget = st.one_of(
    st.floats(min_value=0.0, max_value=0.06, exclude_min=True),
    st.sampled_from([0.0, -1.0, float("nan"), float("inf")]),
)

ARGV = {
    "pencil-info": pencil_flags,
    "sample": on_y,
    "phi": on_y,
    "fh": on_y,
    "bundle-splitting": one_sample,
    "vandermonde": pencil_flags,
    "verify-diagram": argv(seeded, flag("holdout", count)),
    "verify-even": argv(seeded, flag("holdout", count)),
    "verify-lagrangian": argv(seeded, flag("count", count)),
    "verify-all": argv(seeded, flag("budget", budget)),
}
# (argv, the JSON of the input file) of the commands that read one, and the
# flag that names the file
FILE_ARGV = {
    "bundle-splitting": (point_file(), "--point"),
    "skew-invariants": (st.tuples(st.just([]), matrix_file), "--matrix"),
}


def run_main(argv):
    """cli.main on `argv` exits 0, 1 or 2; a report goes to stdout, and an
    input error is one JSON object on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        report = json.loads(err.getvalue())
        assert "error" in report and "internal_error" not in report
    else:
        json.loads(out.getvalue())


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2(command, data):
    run_main([command] + data.draw(ARGV[command]))


@pytest.mark.parametrize("command", sorted(FILE_ARGV))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_input_files_exit_0_1_or_2(command, data):
    # the file readers take the widest input, so they get more examples
    strategy, file_flag = FILE_ARGV[command]
    args, payload = data.draw(strategy)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        run_main([command] + args + [f"{file_flag}={path}"])
