"""Fuzz every CLI subcommand: whatever the input, ``main`` returns an exit
code in {0, 1, 2, 3}, lets no exception escape, and an exit 1 prints exactly
one ``error:`` line."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nbhdrecon.cli import main

FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

FIELDS = ("n", "labels", "edges", "adjacency", "universe", "sets")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4),
    max_leaves=12)

small_families = st.fixed_dictionaries({
    "universe": st.integers(0, 8),
    "sets": st.lists(st.lists(st.integers(0, 7), max_size=8), max_size=9),
})

small_graphs = st.integers(1, 8).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "edges": st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                      max_size=12),
}))

# one field of a valid object replaced by a value shaped like the real
# fields or of any JSON type
field_values = st.one_of(
    st.integers(-1, 8), st.booleans(),
    st.lists(st.integers(-1, 8) | st.booleans(), max_size=4),
    st.lists(st.lists(st.integers(0, 3) | st.booleans(), max_size=2), max_size=4),
    json_values)


def one_field_replaced(valid, fields):
    return st.tuples(valid, st.sampled_from(fields), field_values).map(
        lambda t: {**t[0], t[1]: t[2]})


graph_like = one_field_replaced(small_graphs, ("n", "labels", "edges", "adjacency"))
family_like = one_field_replaced(small_families, ("universe", "sets"))

graph_inputs = st.one_of(st.text(max_size=40), json_values.map(json.dumps),
                         graph_like.map(json.dumps), small_graphs.map(json.dumps))
family_inputs = st.one_of(st.text(max_size=40), json_values.map(json.dumps),
                          family_like.map(json.dumps), small_families.map(json.dumps))


def run_main(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        lines = [ln for ln in err.getvalue().splitlines() if "error: " in ln]
        assert len(lines) == 1, (argv, err.getvalue())
    return code


@settings(FUZZ, max_examples=150)
@given(text=graph_inputs, data=st.data())
def test_graph_commands(text, data):
    command = data.draw(st.sampled_from([
        ["nbhd"], ["nbhd", "--open"], ["nbhd", "--support"],
        ["convex"], ["convex", "--json"], ["convert", "--to", "g6"],
        ["convert", "--to", "json"], ["convert", "--to", "dot"],
    ]))
    if command == ["convex"] and data.draw(st.booleans()):
        command = command + ["--set", data.draw(json_values.map(json.dumps))]
    run_main(command + ["-"], text)


@settings(FUZZ, max_examples=150)
@given(text=family_inputs,
       source=st.sampled_from(["multiset", "support", "dc"]),
       flags=st.lists(st.sampled_from(["--all", "--count", "--dot"]), unique=True),
       limit=st.none() | st.integers(-1, 3))
def test_reconstruct(text, source, flags, limit):
    argv = ["reconstruct", "--from", source, *flags]
    if limit is not None:
        argv += ["--limit", str(limit)]
    run_main(argv + ["-"], text)


def spliced(parts):
    """Valid-looking input text with raw bytes, perhaps invalid UTF-8,
    spliced in at a drawn offset."""
    text, raw, at = parts
    data = text.encode()
    at = min(at, len(data))
    return data[:at] + raw + data[at:]


byte_inputs = st.one_of(
    st.binary(max_size=40),
    st.tuples(graph_inputs | family_inputs, st.binary(min_size=1, max_size=4),
              st.integers(0, 40)).map(spliced),
    (graph_inputs | family_inputs).map(lambda text: text.encode("utf-16")))


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(FUZZ, max_examples=150)
@given(data=byte_inputs, command=st.sampled_from([
    ["nbhd"], ["convex"], ["convert", "--to", "g6"], ["convert", "--to", "json"],
    ["reconstruct", "--from", "multiset"], ["reconstruct", "--from", "support"],
    ["reconstruct", "--from", "dc", "--all"],
]))
def test_file_bytes(input_file, data, command):
    # the file path of the input decodes bytes itself; stdin gets text
    input_file.write_bytes(data)
    run_main(command + [str(input_file)])


@settings(FUZZ, max_examples=40)
@given(command=st.sampled_from(["mine", "verify"]),
       n=st.integers(-1, 4),
       kind=st.sampled_from(["closed-multiset", "closed-support", "open-multiset"]),
       jobs=st.integers(-1, 2),
       deep=st.booleans())
def test_sweeps(command, n, kind, jobs, deep):
    argv = [command, "--n", str(n)] + (["--deep"] if deep else [])
    if command == "mine":
        argv += ["--kind", kind, "--jobs", str(jobs)]
    run_main(argv)


@settings(FUZZ, max_examples=60)
@given(argv=st.lists(st.sampled_from([
    "nbhd", "convex", "reconstruct", "mine", "verify", "convert", "--from", "dc",
    "--to", "--n", "3", "-1", "x", "-", "--set", "[0]", "--all", "--help",
]), max_size=5))
def test_arbitrary_argv(argv):
    run_main(argv)
