"""Malformed command-line inputs: exit 2 with one stderr line, never a traceback.

Each property generates inputs that are malformed by construction -- graph
files, strategy JSON files and theta grids -- and runs the command line in
process. Warnings count as stderr lines, and any exception other than the
handled input errors escapes main and fails the test.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import string
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsvkit.cli import MAX_THETA_STEPS, main
from qsvkit.strategy import reference_bell_artifacts, strategy_to_json


def stderr_lines(argv: list[str]) -> tuple[int, list[str]]:
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def assert_input_error(argv: list[str]) -> None:
    code, lines = stderr_lines(argv)
    assert code == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


# Printable ASCII plus a few characters that Python's number and line parsers
# treat specially; a fixed alphabet also spares Hypothesis its Unicode tables.
TEXT = st.text(alphabet=string.printable + "\x0b\x1c\u2028πé½٣", max_size=40)


def run_on_file(text: str, argv_head: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        assert_input_error(argv_head + [str(path)])


# ---------------------------------------------------------------------
# Graph files (parse_graph)
# ---------------------------------------------------------------------

@st.composite
def malformed_graph_texts(draw) -> str:
    """A valid small graph file with exactly one defect."""
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
    u = draw(st.integers(min_value=1, max_value=n))
    defect = draw(st.sampled_from(
        ["head", "cap", "blank", "self-loop", "range", "duplicate", "arity", "endpoint"]
    ))
    if defect == "head":
        lines[0] = draw(st.sampled_from(["n", f"n {n} {n}", f"m {n}", f"N {n}", f"n {n}.0",
                                         "n x", "n 0", "n -2", f"{n}", "1 2"]))
    elif defect == "cap":
        lines[0] = f"n {draw(st.integers(min_value=14, max_value=10**6))}"
    elif defect == "blank":
        lines = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3))
    else:  # one bad edge line anywhere after the head
        if defect == "self-loop":
            bad = f"{u} {u}"
        elif defect == "range":
            bad = f"{u} {draw(st.one_of(st.integers(max_value=0), st.integers(min_value=n + 1)))}"
        elif defect == "duplicate":
            bad = "{} {}".format(*draw(st.sampled_from(edges))) if edges else f"{u} {u}"
        elif defect == "arity":
            count = draw(st.sampled_from([1, 3, 4]))
            bad = " ".join(str(draw(st.integers(min_value=1, max_value=n))) for _ in range(count))
        else:
            bad = f"{u} {draw(st.sampled_from(['x', '1.5', '1e3', '-', '0x1', '+', 'nan', '½']))}"
        if draw(st.booleans()):
            bad = " ".join(reversed(bad.split()))
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(text=malformed_graph_texts(), command=st.sampled_from(["analyze", "simulate"]))
@settings(max_examples=150, deadline=None)
def test_malformed_graph_files_exit_2_with_one_line(text, command):
    run_on_file(text, [command, "--graph"])


# ---------------------------------------------------------------------
# Strategy files (strategy_from_json)
# ---------------------------------------------------------------------

BELL_DOC = strategy_to_json(reference_bell_artifacts()[0])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.one_of(
    st.none(),
    st.sampled_from(["", "x", "two", [], {}, [1, 2], {"re": 1.0}]),
)


def poison_pair_list(draw, pairs: list) -> list:
    """Break a list of [re, im] pairs: its length, an entry's shape or type, or its scale."""
    kind = draw(st.sampled_from(["shorten", "lengthen", "shape", "type", "non-finite", "scale"]))
    pairs = copy.deepcopy(pairs)
    at = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    if kind == "shorten":
        del pairs[draw(st.integers(min_value=0, max_value=len(pairs) - 1)):]
    elif kind == "lengthen":
        pairs.extend([[0.0, 0.0]] * draw(st.integers(min_value=1, max_value=3)))
    elif kind == "shape":
        pairs[at] = draw(st.sampled_from([[0.5], [0.5, 0.0, 0.0], 0.5, []]))
    elif kind == "type":
        pairs[at] = [draw(NOT_A_NUMBER), 0.0]
    elif kind == "non-finite":
        pairs[at][draw(st.integers(min_value=0, max_value=1))] = draw(NON_FINITE)
    else:  # a non-unit target, an omega that no longer fixes it, a test that is no projector
        factor = draw(st.sampled_from([0.0, 0.5, 2.0, -3.0]))
        pairs = [[factor * re, factor * im] for re, im in pairs]
    return pairs


@st.composite
def malformed_strategy_docs(draw) -> dict:
    """The reference Bell strategy document with exactly one defect."""
    doc = copy.deepcopy(BELL_DOC)
    field = draw(st.sampled_from(["dims", "copies", "target", "omega", "decomposition"]))
    if field != "decomposition" and draw(st.booleans()):
        del doc[field]
    elif field == "dims":
        doc["dims"] = draw(st.one_of(
            NOT_A_NUMBER,
            st.sampled_from([[2], [4, 2], [0, 4], [-2, -2], [2, 2, 1, 2], [math.inf, 2]]),
            st.lists(NON_FINITE, min_size=1, max_size=2),
        ))
    elif field == "copies":
        doc["copies"] = draw(st.one_of(
            NOT_A_NUMBER, NON_FINITE, st.integers(min_value=-3, max_value=0), st.integers(2, 10**9)
        ))
    elif field in ("target", "omega"):
        doc[field] = poison_pair_list(draw, doc[field])
    else:
        entries = doc["decomposition"]
        at = draw(st.integers(min_value=0, max_value=len(entries) - 1))
        kind = draw(st.sampled_from(["p", "T", "missing", "not-a-list"]))
        if kind == "p":
            entries[at]["p"] = draw(st.one_of(
                NON_FINITE, NOT_A_NUMBER, st.sampled_from([-0.5, 0.0, 1.0, entries[at]["p"] + 0.1])
            ))
        elif kind == "T":
            entries[at]["T"] = poison_pair_list(draw, entries[at]["T"])
        elif kind == "missing":
            del entries[at][draw(st.sampled_from(["p", "T"]))]
        else:
            doc["decomposition"] = draw(st.sampled_from([0.5, "tests", {"p": 1.0}, [0.5]]))
    return doc


# Dims whose product, 4 * (2**62 + 1), wraps in int64 to 4, the Bell target's length.
WRAPPED_DIMS_DOC = dict(BELL_DOC, dims=[4, 4611686018427387905])

# Values of the wrong JSON type, each of which a cast would turn into the Bell strategy.
UNTYPED_DOCS = [
    dict(BELL_DOC, dims=[2.7, 2]),
    dict(BELL_DOC, dims=[True, 4]),
    dict(BELL_DOC, dims=["2", "2"]),
    dict(BELL_DOC, copies=1.9),
    dict(BELL_DOC, copies=True),
    dict(BELL_DOC, decomposition=[dict(e, p=str(e["p"])) for e in BELL_DOC["decomposition"]]),
    dict(BELL_DOC, target=[[str(re), str(im)] for re, im in BELL_DOC["target"]]),
]


def under_both_commands(docs):
    """One explicit example per document under analyze and under simulate."""
    def decorate(test):
        for doc in docs:
            for command in ("analyze", "simulate"):
                test = example(doc=doc, command=command)(test)
        return test
    return decorate


@given(doc=malformed_strategy_docs(), command=st.sampled_from(["analyze", "simulate"]))
@under_both_commands([WRAPPED_DIMS_DOC, *UNTYPED_DOCS])
@settings(max_examples=200, deadline=None)
def test_malformed_strategy_files_exit_2_with_one_line(doc, command):
    run_on_file(json.dumps(doc), [command, "--strategy"])


def test_simulate_epsilon_on_a_dimension_1_strategy_exits_2_with_one_line():
    # A valid strategy whose target has no orthogonal direction to mix in.
    doc = {"dims": [1], "copies": 1, "target": [[1.0, 0.0]], "omega": [[1.0, 0.0]]}
    run_on_file(json.dumps(doc), ["simulate", "--epsilon", "0.1", "--strategy"])


@pytest.mark.parametrize("trials", [2**63, 10**20])
def test_simulate_trial_counts_past_int64_exit_2_with_one_line(trials):
    # A run splits its trials over the source keys in int64 counts.
    run_on_file("n 2\n1 2\n", ["simulate", "--trials", str(trials), "--graph"])


@given(text=TEXT)
# Nested past the JSON decoder's recursion limit, also as raised while Hypothesis runs a test.
@example(text="[" * 100_000 + "]" * 100_000)
@settings(max_examples=100, deadline=None)
def test_strategy_files_that_are_not_objects_exit_2_with_one_line(text):
    try:
        parsed = json.loads(text)
    except (ValueError, RecursionError):
        parsed = None
    if isinstance(parsed, dict):
        text = "[" + text + "]"
    run_on_file(text, ["analyze", "--strategy"])


# ---------------------------------------------------------------------
# Theta grids (parse_theta_grid)
# ---------------------------------------------------------------------

def theta_grid_is_valid(text: str) -> bool:
    """The documented contract: 'A:B:N' with 0 < A <= B <= pi/4 and an integer 2 <= N <= cap."""
    parts = text.split(":")
    if len(parts) != 3:
        return False
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        return False
    return 0.0 < start <= stop <= math.pi / 4.0 and 2 <= steps <= MAX_THETA_STEPS


NUMBERISH = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-5, max_value=10**20).map(str),
    st.sampled_from(["", " ", "x", "1e", "0.1.2", "1_0", "inf", "-0", "0x10", "٣"]),
)


@given(text=st.one_of(
    TEXT,
    st.lists(NUMBERISH, min_size=1, max_size=5).map(":".join),
).filter(lambda t: not theta_grid_is_valid(t)))
@settings(max_examples=200, deadline=None)
def test_malformed_theta_grids_exit_2_with_one_line(text):
    assert_input_error(["curves", "--figure", "fig4", f"--theta-grid={text}"])
