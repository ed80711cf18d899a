"""Fuzzing of the JSON loaders and of the CLI on generated JSON values.

Every value must either load or raise one of the errors that the CLI
refuses input with (exit 2); none may escape as ``IndexError``,
``KeyError``, ``TypeError`` or ``AttributeError``.  The CLI must end such
input with exit 0, 1 or 2 and no traceback.  Integers are small apart from
a few huge ones that the loaders must refuse, so what loads has at most 8
elements, or is a product of at most four chains of height at most 3.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.builders import chain
from latkit.cli import (_INPUT_ERRORS, InputError, _read_monoid, _read_subset,
                        main, parse_order_spec)

# small and huge integers, non-integers, and values that are not numbers
HUGE = st.sampled_from([-10 ** 6, 10 ** 6, 2 ** 70])
SCALARS = st.one_of(st.integers(-3, 3), HUGE, st.booleans(), st.none(),
                    st.sampled_from([0.0, 1.7, -2.5, 1e300]),
                    st.text(max_size=3))
SIZES = st.one_of(st.integers(-3, 8), SCALARS)
KEYS = ("size", "pairs", "powerset", "chains", "table", "identity", "points",
        "opens", "order", "subset", "dom", "cod", "image", "filters")
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=10)


def rows(entries):
    """Lists of rows, square or ragged."""
    return st.lists(st.lists(entries, max_size=4), min_size=1, max_size=4)


ORDER_SPECS = st.one_of(
    st.fixed_dictionaries({"size": SIZES},
                          optional={"pairs": st.one_of(rows(SIZES), JSON)}),
    st.fixed_dictionaries({"powerset": SCALARS}),
    st.fixed_dictionaries({"chains": st.one_of(
        st.lists(st.integers(1, 2), max_size=3), st.lists(SCALARS, max_size=3),
        JSON)}),
    JSON)
MONOIDS = st.one_of(
    st.fixed_dictionaries({"table": st.one_of(rows(st.integers(0, 3)),
                                              rows(SCALARS), JSON),
                           "identity": SCALARS}),
    JSON)
SUBSETS = st.one_of(st.lists(SIZES, max_size=4), JSON)


def loads_or_raises(load, error, value):
    try:
        load(value)
    except error:
        pass


@settings(max_examples=300, deadline=None)
@given(ORDER_SPECS)
def test_parse_order_spec(value):
    loads_or_raises(parse_order_spec, InputError, value)
    loads_or_raises(parse_order_spec, InputError, json.dumps(value))


@settings(max_examples=300, deadline=None)
@given(MONOIDS)
def test_monoid_from_json(value):
    loads_or_raises(_read_monoid, _INPUT_ERRORS, value)


@settings(max_examples=300, deadline=None)
@given(SUBSETS)
def test_subset_from_json(value):
    loads_or_raises(lambda v: _read_subset(chain(4), v), _INPUT_ERRORS, value)


# (argv before --input, how the generated value becomes the input file)
COMMANDS = [
    (("check", "classify"), ORDER_SPECS),
    (("check", "preregular"),
     st.fixed_dictionaries({"order": ORDER_SPECS, "subset": SUBSETS})),
    (("check", "convexity"),
     st.fixed_dictionaries({"dom": ORDER_SPECS, "cod": ORDER_SPECS,
                            "image": SUBSETS})),
    (("verify", "lem-group-completion"), MONOIDS),
    (("verify", "law-monoid-distributivity"), MONOIDS),
    (("verify", "law-disjoint-sum"), MONOIDS),
    (("enumerate",),
     st.fixed_dictionaries({"dom": ORDER_SPECS, "cod": st.just({"powerset": 1}),
                            "filters": st.one_of(st.just({}), JSON)})),
    (("check", "distributive"), JSON),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(COMMANDS))).flatmap(
    lambda i: st.tuples(st.just(COMMANDS[i][0]), COMMANDS[i][1])))
def test_cli_exits_0_1_or_2_without_traceback(case):
    argv, value = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--format", "json", *argv, "--input", path])
    assert code in (0, 1, 2), (argv, value, err.getvalue())
    assert "Traceback" not in err.getvalue()
