"""End-to-end CLI behavior: exit codes, reports, determinism."""

import contextlib
import hashlib
import io
import json
import os
import select
import subprocess
import sys
import time

import pytest

from latkit import cli, embedding
from latkit.builders import bowtie, chain_product, powerset_lattice
from latkit.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    CHECKS,
    ENUMERATE_READS,
    GLOBAL_OPTIONS,
    INT_OPTIONS,
    SEARCHES,
    SWEEPS,
    TABLES,
    VERIFIERS,
    InputError,
    Verifier,
    main,
    parse_order_spec,
)
from latkit.monoid import FiniteMonoid, truncated_addition_monoid
from latkit.order import MonotoneMap
from oracles import monoid_to_json, ref_parser

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_registry(capsys):
    code, out, _ = run(capsys, "--list")
    assert code == EXIT_OK
    for slug in VERIFIERS:
        assert slug in out
    for slug in list(SEARCHES) + list(SWEEPS) + list(CHECKS):
        assert slug in out


def test_verify_powerset_characterization(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "thm-powerset-form", "--x", "2", "--y", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["census"] == 12
    assert doc["report"]["holds"] is True
    # the default format prints the report one key a line
    code, out, _ = run(capsys, "verify", "thm-powerset-form", "--x", "1", "--y", "2")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "verify thm-powerset-form", "  holds: True", "  x: 1", "  y: 2",
        "  census: 4", "  formula_census: 4", "  decompositions_ok: True"]


# the --format json stdout SHA-256 and exit code of both product-form
# verifiers, the limit rows included
PRODUCT_FORM_PINS = [
    (("thm-powerset-form",), 0,
     "b879d681455c6c5a2538cc60cb7de97f4f7f50ea452ae856582bda591da0bdcf"),
    (("thm-powerset-form", "--x", "6", "--y", "6"), 0,
     "c5c367d63b55cc1d6501ab49f5d4b09a40e1c58761102b50d9f744d47e7c1a05"),
    (("thm-powerset-form", "--x", "3", "--y", "6"), 0,
     "b6af69fbebb3a6f3d8b107f01e95c993b2c4c0399b30810d4cb7a68ce9a9e677"),
    (("thm-powerset-form", "--x", "0", "--y", "0"), 0,
     "7677ed98a0cd3b209a6fbba0a5fdba7895d3984101c3792f1c1df778fc9e72b4"),
    (("thm-powerset-form", "--x", "1", "--y", "5"), 0,
     "87d3f0479571304acb5750db9ed4e2f4d8709d46a43dca3ca8209df334e5c87b"),
    (("thm-powerset-form", "--x", "4", "--y", "4"), 0,
     "9fd07583f1ea2f9bfbe7cd40074686d4a6e4af86da97583a402ee9fd2668569e"),
    (("thm-chainprod-form",), 0,
     "057719ba6acf221d0decccd60ab2700b059049b91396590cedb0fc8b96ec9eb2"),
    (("thm-chainprod-form", "--k", "2", "--i", "6", "--m", "2", "--j", "6"), 0,
     "a276dbbe46921b02007a04bbc88f791dcc1cf12289cbab790c91fbb8460fcc79"),
    (("thm-chainprod-form", "--k", "64", "--i", "1", "--m", "64", "--j", "1"),
     0, "45bfe232ed78d93ddcc0862ef941c7bd982fc6444f9b43663394bd9e9bd3c673"),
    (("thm-chainprod-form", "--k", "2", "--i", "0", "--m", "3", "--j", "2"), 0,
     "84f8d806c0c943aa0a44fb387530ccbb4e867826cc15602fc41efbf8ac1b8213"),
    (("thm-chainprod-form", "--k", "4", "--i", "1", "--m", "4", "--j", "3"), 0,
     "9302a307ab85630b9a17b05a48b60366bbc7d2539fa1ae06f4fd246364232c1b"),
    (("thm-chainprod-form", "--k", "3", "--i", "2", "--m", "3", "--j", "3"), 0,
     "f15da737f4c9770d346b0c4c0007288091a74a6f9bce4890a075a5c5ec27a3c2"),
    (("thm-chainprod-form", "--k", "8", "--i", "2", "--m", "8", "--j", "2"), 0,
     "d7418ac6fe066159f0f492420a5987ef217bde5900009868c5ea03bed78c7477"),
    (("thm-chainprod-form", "--k", "2", "--i", "2", "--m", "4", "--j", "3"), 0,
     "f5f907b24efa0c6b64367ea218491c785f70566fdf9f3bc3636313a50f1707b3"),
]


@pytest.mark.parametrize("argv, code, digest", PRODUCT_FORM_PINS,
                         ids=[" ".join(row[0]) for row in PRODUCT_FORM_PINS])
def test_product_form_reports_keep_their_bytes(capsys, argv, code, digest):
    got, out, err = run(capsys, "--format", "json", "verify", *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, cod_size", [
    (("--k", "1", "--i", "3"), 4),
    (("--k", "1", "--i", "6", "--m", "3", "--j", "3"), 27),
])
def test_chains_of_height_1_are_the_one_element_lattice(capsys, argv, cod_size):
    # each element of the codomain is the image of one map
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "thm-chainprod-form", *argv)
    report = json.loads(out)["report"]
    assert code == EXIT_OK and report["holds"]
    assert report["census"] == report["formula_census"] == cod_size


def test_check_convexity_counterexample(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "check", "convexity",
                       "--input", fixture("powerset_counterexample.json"))
    assert code == EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["report"]["witness"] == [0, 1]
    # C2 -> C3 onto the ends of the chain: outside a power set the missing
    # element and the pair it lies between are indices
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"dom": {"chains": [2]}, "cod": {"chains": [3]}, "image": [0, 2]}))
    code, out, _ = run(capsys, "--format", "json", "check", "convexity",
                       "--input", str(path))
    assert code == EXIT_VIOLATION
    assert json.loads(out)["report"] == {
        "between": [0, 2], "holds": False, "witness": 1}


def test_check_embedding(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "embedding",
                       "--input", fixture("powerset_counterexample.json"))
    assert code == EXIT_OK
    assert json.loads(out)["report"] == {"holds": True, "witness": None}


@pytest.mark.parametrize("fixture_map, pair", [
    # both points of a 2-antichain go to one point
    ({"dom": {"size": 2}, "cod": {"size": 1}, "image": [0, 0]}, [0, 1]),
    # a 2-antichain onto a 2-chain: 0 <= 1 in the image, not in the domain
    ({"dom": {"size": 2}, "cod": {"chains": [2]}, "image": [0, 1]}, [0, 1]),
    ({"dom": {"size": 2}, "cod": {"chains": [2]}, "image": [1, 0]}, [1, 0]),
    # two 2-chains into P(2): the bottom of one below the bottom of the other
    ({"dom": {"size": 4, "pairs": [[0, 1], [2, 3]]}, "cod": {"powerset": 2},
      "image": [0, 1, 1, 3]}, [0, 2]),
])
def test_check_embedding_names_a_pair_it_does_not_reflect(
        capsys, tmp_path, fixture_map, pair):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(fixture_map))
    code, out, _ = run(capsys, "--format", "json", "check", "embedding",
                       "--input", str(path))
    assert code == EXIT_VIOLATION
    assert json.loads(out)["report"] == {"holds": False, "witness": pair}
    mm = MonotoneMap(parse_order_spec(fixture_map["dom"]),
                     parse_order_spec(fixture_map["cod"]), fixture_map["image"])
    p, q = pair
    assert mm.cod.le(mm(p), mm(q)) and not mm.dom.le(p, q)


def test_check_preregular_bowtie_bottom(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "preregular",
                       "--input", fixture("bowtie_bottom.json"))
    assert code == EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["report"]["report"]["preregular_up"]["holds"] is False


def test_check_distributive_fixtures(capsys):
    # M3 and N5 are numbered bottom 0, top 4; at the triple (1, 2, 3),
    # 1 ^ (2 v 3) = 1 ^ 4 = 1 but (1 ^ 2) v (1 ^ 3) = 0
    for name in ("m3.json", "n5.json"):
        code, out, _ = run(capsys, "--format", "json", "check", "distributive",
                           "--input", fixture(name))
        assert code == EXIT_VIOLATION
        assert json.loads(out)["report"] == {
            "holds": False, "witness": {"a": 1, "b": 2, "c": 3}}


def test_check_classify_boolean_needs_distributivity(capsys, tmp_path):
    # M3 and N5 are complemented lattices, but not Boolean
    for name, boolean in (("m3.json", False), ("n5.json", False)):
        code, out, _ = run(capsys, "--format", "json", "check", "classify",
                           "--input", fixture(name))
        assert code == EXIT_OK
        assert json.loads(out)["report"]["classification"]["boolean"] is boolean
    path = tmp_path / "p3.json"
    path.write_text('{"powerset": 3}')
    code, out, _ = run(capsys, "--format", "json", "check", "classify",
                       "--input", str(path))
    assert json.loads(out)["report"]["classification"]["boolean"] is True


def test_passing_checks_keep_their_bytes(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{"powerset": 2}')
    code, out, _ = run(capsys, "--format", "json", "check", "distributive",
                       "--input", str(path))
    assert code == EXIT_OK
    assert out == ('{"command": "check", "name": "distributive", "report": '
                   '{"holds": true, "witness": null}, "seed": 0}\n')


def test_sweep_cat_ro_iso(capsys):
    code, out, _ = run(capsys, "--format", "json", "sweep", "cat-ro-iso",
                       "--points", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["topologies"] == 29


def test_sweep_baire_negative_result(capsys):
    code, out, _ = run(capsys, "--format", "json", "sweep", "baire",
                       "--points", "3")
    assert code == EXIT_OK
    assert json.loads(out)["report"]["all_baire"] is True


def test_search_open_meager_finds_nothing(capsys):
    code, out, _ = run(capsys, "--format", "json", "search", "open-meager",
                       "--points", "3")
    assert code == EXIT_OK
    assert json.loads(out)["report"]["found"] is False


def test_search_convex_not_preregular_finds_witness(capsys):
    code, out, _ = run(capsys, "--format", "json", "search",
                       "convex-not-preregular", "--max-size", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["found"] is True
    # smallest witness is the bowtie: both minimals plus one maximal
    assert doc["report"]["poset"]["size"] == 4


def test_verify_monoid_distributivity_truncated_holds(capsys):
    # the set laws range over nonempty B, so the capped chain passes all four
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "law-monoid-distributivity",
                       "--input", fixture("truncated_add_3.json"))
    assert code == EXIT_OK
    modes = json.loads(out)["report"]["modes"]
    assert all(rep["holds"] and rep["witness"] is None
               for rep in modes.values())
    assert modes["plus_join_inf"]["checked"] == 3 * 7


def test_verify_group_completion_at_its_limit(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "lem-group-completion", "--max-size", "5")
    assert code == EXIT_OK
    # 1 + 2 + 9 + 94 + 1,486 tables; the cancellative ones are groups
    assert json.loads(out)["report"] == {
        "cancellative_checked": 13, "failures": [], "holds": True,
        "max_size": 5, "noncancellative_skipped": 1579}


def test_a_cancellative_table_that_is_no_group_is_an_internal_error(
        capsys, monkeypatch):
    # a finite cancellative monoid is a group, so a table that seems to
    # lack an inverse means the table code is wrong, not the lemma
    monkeypatch.setattr(FiniteMonoid, "invertibles",
                        property(lambda m: tuple(range(1, m.size))))
    code, out, err = run(capsys, "--format", "json", "verify",
                         "lem-group-completion", "--max-size", "3")
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error\n")
    assert "failed to be a group" in err


def test_verify_group_completion_rejects_max_monoid(capsys, tmp_path):
    path = tmp_path / "max.json"
    path.write_text(json.dumps(
        {"size": 2, "table": [[0, 1], [1, 1]], "identity": 0}))
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "lem-group-completion", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["report"]["rejected"] is True


def test_enumerate_census_lines(capsys):
    code, out, _ = run(capsys, "enumerate",
                       "--dom", '{"powerset": 1}',
                       "--cod", '{"powerset": 2}',
                       "--convex-range")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4
    assert all(line["flags"]["convex_range"] for line in lines)


def test_exit_codes_for_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check", "convexity", "--input", "/nope.json")
    assert code == EXIT_USAGE and "cannot read" in err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"size": 1, "pairs": [], "name": "\xe9"}')
    code, out, err = run(capsys, "check", "classify", "--input", str(latin1))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot read {latin1}: ")
    code, _, err = run(capsys, "verify", "no-such-verifier")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify", "thm-powerset-form",
                       "--x", "3", "--y", "4", "--budget-nodes", "10")
    assert code == EXIT_BUDGET
    # a missing input is refused under the command's full name
    code, out, err = run(capsys, "check", "classify")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: check classify needs --input\n"
    code, out, err = run(capsys, "enumerate")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: enumerate needs --dom and --cod or --input\n"


def test_json_reports_are_byte_identical(capsys):
    args = ("--format", "json", "verify", "law-monoid-distributivity",
            "--samples", "50", "--seed", "42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, out3, _ = run(capsys, "--format", "json", "verify",
                     "law-monoid-distributivity",
                     "--samples", "50", "--seed", "43")
    assert out3 != out1


@pytest.mark.parametrize("argv, key", [
    (("sweep", "cat-ro-iso", "--points", "0"), "points"),
    (("verify", "lem-group-completion", "--max-size", "0"), "max_size"),
])
def test_explicit_zero_option_is_not_replaced_by_default(capsys, argv, key):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == EXIT_OK
    assert json.loads(out)["report"][key] == 0


def test_parse_order_spec_forms():
    q = parse_order_spec({"powerset": 2})
    assert q.size == 4
    q = parse_order_spec({"chains": [2, 3]})
    assert q.size == 6
    q = parse_order_spec({"size": 3, "pairs": [[0, 1]]})
    assert q.size == 3
    assert parse_order_spec({"powerset": 6}).size == 64


@pytest.mark.parametrize("spec", [
    {"powerset": 2.5},
    {"chains": [2.5]},
    {"powerset": True},
    {"powerset": -1},
    {"powerset": 30},
    {"powerset": 7},
    {"chains": [8, 9]},
    {"chains": 3},
    {"chains": [0]},
    {"size": 10 ** 6},
    {"size": 3, "pairs": [[0, -1]]},
    {"size": 3, "pairs": [[0, 5]]},
    {"size": 3, "pairs": [[0, 1.7]]},
    {"size": 3, "pairs": [[0, True]]},
    {"size": 2.9},
    {"size": "2"},
    {"size": -1},
    {"size": True},
])
def test_malformed_or_oversized_order_spec_is_input_error(capsys, spec):
    with pytest.raises(InputError):
        parse_order_spec(spec)
    code, out, err = run(capsys, "enumerate", "--dom", json.dumps(spec),
                         "--cod", '{"powerset": 1}')
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


MAP = {"dom": {"powerset": 1}, "cod": {"powerset": 2}}


@pytest.mark.parametrize("argv, doc", [
    (("check", "preregular"), {"order": {"powerset": 2}, "subset": [9]}),
    (("check", "preregular"), {"order": {"powerset": 2}, "subset": [-1]}),
    (("check", "preregular"), {"order": {"powerset": 2}, "subset": [1.0]}),
    (("check", "preregular"), {"order": {"powerset": 2}, "subset": 3}),
    (("check", "preregular"), [{"order": {"powerset": 2}}]),
    (("check", "classify"), [{"powerset": 2}]),
    (("check", "convexity"), [MAP]),
    (("check", "convexity"), {**MAP, "image": [0, 1.7]}),
    (("check", "convexity"), {**MAP, "image": [0, True]}),
    (("check", "embedding"), {**MAP, "image": [0, 9]}),
    (("check", "embedding"), {**MAP, "image": 3}),
    (("enumerate",), [MAP]),
    (("enumerate",), {**MAP, "filters": [True]}),
    (("enumerate",), {**MAP, "filters": {"convex_range": "false"}}),
    (("enumerate",), {**MAP, "filters": {"convex": True}}),
    (("verify", "lem-group-completion"), [[0]]),
])
def test_malformed_fixture_is_input_error(capsys, tmp_path, argv, doc):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, doc, key", [
    (("check", "classify"), {"size": 2, "pairs": [], "pair": [[0, 1]]}, "'pair'"),
    (("check", "classify"), {"powerset": 2, "chains": [3]}, "'chains'"),
    (("check", "classify"), {"chains": [3], "size": 3}, "'size'"),
    (("check", "convexity"), {**MAP, "image": [0, 3], "images": []}, "'images'"),
    (("check", "preregular"), {"order": {"powerset": 2}, "subsets": [1]},
     "'subsets'"),
    (("enumerate",), {**MAP, "filter": {"convex_range": True}}, "'filter'"),
    (("verify", "law-monoid-distributivity"),
     {"size": 5, "table": [[0, 1], [1, 1]], "identity": 0}, "size 5"),
    (("verify", "lem-group-completion"),
     {"table": [[0, 1], [1, 0]], "identity": 0, "inverse": [0, 1]}, "'inverse'"),
])
def test_unread_json_key_exits_2_naming_it(capsys, tmp_path, argv, doc, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and key in err and "Traceback" not in err


P2_CHAIN = {"size": 2, "pairs": [[0, 1]]}
T2 = [[0, 1], [1, 1]]
CLASSIFY, CONVEXITY = ("check", "classify"), ("check", "convexity")
PREREGULAR, GROUP = ("check", "preregular"), ("verify", "lem-group-completion")


# one malformed --input file per refusal path of each reader, with the
# whole stderr line; the last rows hold two faults, so the order in which
# a reader checks is pinned too
@pytest.mark.parametrize("argv, doc, message", [
    (PREREGULAR, {"order": [1], "subset": []}, "order spec must be an object"),
    (CLASSIFY, {"pairs": []},
     "malformed order object: need an object with a size"),
    (CLASSIFY, {"size": -1}, "order size must be an integer >= 0, got -1"),
    (CLASSIFY, {"size": 2.0}, "order size must be an integer >= 0, got 2.0"),
    (CLASSIFY, {"powerset": "x"}, "powerset must be an integer >= 0, got 'x'"),
    (CLASSIFY, {"chains": [2, 0]},
     "chain height must be an integer >= 1, got 0"),
    (CLASSIFY, {"size": 65}, "order spec has more than 64 elements"),
    (CLASSIFY, {"powerset": 7}, "order spec has more than 64 elements"),
    (CLASSIFY, {"chains": [8, 9]}, "order spec has more than 64 elements"),
    (CLASSIFY, {"chains": 3}, "chains must be a list of chain heights"),
    (CLASSIFY, {"size": 2, "pairs": [[0, 2]]},
     "order pairs must be [a, b] lists of integers in range(2)"),
    (CLASSIFY, {"size": 2, "pairs": [0, 1]},
     "order pairs must be [a, b] lists of integers in range(2)"),
    (CLASSIFY, {"size": 2, "pairs": [], "extra": 1},
     "order object does not read 'extra'"),
    (CLASSIFY, {"powerset": 1, "size": 2}, "order spec does not read 'size'"),
    (CLASSIFY, {"chains": [2], "pairs": [], "x": 0},
     "order spec does not read 'pairs', 'x'"),
    (CONVEXITY, {**MAP, "image": 0},
     "malformed map fixture: image must be a list"),
    (CONVEXITY, {"dom": P2_CHAIN, "cod": P2_CHAIN, "image": [1, 0]},
     "malformed map fixture: map is not order preserving at (0, 1)"),
    (CONVEXITY, {**MAP, "image": [0, 4]},
     "malformed map fixture: image values must be integers in range(4)"),
    (CONVEXITY, {**MAP, "image": [0, 3], "images": []},
     "map fixture does not read 'images'"),
    (PREREGULAR, {"order": P2_CHAIN, "subset": [2]},
     "subset must be a list of integers in range(2)"),
    (PREREGULAR, {"order": P2_CHAIN, "subset": [0], "subsets": []},
     "check preregular does not read 'subsets'"),
    (("enumerate",), {**MAP, "filters": {"convex": True}},
     "census filters must be an object mapping convex_range, "
     "preregular_range, downward_closed_range to true or false"),
    (("enumerate",), {**MAP, "filter": {}}, "enumerate does not read 'filter'"),
    (GROUP, {"identity": 0},
     "malformed monoid object: need a table and an identity"),
    (GROUP, {"table": [[0]] * 65, "identity": 0},
     "a monoid table has at most 64 rows, got 65"),
    (GROUP, {"table": [[0, 1]], "identity": 0},
     "table must be a nonempty square list of rows"),
    (GROUP, {"table": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "identity": 0},
     "operation is not associative"),
    (GROUP, {"size": 3, "table": T2, "identity": 0},
     "monoid size 3 is not the table's 2 rows"),
    (GROUP, {"size": 1.0, "table": [[0]], "identity": 0},
     "monoid size must be an integer >= 0, got 1.0"),
    (GROUP, {"table": T2, "identity": 0, "inverse": []},
     "monoid does not read 'inverse'"),
    (CLASSIFY, {"size": 100, "pairs": 5}, "order spec has more than 64 elements"),
    (CLASSIFY, {"size": "x", "extra": 1},
     "order size must be an integer >= 0, got 'x'"),
    (CLASSIFY, {"size": 2, "pairs": 5, "extra": 1},
     "order pairs must be [a, b] lists of integers in range(2)"),
    (GROUP, {"table": [[0, 1]], "identity": 0, "size": 9, "extra": 1},
     "table must be a nonempty square list of rows"),
    (GROUP, {"table": T2, "identity": 0, "size": "x", "extra": 1},
     "monoid size must be an integer >= 0, got 'x'"),
    (CONVEXITY, {"dom": {"size": -1}, "cod": {"powerset": 9}, "image": 0, "x": 1},
     "order size must be an integer >= 0, got -1"),
])
def test_every_reader_refusal_keeps_its_message(capsys, tmp_path, argv, doc,
                                                message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, *argv, "--input", str(path)) == (
        EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, text, key", [
    (CLASSIFY, '{"size": 2, "pairs": [[0, 1]], "size": 3}', "size"),
    (("enumerate",), '{"dom": {"powerset": 1}, "cod": {"powerset": 2}, '
                     '"filters": {"convex_range": true, "convex_range": false}}',
     "convex_range"),
    (GROUP, '{"table": [[0]], "identity": 0, "identity": 0}', "identity"),
])
def test_a_repeated_key_in_an_input_file_exits_2_naming_it(capsys, tmp_path,
                                                           argv, text, key):
    # a later value would silently replace the first
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run(capsys, *argv, "--input", str(path)) == (
        EXIT_USAGE, "", f"error: JSON object repeats the key '{key}'\n")


def test_a_repeated_key_in_an_inline_spec_exits_2_naming_it(capsys):
    assert run(capsys, "enumerate", "--dom", '{"powerset": 1, "powerset": 2}',
               "--cod", '{"powerset": 2}') == (
        EXIT_USAGE, "", "error: JSON object repeats the key 'powerset'\n")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "check", "classify", "--input", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    code, out, err = run(capsys, "enumerate", "--dom", "[" * 5000,
                         "--cod", '{"powerset": 1}')
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"table": [[0, 1], [1, 1]], "identity": 5},
    {"table": [[1, 0], [0, 1]], "identity": -1},
    {"table": [[0]], "identity": True},
    {"table": [[0, 1], [1, 1]], "identity": 0.0},
    {"table": 3, "identity": 0},
    {"table": [], "identity": 0},
    {"table": [[0, 1]], "identity": 0},
    {"table": [[0, 1], [1]], "identity": 0},
    {"table": [[0, 1], [1, 1.9]], "identity": 0},
    {"table": [[0, True], [True, True]], "identity": 0},
    {"table": [[0, 1], [1, -1]], "identity": 0},
    {"table": [[0, 1], [1, 1]]},
])
@pytest.mark.parametrize("verifier", ["lem-group-completion",
                                      "law-monoid-distributivity"])
def test_malformed_monoid_is_input_error(capsys, tmp_path, doc, verifier):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", verifier, "--input", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("verifier", ["law-monoid-distributivity",
                                      "law-disjoint-sum", "lem-group-completion"])
def test_monoid_table_above_64_rows_exits_2_at_once(capsys, tmp_path, verifier):
    # the exhaustive laws take about n^3 steps, up to 15 s at 64 rows
    def write(n):
        path = tmp_path / f"trunc{n}.json"
        path.write_text(json.dumps(monoid_to_json(truncated_addition_monoid(n))))
        return path

    path = str(write(65))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", verifier, "--input", path)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err == "error: a monoid table has at most 64 rows, got 65\n"
    assert cli._read_monoid(json.loads(write(64).read_text())).size == 64


@pytest.mark.parametrize("exc, code", [
    (embedding.DecompositionMismatchError("decomposition disagrees"), EXIT_INTERNAL),
    (RuntimeError("broken invariant"), EXIT_INTERNAL),
    (KeyError("missing"), EXIT_INTERNAL),
    (embedding.BudgetExceededError("too many nodes"), EXIT_BUDGET),
    # a builtin ValueError is a bug, not refused input
    (ValueError("max() arg is an empty sequence"), EXIT_INTERNAL),
])
def test_crash_is_not_reported_as_violation(capsys, monkeypatch, exc, code):
    def broken(cfg):
        raise exc

    slug = "thm-powerset-form"
    v = VERIFIERS[slug]
    monkeypatch.setitem(VERIFIERS, slug,
                        Verifier(v.slug, v.description, broken, v.reads))
    got, out, err = run(capsys, "verify", slug)
    assert got == code and out == ""
    if code == EXIT_INTERNAL:
        assert err.startswith("internal error\n")
        assert "Traceback" in err and type(exc).__name__ in err


@pytest.mark.parametrize("argv", [
    ("verify", "thm-powerset-form", "--x", "1", "--y", "2"),
    ("verify", "thm-chainprod-form", "--k", "2", "--m", "2", "--i", "1", "--j", "1"),
    ("verify", "thm-preregular-continuity", "--max-size", "3"),
    ("verify", "lem-convex-preregular", "--max-size", "4"),
    ("verify", "thm-extension-convexity", "--n", "2"),
    ("verify", "prop-cat-ro-iso", "--points", "2"),
    ("verify", "cor-atom-image", "--x", "1", "--y", "2"),
    ("verify", "law-monoid-distributivity", "--samples", "50"),
    ("verify", "law-disjoint-sum", "--samples", "50"),
    ("verify", "lem-group-completion", "--max-size", "3"),
    ("sweep", "convex-preregular", "--max-size", "4"),
    # order options at their limits
    ("verify", "thm-powerset-form", "--x", "1", "--y", "6"),
    ("verify", "thm-chainprod-form", "--k", "2", "--m", "4", "--i", "1", "--j", "3"),
    ("verify", "thm-extension-convexity", "--n", "1", "--m", "3"),
])
def test_every_registered_verifier_passes_on_small_inputs(capsys, argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == EXIT_OK, (argv, out, err)
    assert json.loads(out)["report"]["holds"] is True


def test_verifier_registry_is_complete():
    for slug in ("thm-preregular-continuity", "thm-powerset-form",
                 "thm-chainprod-form", "lem-convex-preregular",
                 "thm-extension-convexity", "prop-cat-ro-iso"):
        assert slug in VERIFIERS


def test_enumerate_from_input_file(capsys, tmp_path):
    spec_path = tmp_path / "census.json"
    spec_path.write_text(json.dumps({
        "dom": {"powerset": 1},
        "cod": {"powerset": 2},
        "filters": {"convex_range": True},
    }))
    code, out, _ = run(capsys, "enumerate", "--input", str(spec_path))
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("flag", [
    ("--dom", '{"powerset": 3}'),
    ("--cod", '{"powerset": 3}'),
    ("--convex-range",),
    ("--preregular-range",),
    ("--downward-closed-range",),
])
def test_enumerate_input_refuses_command_line_census(capsys, tmp_path, flag):
    spec_path = tmp_path / "census.json"
    spec_path.write_text(json.dumps(MAP))
    code, out, err = run(capsys, "enumerate", "--input", str(spec_path), *flag)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and flag[0] in err


@pytest.mark.parametrize("filters, count", [
    ({}, 5),
    ({"convex_range": False}, 5),
    ({"convex_range": True, "preregular_range": False}, 4),
])
def test_enumerate_input_filters_are_booleans(capsys, tmp_path, filters, count):
    spec_path = tmp_path / "census.json"
    spec_path.write_text(json.dumps({**MAP, "filters": filters}))
    code, out, _ = run(capsys, "enumerate", "--input", str(spec_path))
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == count


ENUMERATING = [
    ("verify", "thm-preregular-continuity"),
    ("verify", "lem-convex-preregular"),
    ("sweep", "convex-preregular"),
    ("search", "convex-not-preregular"),
    ("verify", "lem-group-completion"),
]


# the largest --max-size of each command in ENUMERATING: the lattices of n
# elements are built from the posets of n - 2, so the lattice sweeps reach 9
ENUMERATION_LIMITS = (7, 9, 9, 8, 5)
# what each refusal adds after the limit
LIMIT_WHY = {("verify", "thm-preregular-continuity"): " for thm-preregular-continuity",
             ("verify", "lem-group-completion"): " for lem-group-completion"}


@pytest.mark.parametrize("command, limit, size", [
    pytest.param(command, limit, size, id=f"command{i}-{size}")
    for i, (command, limit) in enumerate(zip(ENUMERATING, ENUMERATION_LIMITS))
    for size in (str(limit + 1), "50")])
def test_oversized_max_size_exits_2_at_once(capsys, command, limit, size):
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--max-size", size)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    why = LIMIT_WHY.get(command, "")
    assert err == f"error: --max-size must be at most {limit}{why}\n"


@pytest.mark.parametrize("size", ["8", "9"])
def test_continuity_sweep_above_its_limit_exits_2_at_once(capsys, size):
    # size 8 would enumerate the 16,999 posets of 8 and walk their subsets
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "thm-preregular-continuity",
                         "--max-size", size)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: --max-size must be at most 7 "
                   "for thm-preregular-continuity\n")


ORDER_LIMIT = " (orders have at most 64 elements)"


@pytest.mark.parametrize("argv, message", [
    (("verify", "lem-group-completion", "--max-size", "6"),
     "--max-size must be at most 5 for lem-group-completion"),
    (("verify", "lem-group-completion", "--max-size", "7"),
     "--max-size must be at most 5 for lem-group-completion"),
    (("verify", "lem-convex-preregular", "--max-size", "-3"),
     "--max-size must be >= 0, got -3"),
    (("search", "convex-not-preregular", "--max-size", "-2"),
     "--max-size must be >= 0, got -2"),
    (("verify", "thm-powerset-form", "--y", "-1"), "--y must be >= 0, got -1"),
    (("verify", "thm-powerset-form", "--x", "-1"), "--x must be >= 0, got -1"),
    (("verify", "thm-extension-convexity", "--n", "-1"), "--n must be >= 0, got -1"),
    (("sweep", "cat-ro-iso", "--points", "-1"), "--points must be >= 0, got -1"),
    (("sweep", "baire", "--points", "-1"), "--points must be >= 0, got -1"),
    (("search", "open-meager", "--points", "-1"), "--points must be >= 0, got -1"),
    (("sweep", "cat-ro-iso", "--points", "6"),
     "topologies are enumerated on 0..5 points, got 6"),
    (("sweep", "baire", "--points", "6"),
     "topologies are enumerated on 0..5 points, got 6"),
    (("search", "open-meager", "--points", "7"),
     "topologies are enumerated on 0..5 points, got 7"),
    (("verify", "thm-powerset-form", "--y", "7"),
     "--y must be at most 6" + ORDER_LIMIT),
    (("verify", "thm-powerset-form", "--x", str(10 ** 20)),
     "--x must be at most 6" + ORDER_LIMIT),
    (("verify", "cor-atom-image", "--y", "20"),
     "--y must be at most 6" + ORDER_LIMIT),
    (("verify", "cor-atom-image", "--x", "7", "--y", "6"),
     "--x must be at most 6" + ORDER_LIMIT),
    (("verify", "thm-chainprod-form", "--j", str(10 ** 12)),
     "--j must be at most 6 for --m 2" + ORDER_LIMIT),
    (("verify", "thm-chainprod-form", "--m", "3", "--j", "4"),
     "--j must be at most 3 for --m 3" + ORDER_LIMIT),
    (("verify", "thm-chainprod-form", "--k", "5", "--i", "3"),
     "--i must be at most 2 for --k 5" + ORDER_LIMIT),
    (("verify", "thm-chainprod-form", "--k", "65", "--i", "1"),
     "--k must be at most 64" + ORDER_LIMIT),
    (("verify", "thm-chainprod-form", "--k", "1", "--i", "7"),
     "--i must be at most 6 for --k 1" + ORDER_LIMIT),
    # the default --j 2 would build 4,096 elements
    (("verify", "thm-chainprod-form", "--m", "64"),
     "--j must be at most 1 for --m 64" + ORDER_LIMIT),
    (("verify", "thm-extension-convexity", "--n", "2", "--m", "7"),
     "--m must be at most 6 for thm-extension-convexity"),
    # the default --m is --n + 1
    (("verify", "thm-extension-convexity", "--n", "6"),
     "--m must be at most 6 for thm-extension-convexity"),
    (("verify", "thm-extension-convexity", "--n", "7"),
     "--n must be at most 6" + ORDER_LIMIT),
    # a chain of height 0 is empty, refused by option name before any work
    (("verify", "thm-chainprod-form", "--k", "0", "--i", "1"),
     "--k must be at least 1 when --i is at least 1"),
    (("verify", "law-monoid-distributivity", "--samples", "0"),
     "--samples must be positive"),
    (("verify", "thm-powerset-form", "--budget-nodes", "0"),
     "--budget-nodes must be positive"),
    (("verify", "law-monoid-distributivity", "--samples", "100001"),
     "--samples must be at most 100000"),
    (("verify", "law-disjoint-sum", "--samples", str(10 ** 9)),
     "--samples must be at most 100000"),
    (("verify", "thm-chainprod-form", "--m", "-2"), "--m must be >= 0, got -2"),
    (("verify", "thm-extension-convexity", "--m", "-1"),
     "--m must be >= 0, got -1"),
    # every integer option is a size, a count or a seed, none of them negative
    (("verify", "law-monoid-distributivity", "--seed", "-5"),
     "--seed must be >= 0, got -5"),
    # P(4) -> P(6) has 9,920,280 embeddings: refused before the census
    (("verify", "cor-atom-image", "--x", "4", "--y", "6"),
     "--x must be at most 3 for cor-atom-image --y 6"),
    (("verify", "thm-chainprod-form", "--m", "0", "--j", "1"),
     "--m must be at least 1 when --j is at least 1"),
])
def test_out_of_range_option_exits_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("sweep", "baire", "--points", "2", "--input", "/nonexistent/junk.json"),
     "error: sweep baire does not read --input\n"),
    (("verify", "thm-powerset-form", "--x", "1", "--y", "2",
      "--input", "junk.json"),
     "error: verify thm-powerset-form does not read --input\n"),
    (("verify", "thm-powerset-form", "--x", "1", "--y", "2",
      "--points", "9", "--max-size", "99"),
     "error: verify thm-powerset-form does not read --points, --max-size\n"),
    (("verify", "law-disjoint-sum", "--input", fixture("truncated_add_3.json"),
      "--input", "/nonexistent.json"),
     "error: --input may be given only once\n"),
    # the laws on N^I are decided once on N: no option sets a dimension
    (("verify", "law-monoid-distributivity", "--dims", "2"),
     "error: unrecognized arguments: --dims 2\n"),
    (("verify", "lem-group-completion", "--max-size", "2",
      "--input", fixture("truncated_add_3.json")),
     "error: verify lem-group-completion does not read --max-size "
     "next to --input\n"),
    (("search", "open-meager", "--max-size", "3"),
     "error: search open-meager does not read --max-size\n"),
    (("check", "classify", "--input", fixture("m3.json"),
      "--input", fixture("n5.json")),
     "error: --input may be given only once\n"),
    (("sweep", "baire", "--points", "2", "--budget-nodes", "1"),
     "error: sweep baire does not read --budget-nodes\n"),
    (("verify", "lem-convex-preregular", "--max-size", "3", "--seed", "9"),
     "error: verify lem-convex-preregular does not read --seed\n"),
    (("verify", "law-disjoint-sum", "--input", fixture("truncated_add_3.json"),
      "--samples", "5"),
     "error: verify law-disjoint-sum does not read --samples next to --input\n"),
    (("check", "classify", "--input", fixture("m3.json"), "--budget-nodes", "1"),
     "error: check classify does not read --budget-nodes next to --input\n"),
    # a value is range-checked only where it is read
    (("sweep", "baire", "--points", "2", "--samples", "0"),
     "error: sweep baire does not read --samples\n"),
    (("sweep", "baire", "--points", "2", "--seed", "-1"),
     "error: sweep baire does not read --seed\n"),
    (("sweep", "baire", "--points", "2", "--budget-nodes", "0"),
     "error: sweep baire does not read --budget-nodes\n"),
])
def test_unread_option_exits_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err.endswith(message)


GLOBAL_FLAGS = {"--samples": "5", "--seed": "1", "--budget-nodes": "1000"}
BUDGET = {"--budget-nodes"}
SAMPLED = {"--samples", "--seed"}
TRUNCATED = ("--input", fixture("truncated_add_3.json"))
MAP_FILE = ("--input", fixture("powerset_counterexample.json"))
# small runs of every command row, plus a run on a file where the row reads
# --input, each with the global flags it reads
SMALL_RUNS = {
    ("verify", "thm-powerset-form"): [(("--x", "1", "--y", "2"), BUDGET)],
    ("verify", "thm-chainprod-form"): [
        (("--k", "2", "--m", "2", "--i", "1", "--j", "1"), BUDGET)],
    ("verify", "thm-preregular-continuity"): [(("--max-size", "3"), set())],
    ("verify", "lem-convex-preregular"): [(("--max-size", "3"), set())],
    ("verify", "thm-extension-convexity"): [(("--n", "1"), BUDGET)],
    ("verify", "prop-cat-ro-iso"): [(("--points", "2"), set())],
    ("verify", "cor-atom-image"): [(("--x", "1", "--y", "2"), BUDGET)],
    ("verify", "law-monoid-distributivity"): [((), SAMPLED), (TRUNCATED, set())],
    ("verify", "law-disjoint-sum"): [((), SAMPLED), (TRUNCATED, set())],
    ("verify", "lem-group-completion"): [(("--max-size", "2"), set()),
                                         (TRUNCATED, set())],
    ("search", "convex-not-preregular"): [(("--max-size", "3"), set())],
    ("search", "open-meager"): [(("--points", "2"), set())],
    ("sweep", "cat-ro-iso"): [(("--points", "2"), set())],
    ("sweep", "baire"): [(("--points", "2"), set())],
    ("sweep", "convex-preregular"): [(("--max-size", "3"), set())],
    ("check", "convexity"): [(MAP_FILE, set())],
    ("check", "embedding"): [(MAP_FILE, set())],
    ("check", "preregular"): [
        (("--input", fixture("bowtie_bottom.json")), set())],
    ("check", "classify"): [(("--input", fixture("m3.json")), set())],
    ("check", "distributive"): [(("--input", fixture("n5.json")), set())],
    ("enumerate",): [
        (("--dom", '{"powerset": 1}', "--cod", '{"powerset": 2}'), BUDGET),
        (("--input", "census.json"), BUDGET)],
}
ROWS = [(command, slug) for command, table in TABLES.items() for slug in table]


@pytest.mark.parametrize("row", ROWS + [("enumerate",)], ids="-".join)
def test_every_row_refuses_the_global_flags_it_does_not_read(
        capsys, monkeypatch, tmp_path, row):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "census.json").write_text(json.dumps(MAP))
    for argv, reads in SMALL_RUNS[row]:
        why = " next to --input" if "--input" in argv else ""
        for flag, value in GLOBAL_FLAGS.items():
            start = time.perf_counter()
            code, out, err = run(capsys, "--format", "json", *row, *argv,
                                 flag, value)
            if flag in reads:
                assert code == EXIT_OK, (row, argv, flag, err)
                continue
            assert time.perf_counter() - start < 1.0
            assert code == EXIT_USAGE and out == "", (row, argv, flag)
            assert err == f"error: {' '.join(row)} does not read {flag}{why}\n"


def test_every_read_option_is_parsed():
    # a misspelt name in reads would refuse an option the row really reads
    for command, slug in ROWS:
        reads = TABLES[command][slug].reads
        assert set(reads) <= {*INT_OPTIONS, *GLOBAL_OPTIONS, "input"}, slug
        for key in reads:
            given = (["--input", "file.json"] if key == "input"
                     else ["--" + key.replace("_", "-"), "1"])
            args = cli._parse_argv([command, slug, *given])
            assert args[key] in (["file.json"], 1), (slug, key)


def test_every_parsed_option_is_read():
    # the converse: an option that no command reads changes nothing, and
    # every command refuses it; --help, --list and --format are read by main
    parsed = {key for key, _ in cli._FLAGS.values()} - {"help", "list", "format"}
    read = {key for table in TABLES.values() for row in table.values()
            for key in row.reads}
    assert parsed == read | set(ENUMERATE_READS)


def ref_parse(argv):
    """What the argparse reference makes of ``argv``: the values it was
    given, or the exit code it ends the parse with."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = ref_parser().parse_intermixed_args(argv)
    except SystemExit as exc:
        return exc.code
    # the defaults: None, and False for --list and [] for --input
    return {key: value for key, value in vars(args).items()
            if value is not None and value is not False and value != []}


# command lines of the grammar that README "Command line" states
PARSER_CASES = [
    # options before, after or between the command and the name
    ("--x", "2", "verify", "thm-powerset-form", "--y", "3"),
    ("verify", "--x", "2", "thm-powerset-form"),
    ("--format", "json", "--list"),
    ("--list", "verify"),
    ("enumerate", "--dom", '{"powerset": 1}', "--cod", '{"powerset": 2}',
     "--convex-range", "--budget-nodes", "9"),
    # --opt value and --opt=value
    ("verify", "thm-powerset-form", "--x=2", "--y", "3"),
    ("--format=json", "--dom=-x", "--input=a.json"),
    ("--x=",),
    # unique prefixes; an ambiguous one is refused
    ("sweep", "baire", "--po", "3"),
    ("verify", "lem-convex-preregular", "--max", "3"),
    ("--se=4", "--sa", "5", "--budg", "6", "--fo", "json", "--l"),
    ("--in", "a.json"),
    ("--s", "1"),
    ("--co", "x"),
    ("--=1",),
    # a negative number is a value
    ("verify", "law-disjoint-sum", "--seed", "-1"),
    ("--dom", "-1.5"),
    ("--dom", "-x"),
    ("--dom", "-x y"),
    # the last value of a repeated option wins, and --input appends
    ("--x", "3", "--x=4", "--format", "json", "--format", "table"),
    ("--input", "a", "--input=b", "--inp", "c"),
    # everything after -- is positional
    ("check", "--", "--input"),
    ("verify", "thm-powerset-form", "--"),
    ("verify", "--", "thm-powerset-form", "--x"),
    ("verify", "--x", "2", "--", "thm-powerset-form"),
    # unrecognized tokens, named in argv order
    ("verify", "law-monoid-distributivity", "--dims", "2"),
    ("--dims", "verify", "thm-powerset-form", "extra"),
    ("---x",),
    # malformed values and missing ones
    ("--x", "a"),
    ("--x", "1.5"),
    ("--x", " +4 "),
    ("--x", "1_0"),
    ("--x", "-0", "--n", "0"),
    ("--x", "1__0"),
    ("--x", "\u0663"),
    ("--x", "\u00b2"),
    ("--seed", "1" * (sys.get_int_max_str_digits() + 1)),
    ("verify", "thm-powerset-form", "--x"),
    ("--dom", "--cod", "x"),
    ("--x", "--", "3"),
    ("--format", "xml"),
    ("--list=",),
    ("--convex-range=1",),
    ("-hx",),
    # a third positional and an unknown command
    ("verify", "thm-powerset-form", "third"),
    ("bogus",),
    ("",),
    # help is read where it stands: an error before it comes first
    ("-h",),
    ("--help", "--x", "a"),
    ("bogus", "--he"),
    ("--x", "a", "-h"),
    (),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: repr(argv)[:60])
def test_parser_agrees_with_the_argparse_reference(capsys, argv):
    ref = ref_parse(list(argv))
    if ref == 0:
        assert cli._parse_argv(list(argv)) == {"help": True}
    elif ref == EXIT_USAGE:
        with pytest.raises(InputError):
            cli._parse_argv(list(argv))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
    else:
        assert cli._parse_argv(list(argv)) == ref


@pytest.mark.parametrize("argv, args", [
    # argparse's intermixed parse drops a -- that comes before every
    # positional and reads what follows as options
    (("--", "verify", "--x"), {"command": "verify", "name": "--x"}),
    (("--x", "2", "--", "--list"), 2),
    # and drops a second -- that its first makes a positional
    (("verify", "--", "--"), {"command": "verify", "name": "--"}),
    # -hh is -h twice to argparse
    (("-hh",), 2),
])
def test_everything_after_the_first_double_dash_is_positional(argv, args):
    if args == EXIT_USAGE:
        with pytest.raises(InputError):
            cli._parse_argv(list(argv))
    else:
        assert cli._parse_argv(list(argv)) == args
    assert ref_parse(list(argv)) != args


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--he", "--x", "a"),
                                  ("verify", "thm-powerset-form", "-h")])
def test_help_prints_usage_and_every_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("usage: latkit ")
    assert [line.split()[0] for line in lines[3:]] == list(cli._FLAGS)


@pytest.mark.parametrize("argv", [(), ("--format", "json"), ("--",)])
def test_no_command_prints_the_usage_line_and_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == cli._USAGE + "\n"


@pytest.mark.parametrize("argv", [
    ("enumerate", "census", "--dom", '{"powerset": 1}', "--cod", '{"powerset": 2}'),
    ("check", "classify", "extra", "--input", fixture("m3.json")),
    ("check", "--input", fixture("m3.json")),
    ("sweep", "no-such-sweep"),
    # each verifier has one name: the old alias of thm-powerset-form is gone
    ("verify", "powerset-characterization", "--x", "2", "--y", "3"),
])
def test_a_misplaced_or_missing_name_exits_2(capsys, argv):
    # one parser reads every command line: names are checked by main
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sweep", "cat-ro-iso"), ("sweep", "baire"), ("search", "open-meager")])
def test_topology_commands_reach_five_points(capsys, argv):
    code, out, _ = run(capsys, "--format", "json", *argv, "--points", "5")
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["holds"] is True and report["points"] == 5
    if argv[0] == "sweep":
        assert report["topologies"] == 6942
    else:  # the search report carries no count: every space is Baire
        assert report["found"] is False


# exit code and stdout SHA-256 of the topology and group-completion
# reports that the benchmark's pins do not cover
SPACE_AND_GROUP_PINS = [
    (("sweep", "cat-ro-iso", "--points", "5"), 0,
     "c54bdee158734b0b59350f8c1cd54f3ba7c7bc31a66a4c4fb7c26e897467d621"),
    (("sweep", "baire", "--points", "5"), 0,
     "07f83905cc2b64e12344bc5c27639c4b779f13ab5ec5bd47dcfa75bbf5848ddf"),
    (("verify", "prop-cat-ro-iso", "--points", "3"), 0,
     "7e997f237db54d1df482cd0f850227b92b1313ff97df1050475045d6496d03c8"),
    (("search", "open-meager", "--points", "5"), 0,
     "92781caf44acd78765cb4a7e8e707d3aaa7f220dd61622b7153f7d164d639f8a"),
    (("verify", "lem-group-completion", "--input", "z3.json"), 0,
     "89bb106f8735cb7eaea374fdc0a4425287404d893c9863a614b6612e83293a15"),
]


@pytest.mark.parametrize("argv, code, digest", SPACE_AND_GROUP_PINS,
                         ids=[" ".join(row[0]) for row in SPACE_AND_GROUP_PINS])
def test_space_and_group_reports_keep_their_bytes(capsys, tmp_path, argv, code,
                                                  digest):
    # z3.json is the cyclic group of order 3
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(
        {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "identity": 0}))
    argv = tuple(str(path) if a == "z3.json" else a for a in argv)
    got, out, err = run(capsys, "--format", "json", *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ENUMERATING)
def test_enumerating_commands_accept_explicit_zero(capsys, command):
    code, out, _ = run(capsys, "--format", "json", *command, "--max-size", "0")
    assert code == EXIT_OK
    assert json.loads(out)["report"]["max_size"] == 0


def test_search_convex_not_preregular_report_is_pinned(capsys):
    code, out, _ = run(capsys, "--format", "json", "search",
                       "convex-not-preregular", "--max-size", "5")
    assert code == EXIT_OK
    assert out == (
        '{"command": "search", "name": "convex-not-preregular", "report": '
        '{"found": true, "holds": true, "poset": {"pairs": [[0, 2], [0, 3], '
        '[1, 2], [1, 3]], "size": 4}, "subset": [0, 1, 2]}, "seed": 0}\n')


def test_convex_preregular_report_at_max_size_8_is_pinned(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "lem-convex-preregular", "--max-size", "8")
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert (report["lattices"], report["subsets"]) == (300, 64782)
    assert report["holds"] and report["violations"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c49df5b429ff5a00ffe79cc9b98e5c25c9aa424ee58c00768c785b7e5ff46099")


@pytest.mark.parametrize("command", [("verify", "lem-convex-preregular"),
                                     ("sweep", "convex-preregular")])
def test_convex_preregular_report_at_max_size_9_is_pinned(capsys, command):
    # the 1,078 lattices of 9 elements are built from the posets of 7
    code, out, _ = run(capsys, "--format", "json", *command, "--max-size", "9")
    assert code == EXIT_OK
    assert out == (
        f'{{"command": "{command[0]}", "name": "{command[1]}", "report": '
        '{"holds": true, "lattices": 1378, "max_size": 9, "subsets": 616718, '
        '"violations": []}, "seed": 0}\n')


def test_every_transfer_extension_passes_the_checked_constructor(capsys,
                                                                 monkeypatch):
    """``_sup_extension`` builds its maps unchecked, as monotone by
    construction: each one that ``thm-extension-convexity --n 3 --m 4``
    builds is accepted by the checked ``MonotoneMap``."""
    real, built = embedding._sup_extension, []

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(embedding, "_sup_extension", recording)
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "thm-extension-convexity", "--n", "3", "--m", "4")
    assert code == EXIT_OK
    assert len(built) == json.loads(out)["report"]["embeddings"] > 0
    for ext in built:
        assert MonotoneMap(ext.dom, ext.cod, ext.image).image == ext.image


@pytest.mark.parametrize("slug, argv", [
    ("thm-powerset-form", ("--x", "1", "--y", "2")),
    ("thm-chainprod-form", ("--k", "2", "--m", "2", "--i", "1", "--j", "2")),
])
def test_decomposition_failure_is_a_violation(capsys, monkeypatch, slug, argv):
    code, out, _ = run(capsys, "--format", "json", "verify", slug, *argv)
    assert code == EXIT_OK and "witness" not in json.loads(out)["report"]
    # mutation: the second census map is not of the theorem's form
    real = embedding._birkhoff_form
    seen = []

    def mutant(dom, cod, image):
        seen.append(list(image))
        if len(seen) == 2:
            raise embedding.DecompositionMismatchError("mutant")
        return real(dom, cod, image)

    monkeypatch.setattr(embedding, "_birkhoff_form", mutant)
    code, out, err = run(capsys, "--format", "json", "verify", slug, *argv)
    assert code == EXIT_VIOLATION and err == ""
    report = json.loads(out)["report"]
    assert not report["holds"] and len(seen) == report["census"] > 2
    assert report["witness"] == {"image": seen[1], "error": "mutant"}


def test_failed_extension_hypothesis_is_a_violation(capsys, monkeypatch):
    argv = ("--format", "json", "verify", "thm-extension-convexity", "--n", "1")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and "witness" not in json.loads(out)["report"]
    # mutation: the transfer theorem rejects a hypothesis on every census map
    def mutant(*args):
        raise embedding.HypothesisFailed("M-jid", "mutant")

    monkeypatch.setattr(embedding, "check_transfer_setting", mutant)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VIOLATION and err == ""
    report = json.loads(out)["report"]
    assert not report["holds"]
    assert len(report["failures"]) == report["embeddings"] > 0
    assert report["witness"] == report["failures"][0]
    assert report["witness"]["report"] == {
        "holds": False, "hypothesis": "M-jid",
        "error": "hypothesis 'M-jid' failed: mutant"}


def test_extension_that_loses_continuity_is_a_violation(capsys, monkeypatch):
    # mutation: the one candidate extension fails its existence check, which
    # is a counterexample with its census map as the witness, not a crash
    monkeypatch.setattr(embedding, "_preserves_sups",
                        lambda dom, cod, image: False)
    code, out, err = run(capsys, "--format", "json", "verify",
                         "thm-extension-convexity", "--n", "2")
    assert code == EXIT_VIOLATION and err == ""
    report = json.loads(out)["report"]
    census = embedding.enumerate_embeddings(
        powerset_lattice(2), powerset_lattice(3), convex_range=True)
    assert not report["holds"]
    assert [f["image"] for f in report["failures"]] == [
        list(img) for img, _ in census]
    witness = report["witness"]
    assert witness == report["failures"][0]
    assert witness["report"]["extension"] == witness["image"]
    assert witness["report"]["extensions_found"] == 0
    assert not witness["report"]["holds"] and not witness["report"]["unique"]


def drop_convex_range(monkeypatch):
    """Run every census without its convex-range filter.  The formula
    census of P(2) -> P(3) keeps its 12 maps: its inner census is between
    antichains, whose subsets are all convex."""
    real = embedding.enumerate_embeddings

    def unfiltered(dom, cod, *, convex_range=False, **filters):
        return real(dom, cod, **filters)

    monkeypatch.setattr(embedding, "enumerate_embeddings", unfiltered)


def test_product_forms_can_fail_without_convex_range(capsys, monkeypatch):
    # of the 30 embeddings P(2) -> P(3), 18 are not of the Birkhoff form
    drop_convex_range(monkeypatch)
    for argv, key in ((("thm-powerset-form", "--x", "2", "--y", "3"),
                       "decompositions_ok"),
                      (("thm-chainprod-form", "--k", "2", "--m", "2",
                        "--i", "2", "--j", "3"), "mismatches")):
        code, out, err = run(capsys, "--format", "json", "verify", *argv)
        assert code == EXIT_VIOLATION and err == ""
        report = json.loads(out)["report"]
        assert (report["census"], report["formula_census"]) == (30, 12)
        assert report[key] == {"decompositions_ok": False, "mismatches": 18}[key]


def test_extension_check_can_fail_without_convex_range(capsys, monkeypatch):
    drop_convex_range(monkeypatch)
    code, out, err = run(capsys, "--format", "json", "verify",
                         "thm-extension-convexity", "--n", "2", "--m", "3")
    assert code == EXIT_VIOLATION and err == ""
    report = json.loads(out)["report"]
    assert (report["embeddings"], len(report["failures"])) == (30, 18)


def test_convex_preregular_can_fail_off_lattices():
    # lem-convex-preregular's predicate on the bowtie, which is no lattice
    assert cli._convex_not_preregular(bowtie()) == [0b0111, 0b1011, 0b1101, 0b1110]


def test_extension_convexity_report_at_m_4_is_pinned(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "thm-extension-convexity", "--n", "2", "--m", "4")
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["embeddings"] == 48 and report["holds"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "99a6cde8d0f2a5954b9c5d89747069315484ac369e0f214e72d3bd6ffcc27932")
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "thm-extension-convexity", "--n", "4", "--m", "5")
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["embeddings"] == 240 and report["holds"]


def child_env(unbuffered: bool) -> dict:
    """The caller's environment for ``python -m latkit.cli``, with
    ``PYTHONUNBUFFERED=1`` set or removed: the two ways stdout is written."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    # the census writes 3,990 lines, far more than a pipe buffer holds, and
    # the reader goes away after the first, as "| head -1" does
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = child_env(unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "latkit.cli", "enumerate",
         "--dom", '{"chains":[2,3]}', "--cod", '{"chains":[3,3,3]}'],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert json.loads(first)["flags"]["embedding"] is True
    assert proc.returncode == EXIT_PIPE == 141
    assert err == b""


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_a_closed_stdout_stops_the_census_search(unbuffered):
    # the census has 761,460 maps and takes about 1.9 million nodes; its
    # lines leave as the search finds them, so the reader's first line
    # comes long before the budget, and closing stdout ends the search
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    proc = subprocess.Popen(
        [sys.executable, "-m", "latkit.cli", "enumerate",
         "--dom", '{"powerset":3}', "--cod", '{"powerset":6}',
         "--budget-nodes", "200000"],
        cwd=root, env=child_env(unbuffered), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert json.loads(first)["flags"]["embedding"] is True
    assert proc.returncode == EXIT_PIPE
    assert err == b""


def test_a_budget_overrun_leaves_a_prefix_of_the_census(capsys):
    # 200 nodes find 128 of the 302 maps; the lines written are whole
    # blocks of them, in census order
    code, out, err = run(capsys, "enumerate", "--dom", '{"powerset":2}',
                         "--cod", '{"powerset":4}', "--budget-nodes", "200")
    assert code == EXIT_BUDGET
    assert err == "budget exceeded: node budget 200 exceeded\n"
    lines = list(cli._census_lines(embedding.enumerate_embeddings(
        powerset_lattice(2), powerset_lattice(4))))
    kept = out.count("\n")
    assert len(lines) == 302 and 0 < kept < 128
    assert out == "".join(line + "\n" for line in lines[:kept])


def test_a_budget_overrun_of_an_interval_census_leaves_no_line(capsys):
    # the interval search keeps its 48 maps until its 177 nodes are done,
    # then sorts them, so an overrun at 100 nodes has written nothing
    argv = ("enumerate", "--dom", '{"powerset":2}', "--cod", '{"powerset":4}',
            "--convex-range", "--budget-nodes")
    code, out, err = run(capsys, *argv, "100")
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget exceeded: node budget 100 exceeded\n"
    code, out, _ = run(capsys, *argv, "177")
    assert code == EXIT_OK and out.count("\n") == 48


class RecordedStdout:
    """A stdout stand-in that keeps the text of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_census_reaches_stdout_in_pipe_sized_writes(monkeypatch):
    # one write per line would be 3,990 writes, each a system call when
    # stdout is unbuffered
    stdout = RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["enumerate", "--dom", '{"chains":[2,3]}',
                 "--cod", '{"chains":[3,3,3]}'])
    assert code == EXIT_OK
    census = list(embedding.enumerate_embeddings(
        chain_product([2, 3]), chain_product([3, 3, 3])))
    assert "".join(stdout.writes) == "".join(
        line + "\n" for line in cli._census_lines(census))
    assert len(census) == 3_990
    assert len(stdout.writes) <= 150
    assert max(len(text.encode()) for text in stdout.writes) <= select.PIPE_BUF


def test_a_line_longer_than_pipe_buf_is_written_on_its_own(monkeypatch):
    stdout = RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    long = "x" * select.PIPE_BUF
    cli._emit(["a", "b", long, "c"])
    assert stdout.writes == ["a\nb\n", long + "\n", "c\n"]


@pytest.mark.parametrize("argv, expected", [
    (["--format", "json", "check", "classify", "--input", fixture("n5.json")],
     EXIT_OK),
    (["--format", "json", "check", "distributive", "--input", fixture("m3.json")],
     EXIT_VIOLATION),
    (["verify", "no-such-verifier"], EXIT_USAGE),
    (["enumerate", "--dom", '{"chains":[2,3]}', "--cod", '{"chains":[3,3,3]}'],
     EXIT_OK),
], ids=["exit-0", "exit-1", "exit-2", "enumerate"])
def test_module_entry_point_matches_main(capsys, argv, expected):
    # the __main__ block freezes the heap before exit: the process must
    # still write main's bytes and return main's code, whether or not
    # stdout is unbuffered
    code, out, _ = run(capsys, *argv)
    assert code == expected
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    for unbuffered in (True, False):
        proc = subprocess.run([sys.executable, "-m", "latkit.cli", *argv],
                              cwd=root, env=child_env(unbuffered),
                              capture_output=True, timeout=60)
        assert proc.returncode == expected
        assert proc.stdout == out.encode()


def test_crown_closure_past_the_cap_exits_2(capsys, tmp_path):
    # a crown: minimal elements a_i below every maximal m_j with j != i, so
    # the sets of upper bounds of the nonempty subsets of the minimal
    # elements are 2**k - 1 classes, past MAX_CLOSURE_SIZE at k = 19
    k = 19
    path = tmp_path / "crown.json"
    path.write_text(json.dumps({
        "order": {"size": 2 * k, "pairs": [[i, k + j] for i in range(k)
                                           for j in range(k) if i != j]},
        "subset": list(range(k))}))
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "json", "check", "preregular",
                         "--input", str(path))
    assert time.perf_counter() - start < 10.0
    assert code == EXIT_USAGE and out == ""
    assert "intersection closure passed MAX_CLOSURE_SIZE = 262144 members" in err
