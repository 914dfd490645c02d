"""End-to-end CLI checks through a real subprocess."""

import csv
import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooprob import _writer, cli
from cooprob.cli import UsageError, main

CMD = [sys.executable, "-m", "cooprob"]


def run_cli(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120
    )


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ------------------------------------------------------------- happy paths


def test_classify_envelope_golden():
    proc = run_cli("classify", "--table", "3,0,0,2")
    assert proc.returncode == 0
    expected = (
        "{\n"
        '  "command": "classify",\n'
        '  "inputs": {\n'
        '    "table": {\n'
        '      "a": 3.0,\n'
        '      "b": 0.0,\n'
        '      "c": 0.0,\n'
        '      "d": 2.0\n'
        "    }\n"
        "  },\n"
        '  "result": {\n'
        '    "class": "battle-of-sexes",\n'
        '    "boundary_flags": [\n'
        '      "b=c"\n'
        "    ]\n"
        "  },\n"
        '  "warnings": [\n'
        '    "classification hit boundary equality b=c"\n'
        "  ]\n"
        "}\n"
    )
    assert proc.stdout == expected


def test_estimate_balanced_payload():
    env = run_json("estimate", "--table", "101,100,1,0")
    assert env["command"] == "estimate"
    assert env["result"]["p"] == 0.99
    assert env["result"]["class"] == "prisoners-dilemma"
    assert env["result"]["roots"] == [0.99]  # the quadratic coefficient is 0
    assert "degenerate_branch" not in env["result"]
    assert env["warnings"] == []


def test_estimate_is_deterministic():
    one = run_cli("estimate", "--table", "9,8,5,2")
    two = run_cli("estimate", "--table", "9,8,5,2")
    assert one.stdout == two.stdout
    assert "0.633974596216" in one.stdout  # rounded to 12 significant digits
    assert "0.6339745962155614" not in one.stdout


def test_estimate_methods():
    maximin = run_json("estimate", "--table", "3,0,0,2", "--method", "maximin")
    assert maximin["result"]["value"] == 0.4
    assert maximin["result"]["alt_value"] == 0.6
    assert any("maximin" in w for w in maximin["warnings"])

    pmax = run_json("estimate", "--table", "10,4,1,0", "--method", "payoff-max")
    assert pmax["result"]["p"] == 0.8

    oracle = run_json("estimate", "--table", "9,8,5,2", "--method", "oracle", "--p0", "0.25")
    assert oracle["result"]["converged"] is True
    assert oracle["result"]["p"] == pytest.approx(0.633974596215, abs=1e-9)
    assert oracle["inputs"]["p0"] == 0.25


def test_estimate3_includes_coefficients():
    env = run_json("estimate3", "--table", "10,8,7,5,4,2")
    assert env["result"]["p"] == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert env["result"]["coefficients"] == [0.0, 0.0, 3.0, -1.0]
    # a lone root that repels under iteration is still the answer
    lone = run_json("estimate3", "--table", "95,68,67,66,10,9")
    assert lone["result"]["p"] == pytest.approx(0.640438579215, abs=1e-12)
    # tied payoffs: the balance function is p^3, whose only root is 0
    tied = run_json("estimate3", "--table", "6,5,3,2,2,0")
    assert tied["result"]["p"] == 0.0


def test_asym_two_sided_payload():
    env = run_json("asym", "--table", "10,7,5,1,9,8,5,2")
    assert env["result"]["x"]["p"] == pytest.approx(0.368322679973, abs=1e-11)
    assert env["result"]["y"]["p"] == pytest.approx(0.569978693279, abs=1e-11)


def test_equiprob_infers_player_count():
    two = run_json("equiprob", "--table", "9,8,5,2")
    assert two["result"]["players"] == 2
    assert two["result"]["gap"] == 2.0
    assert two["result"]["verdict"] == "cooperationLeaning"
    three = run_json("equiprob", "--table", "10,8,7,5,4,2")
    assert three["result"]["players"] == 3
    assert three["result"]["gap"] == -4.0


def test_equiprob_has_no_players_option(capsys):
    for table, players in (("9,8,5,2", 2), ("10,8,7,5,4,2", 3)):
        assert main(["equiprob", "--table", table, "--players", str(players)]) == 64
        capsys.readouterr()
        assert main(["equiprob", "--table", table]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["players"] == players


def test_app_commands():
    diner = run_json("app", "diner", "--r", "5", "--s", "4.5", "--u", "1.5", "--w", "1")
    assert diner["result"]["p"] == 0.5

    ladder = run_json("app", "diner", "--r", "4", "--s", "3", "--u", "2", "--w", "1", "--n", "4")
    assert ladder["result"]["p_solver"] == pytest.approx(2.0 / 3.0, abs=1e-11)
    assert ladder["result"]["gap"] == 0.0

    goods = run_json("app", "public-goods", "--r", "100", "--k", "1.5", "--options", "4")
    assert goods["result"]["probabilities"] == pytest.approx(
        [4 / 30, 5 / 30, 6 / 30, 7 / 30, 8 / 30], abs=1e-11
    )

    traveler = run_json(
        "app", "traveler", "--max", "4", "--min", "2", "--bonus", "2", "--steps", "2", "--mean"
    )
    assert traveler["result"]["probabilities"][1] == pytest.approx(1 / 3, abs=1e-11)
    assert "mean_claim" in traveler["result"] or "mean" in traveler["result"]


APP_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "app_golden.json").read_text()
)


@pytest.mark.parametrize("command", sorted(APP_GOLDEN))
def test_app_envelopes_are_byte_identical_to_the_golden_record(command, capsys):
    # the record holds stdout of the tuple-based distributions; array-based
    # ones must render the same bytes in every format
    assert main(command.split()) == 0
    assert capsys.readouterr().out == APP_GOLDEN[command]


# SHA-256 of stdout of each array subcommand, in every format, at sizes whose
# option counts (the flag plus 1) reach 8191, 8192 and 8193, around the
# writer's 8192-row passes
APP_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "app_digests.json").read_text()
)


@pytest.mark.parametrize("command", sorted(APP_DIGESTS))
def test_app_envelopes_hash_to_the_recorded_digests(command, capsys):
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == APP_DIGESTS[command]


def test_attrition_mode_warning_presence():
    paper = run_json("app", "attrition", "--x", "2", "--max-bid", "4", "--mode", "paper")
    assert any("uniform" in w for w in paper["warnings"])
    dispatch = run_json("app", "attrition", "--x", "2", "--max-bid", "4", "--mode", "dispatch")
    assert dispatch["warnings"] == []
    assert paper["result"]["probabilities"][2] == 0.2
    assert dispatch["result"]["probabilities"][2] == 0.2
    assert paper["result"]["probabilities"][0] != dispatch["result"]["probabilities"][0]


def test_verify_command(tmp_path):
    payload = [
        {
            "name": "duel",
            "players": 2,
            "table": {"a": 8, "b": 2, "c": -2, "d": -4},
            "target": {"p": 0.5, "mu": 1.0, "p_tol": 1e-6, "mu_tol": 1e-6},
        },
        {
            "name": "needs-work",
            "players": 2,
            "table": {"a": 10, "b": 7, "c": 5, "d": 1},
            "target": {"p": 0.5, "mu": 5.0, "p_tol": 0.01, "mu_tol": 0.05},
        },
    ]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(payload))
    env = run_json("verify", "--file", str(path))
    assert env["result"]["all_passed"] is False
    by_name = {row["name"]: row for row in env["result"]["entries"]}
    assert by_name["duel"]["passed"] is True
    assert by_name["needs-work"]["passed"] is False
    assert by_name["needs-work"]["p_computed"] == pytest.approx(0.354248688935, abs=1e-11)


# ---------------------------------------------------------------- formats


def test_csv_carries_the_same_numbers_as_json():
    env = run_json("estimate", "--table", "9,8,5,2")
    proc = run_cli("--format", "csv", "estimate", "--table", "9,8,5,2")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["key", "value"]
    flat = dict((k, v) for k, v in rows[1:])
    assert flat["command"] == "estimate"
    assert float(flat["result.p"]) == env["result"]["p"]
    assert float(flat["result.q"]) == env["result"]["q"]
    assert float(flat["result.roots.1"]) == env["result"]["roots"][1]
    assert "result.degenerate_branch" not in flat


def test_text_format_includes_percent_echo():
    proc = run_cli("estimate", "--table", "101,100,1,0", "--format", "text")
    assert proc.returncode == 0
    assert "p = 0.99 (99.0%)" in proc.stdout
    assert "class = prisoners-dilemma" in proc.stdout


def test_global_flags_accepted_before_and_after_subcommand():
    before = run_cli("--format", "text", "classify", "--table", "9,8,5,2")
    after = run_cli("classify", "--table", "9,8,5,2", "--format", "text")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout
    text = after.stdout
    diner = ("app", "diner", "--r", "5", "--s", "3.5", "--u", "1.5", "--w", "1", "--n", "3")
    before = run_cli("--format", "csv", *diner)
    after = run_cli(*diner, "--format", "csv")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout and before.stdout.startswith("key,value\n")
    # given in both places, the later flag wins
    both = run_cli("--format", "csv", "classify", "--table", "9,8,5,2", "--format", "text")
    assert both.returncode == 0 and both.stdout == text


def test_the_reused_parser_carries_nothing_between_calls(capsys, monkeypatch):
    # each flag given before the subcommand, after it, in both places and in
    # neither, in turn; a value left over from one call would change the next
    table = ("--table", "39,38,28,27,26,1")
    traveler = ("app", "traveler", "--max", "4", "--min", "2", "--bonus", "2", "--steps", "2")
    sequence = [
        ["--format", "csv", "classify", "--table", "9,8,5,2"],
        ["classify", "--table", "9,8,5,2"],
        ["classify", "--table", "9,8,5,2", "--format", "text"],
        ["--format", "csv", "classify", "--table", "9,8,5,2", "--format", "text"],
        ["classify", "--table", "9,8,5,2"],
        ["estimate", "--table", "9,8,5,2", "--method", "oracle", "--p0", "0.25"],
        ["estimate", "--table", "9,8,5,2", "--method", "oracle"],
        ["estimate3", "--table", "15.98,15.95,15.63,15.6,15.57,14.96"],
        ["estimate3", *table],
        [*traveler, "--mean"],
        [*traveler],
        ["--format", "text", "equiprob", "--table", "10,8,7,5,4,2"],
        ["equiprob", "--table", "9,8,5,2", "--players", "2"],
        ["equiprob", "--table", "9,8,5,2"],
        ["estimate", "--table", "9,8,5,2", "--bogus"],
        ["estimate"],
    ]
    fresh = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        for argv in sequence:
            fresh.append((main(argv), capsys.readouterr()))
    reused = []
    for argv in sequence:
        reused.append((main(argv), capsys.readouterr()))
    assert reused == fresh
    assert cli._parser() is cli._parser()
    # the sequence reaches a success, an ambiguous root and a usage error
    assert {code for code, _ in fresh} == {0, 3, 64}


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "args",
    [
        ("estimate", "--table", "1,2,3"),  # arity
        ("estimate", "--table", "1,2,three,4"),  # malformed number
        ("estimate", "--table", "nan,2,1,0"),  # non-finite
        ("estimate", "--table", "1,2,3,4"),  # unclassified ordering
        ("app", "diner", "--r", "4", "--s", "3.5", "--u", "2", "--w", "1"),  # R_cb = 2 = n
        ("app", "public-goods", "--r", "100", "--k", "2.5", "--options", "4"),
        ("verify", "--file", "/nonexistent/tables.json"),
        ("verify", "--file", "{tmp}"),  # a directory
        ("verify", "--file", "{tmp}/latin1.json"),  # text that is not UTF-8
        ("verify", "--file", "{tmp}/huge.json"),  # a payoff past float64
        ("app", "attrition", "--x", "0", "--max-bid", "3"),  # the prize must be positive
        ("app", "traveler", "--max", "1.7e308", "--min", "1e308", "--bonus", "1e308", "--steps", "3"),
        ("app", "traveler", "--max", "1e-323", "--min", "5e-324", "--bonus", "5e-324", "--steps", "3"),  # v underflows
    ],
)
def test_validation_failures_exit_2(args, tmp_path):
    (tmp_path / "latin1.json").write_bytes('[{"name": "café"}]'.encode("latin-1"))
    (tmp_path / "huge.json").write_text(json.dumps([{**GOOD_ENTRY, "table": {**GOOD_ENTRY["table"], "a": 10**400}}]))
    proc = run_cli(*(arg.format(tmp=tmp_path) for arg in args))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("estimate", "--table", "1e308,0,-1e308,-1"),  # payoff scale
        ("estimate3", "--table", "1.7e308,1e308,0,-1e308,-1.5e308,-1.7e308"),  # ladder weights
        ("estimate3", "--table", "1e308,0.95e308,0.95e308,0.9e308,0,0"),  # cubic coefficients
        ("asym", "--table", "1e308,0,-1e308,-1.7e308,9,8,5,2"),  # payoff scale
    ],
)
def test_float64_overflow_exits_2_without_a_traceback(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "overflow" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "table, p",
    [
        ("1e300,1e200,0,-1e200", 9.9999999999999996e-51),  # (b - d)^2 overflows float64
        ("5e18,1,0,0.5", 5.4772255730516611e-10),  # Chicken; eps_root once made it ambiguous
        ("0,-5e-324,-1e307,-1e307", 1.0),  # the other root is past float64; it once divided by 0
    ],
)
def test_extreme_two_player_tables_are_answered(table, p):
    env = run_json("estimate", "--table", table)
    assert env["result"]["p"] == pytest.approx(p, rel=1e-11)


def test_attrition_paper_mode_answers_a_prize_whose_square_overflows():
    env = run_json("app", "attrition", "--x", "1e308", "--max-bid", "3")
    assert env["result"]["probabilities"] == pytest.approx([2e-308, 1 / 6, 1 / 3, 1 / 2], rel=1e-11)


def _no_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize(
    "args, path, want",
    [
        (["estimate", "--table=0,-5e-324,-1,-1"], ("roots",), [None, 1.0]),  # the other root is -inf
        (["estimate", "--table=1e308,-1e308,-1e308,1e308", "--method", "maximin"], ("value", "alt_value"), None),  # NaN
    ],
)
def test_a_non_finite_number_prints_as_null(args, path, want, capsys):
    assert main(args) == 0
    result = json.loads(capsys.readouterr().out, parse_constant=_no_constant)["result"]
    for key in path:
        assert result[key] == want
    assert main([*args, "--format", "csv"]) == 0
    assert f"result.{path[0]}{'.0' if want else ''},\n" in capsys.readouterr().out
    assert main([*args, "--format", "text"]) == 0
    assert f"{path[0]}{'.0' if want else ''} = None\n" in capsys.readouterr().out


@pytest.mark.parametrize("count", [2**62, 2**50])  # past what numpy describes; past the address space
@pytest.mark.parametrize(
    "args",
    [
        ["app", "public-goods", "--r", "1", "--k", "1.5", "--options"],
        ["app", "attrition", "--x", "2", "--max-bid"],
        ["app", "traveler", "--max", "3", "--min", "1", "--bonus", "0.5", "--steps"],
    ],
)
def test_an_oversized_option_count_exits_2_on_one_line(args, count, capsys):
    assert main([*args, str(count)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_no_valid_root_exits_3():
    proc = run_cli("estimate3", "--table", "1,1,1,1,1,1")
    assert proc.returncode == 3
    assert "vanished" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("frobnicate",),
        ("estimate", "--table", "9,8,5,2", "--badflag"),
        ("estimate",),  # missing required
        ("--format", "yaml", "estimate", "--table", "9,8,5,2"),
    ],
)
def test_usage_errors_exit_64(args):
    proc = run_cli(*args)
    assert proc.returncode == 64


def test_malformed_tables_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    proc = run_cli("verify", "--file", str(path))
    assert proc.returncode == 2


GOOD_ENTRY = {
    "name": "duel",
    "players": 2,
    "table": {"a": 8, "b": 2, "c": -2, "d": -4},
    "target": {"p": 0.5, "mu": 1.0, "p_tol": 1e-6, "mu_tol": 1e-6},
}


@pytest.mark.parametrize(
    "change, named",
    [
        ({"table": {**GOOD_ENTRY["table"], "b": "x"}}, "'b'"),  # a payoff that is no number
        ({"table": {**GOOD_ENTRY["table"], "b": None}}, "'b'"),
        ({"table": {**GOOD_ENTRY["table"], "a": 10**400}}, "'a'"),  # past float64
        ({"target": {**GOOD_ENTRY["target"], "mu": -(10**400)}}, "'mu'"),
        ({"target": {**GOOD_ENTRY["target"], "mu": "high"}}, "'mu'"),
        ({"target": {**GOOD_ENTRY["target"], "p_tol": None}}, "'p_tol'"),
        ({"players": "two"}, "players"),
        ({"players": 2.5}, "players"),
        ({"players": None}, "players"),
        ({"table": [8, 2, -2, -4]}, "table"),
        ({"target": 0.5}, "target"),
    ],
)
def test_a_bad_tables_entry_exits_2_naming_the_entry_and_key(tmp_path, capsys, change, named):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([GOOD_ENTRY, {**GOOD_ENTRY, "name": "bad", **change}]))
    assert main(["verify", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: entry 1") and named in captured.err
    assert "Traceback" not in captured.err


def test_an_integral_float_player_count_is_accepted(tmp_path, capsys):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([{**GOOD_ENTRY, "players": 2.0}]))
    assert main(["verify", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["entries"][0]["players"] == 2


# ---------------------------------------------------------- bulk rendering
#
# The renderers format array-valued results (probabilities, weights) in
# bulk. The reference below is the per-value renderer they replaced, kept
# verbatim; every envelope must come out byte for byte the same.


def _ref_round12(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(f"{value:.12g}")


def _ref_rounded(obj):
    if isinstance(obj, dict):
        return {k: _ref_rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_rounded(v) for v in obj]
    return _ref_round12(obj)


def _ref_flatten(prefix: str, value, out: list[tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _ref_flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        for idx, v in enumerate(value):
            _ref_flatten(f"{prefix}.{idx}", v, out)
    else:
        out.append((prefix, value))


def _ref_is_probability_key(key: str) -> bool:
    """Keys whose values read naturally as percentages in text mode."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf in ("p", "q", "p_star", "p_x", "p_y", "p_computed", "p_solver", "p_conjecture"):
        return True
    parent = key.split(".")
    return len(parent) >= 2 and parent[-2] == "probabilities"


def _ref_render(envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(envelope, indent=2) + "\n"
    if fmt == "csv":
        flat: list[tuple[str, object]] = []
        _ref_flatten("", envelope, flat)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in flat:
            if value is None:
                writer.writerow([key, ""])
            elif isinstance(value, bool):
                writer.writerow([key, "true" if value else "false"])
            else:
                writer.writerow([key, value])
        return buf.getvalue()
    if fmt == "text":
        flat = []
        _ref_flatten("", envelope["result"], flat)
        lines = [f"{envelope['command']}:"]
        for key, value in flat:
            if _ref_is_probability_key(key) and isinstance(value, float) and not isinstance(value, bool):
                lines.append(f"  {key} = {value} ({_ref_round12(value * 100.0)}%)")
            else:
                lines.append(f"  {key} = {value}")
        for note in envelope["warnings"]:
            lines.append(f"  warning: {note}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _ref_distribution_payload(dist) -> dict:
    return {
        "probabilities": dist.probabilities.tolist(),
        "weights": dist.weights.tolist(),
        "total": dist.total,
    }


EDGE_VALUES = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    1e-4,
    1e-5,
    999999999999.5,  # rounds up across the switch to exponent form
    1e12,
    123456789012345.0,  # .12g prints e+14, repr fixed notation
    1e16,
    5e-324,  # subnormal: repr prints fewer than 12 digits
    1e-310,
    2.2250738585072014e-308,
]


def _float_reprs(values) -> list[str]:
    """The writer's string for each value, one row each."""
    return _writer._block(len(values), *_writer._repr_columns(values), b"\n").split("\n")[:-1]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_bulk_number_rule_on_edge_values(value):
    assert _float_reprs([value]) == [repr(_ref_round12(value))]


def _ulp_neighbours(values):
    return [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


# values whose 12-digit rounding is a tie or a hair from one, where numpy's
# mantissa could be off by one; Python's formatting takes them
NEAR_TIES = _ulp_neighbours([0.1234567890125, 123456789012.5, 999999999999.5])
# both sides of every power of ten where repr's notation or the digit count changes
POWER_NEIGHBOURS = _ulp_neighbours([float(f"1e{k}") for k in range(-5, 17)])
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300]


@pytest.mark.parametrize("values", [NEAR_TIES, POWER_NEIGHBOURS, SPECIAL_VALUES], ids=["ties", "powers", "special"])
def test_bulk_number_rule_at_its_seams(values):
    assert _float_reprs(values) == [repr(_ref_round12(v)) for v in values]
    assert _writer._rounded_array(values).tobytes() == np.array([_ref_round12(v) for v in values]).tobytes()


def test_bulk_number_rule_on_a_log_uniform_draw():
    rng = np.random.default_rng(20141)
    values = np.exp(rng.uniform(math.log(1e-320), math.log(1e308), 200_000)) * rng.choice([-1.0, 1.0], 200_000)
    values = values.tolist()
    assert _float_reprs(values) == [repr(_ref_round12(v)) for v in values]
    assert _writer._rounded_array(values).tobytes() == np.array([_ref_round12(v) for v in values]).tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), max_size=20))
@settings(max_examples=500, deadline=None)
def test_bulk_number_rule_matches_per_value_rounding(values):
    assert _float_reprs(values) == [repr(_ref_round12(v)) for v in values]


BULK_COMMANDS = [
    "app public-goods --r 100 --k 1.5 --options 1",
    "app public-goods --r 100 --k 1.5 --options 3000",
    "app traveler --max 100 --min 2 --bonus 2 --steps 2000 --mean",
    "app attrition --x 2 --max-bid 1000 --mode paper",
    "app attrition --x 2 --max-bid 1000 --mode dispatch",
    "app public-goods --r 500 --k 1.5 --options 40000",  # the benchmark's size
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", BULK_COMMANDS)
def test_bulk_envelopes_match_the_per_value_renderer(command, fmt, capsys, monkeypatch):
    argv = command.split() + ["--format", fmt]
    assert main(argv) == 0
    bulk = capsys.readouterr().out
    monkeypatch.setattr(cli, "_distribution_payload", _ref_distribution_payload)
    monkeypatch.setattr(cli, "_rounded", _ref_rounded)
    monkeypatch.setattr(cli, "_render", _ref_render)
    assert main(argv) == 0
    assert bulk == capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_bulk_renderer_matches_on_a_synthetic_envelope(fmt):
    def envelope(array):
        result = {
            "p": 0.25,
            "probabilities": array(EDGE_VALUES),
            "nested": {"deeper": {"weights": array([v * 3.0 for v in EDGE_VALUES]), "flag": True}},
            "empty": array([]),
            "nothing": None,
            "no_keys": {},
            "total": 2e12,
        }
        return {
            "command": "synthetic",
            "inputs": {"options": 13, "series": array([0.5, -1e300, 7.0])},
            "result": result,
            "warnings": ['a note, with a comma and a "quote"'],
        }

    bulk = {k: cli._rounded(v) for k, v in envelope(lambda v: np.array(v, dtype=float)).items()}
    ref = {k: _ref_rounded(v) for k, v in envelope(list).items()}
    assert cli._render(bulk, fmt) == _ref_render(ref, fmt)
