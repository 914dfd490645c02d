"""What each entry point loads: the array functions import numpy themselves,
so the scalar subcommands never load it, and the package loads a submodule
only when one of its names is first used, so each subcommand loads the
modules it runs and no others. Every check runs in a fresh interpreter,
since the test process has loaded numpy and every submodule long before."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def fresh_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, cwd=cwd)


def imported(importtime_stderr: str, *packages: str) -> list[str]:
    """The modules of ``packages`` named in ``python -X importtime`` output."""
    return [
        name
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
        for name in [line.rsplit("|", 1)[-1].strip()]
        if name.split(".")[0] in packages
    ]


TABLES_JSON = [
    {
        "name": "duel",
        "players": 2,
        "table": {"a": 8, "b": 2, "c": -2, "d": -4},
        "target": {"p": 0.5, "mu": 1.0, "p_tol": 0.01, "mu_tol": 0.05},
    },
    {
        "name": "trio",
        "players": 3,
        "table": {"f": 10, "g": 8, "h": 7, "j": 5, "k": 4, "m": 2},
        "target": {"p": 0.3333333333, "mu": 5.34, "p_tol": 0.01, "mu_tol": 0.05},
    },
]

# the cooprob modules a subcommand loads besides cooprob, cooprob.cli and
# cooprob.errors
TWO_PLAYER = ("tables", "estimators")
N_PLAYER = (*TWO_PLAYER, "nplayer")

SCALAR_COMMANDS = [
    (("classify", "--table", "9,8,5,2"), ("tables",)),
    *[(("estimate", "--table", "9,8,5,2", "--method", m), TWO_PLAYER) for m in ("balanced", "maximin", "payoff-max")],
    (("estimate", "--table", "9,8,5,2", "--method", "oracle"), (*TWO_PLAYER, "iteration")),
    (("estimate3", "--table", "10,8,7,5,4,2"), N_PLAYER),
    (("estimate3", "--table", "39,38,28,27,26,1"), N_PLAYER),  # two attracting roots: the oracle runs
    (("asym", "--table", "10,7,5,1,9,8,5,2"), N_PLAYER),
    (("equiprob", "--table", "9,8,5,2"), TWO_PLAYER),
    (("equiprob", "--table", "10,8,7,5,4,2"), N_PLAYER),
    *[
        (("app", "diner", "--r", r, "--s", s, "--u", u, "--w", "1", "--n", n), (*N_PLAYER, "applications"))
        for r, s, u, n in (("4", "3.5", "1.5", "2"), ("5", "3.5", "1.5", "3"), ("4", "3", "2", "4"), ("5", "3", "2", "6"))
    ],
    (("verify", "--file", "tables.json"), (*N_PLAYER, "balance")),
]

# the array subcommands run no n-player code, and write through the writer
ARRAY_MODULES = (*TWO_PLAYER, "applications", "_writer")
ARRAY_COMMANDS = [
    (("app", "public-goods", "--r", "100", "--k", "1.5", "--options", "4"), ARRAY_MODULES),
    (("app", "traveler", "--max", "100", "--min", "2", "--bonus", "2", "--steps", "98", "--mean"), ARRAY_MODULES),
    *[(("app", "attrition", "--x", "2", "--max-bid", "4", "--mode", m), ARRAY_MODULES) for m in ("paper", "dispatch")],
]


@pytest.mark.parametrize(
    "argv, loads_numpy, modules",
    [(argv, False, modules) for argv, modules in SCALAR_COMMANDS]
    + [(argv, True, modules) for argv, modules in ARRAY_COMMANDS],
    ids=[" ".join(argv) for argv, _ in SCALAR_COMMANDS + ARRAY_COMMANDS],
)
def test_only_the_array_subcommands_load_numpy(argv, loads_numpy, modules, tmp_path):
    (tmp_path / "tables.json").write_text(json.dumps(TABLES_JSON))
    proc = fresh_python("-X", "importtime", "-m", "cooprob", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == " ".join(argv[:2] if argv[0] == "app" else argv[:1])
    assert bool(imported(proc.stderr, "numpy")) is loads_numpy
    expected = {"cooprob", "cooprob.cli", "cooprob.errors", *(f"cooprob.{m}" for m in modules)}
    assert sorted(imported(proc.stderr, "cooprob")) == sorted(expected)


def test_importing_the_package_loads_neither_numpy_nor_json():
    # json is imported by the tables-file reader and the CLI, which need it;
    # the reader's module is imported by name, as the package loads none
    proc = fresh_python("-X", "importtime", "-c", "import cooprob, cooprob.balance")
    assert proc.returncode == 0, proc.stderr
    assert "cooprob.balance" in imported(proc.stderr, "cooprob")
    assert imported(proc.stderr, "numpy", "json") == []


def loaded_modules(statement: str) -> list[str]:
    """The cooprob modules in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    proc = fresh_python("-c", f"{statement}; import sys; print(sorted(m for m in sys.modules if m.startswith('cooprob')))")
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_importing_the_package_loads_none_of_its_submodules():
    assert loaded_modules("import cooprob") == ["cooprob"]


def test_importing_the_cli_loads_only_the_errors_module():
    assert loaded_modules("import cooprob.cli") == ["cooprob", "cooprob.cli", "cooprob.errors"]


def test_a_2x2_name_loads_only_tables_and_estimators():
    assert loaded_modules("import cooprob; cooprob.balanced_p") == [
        "cooprob", "cooprob.errors", "cooprob.estimators", "cooprob.tables",
    ]


# ------------------------------------------------------- package namespace


def test_every_public_name_is_the_owning_submodules_object():
    import cooprob

    assert len(cooprob.__all__) == len(set(cooprob.__all__)) == 71
    for module, names in cooprob._EXPORTS.items():
        owner = importlib.import_module(f"cooprob.{module}")
        for name in names:
            assert getattr(cooprob, name) is getattr(owner, name), name
            assert getattr(cooprob, name).__module__ == owner.__name__, name  # defined there, not re-exported


def test_each_submodules_all_is_its_row_of_the_export_table():
    import cooprob

    for module, names in cooprob._EXPORTS.items():
        assert importlib.import_module(f"cooprob.{module}").__all__ is names, module


def test_star_import_binds_every_public_name():
    proc = fresh_python("-c", "from cooprob import *; import cooprob; print(all(globals()[n] is getattr(cooprob, n) for n in cooprob.__all__))")
    assert (proc.returncode, proc.stdout.strip()) == (0, "True"), proc.stderr


def test_dir_lists_every_public_name_and_submodule():
    import cooprob

    assert set(cooprob.__all__) <= set(dir(cooprob))
    assert {"applications", "balance", "cli", "errors", "estimators", "iteration", "nplayer", "tables"} <= set(dir(cooprob))


def test_a_submodule_resolves_without_an_import():
    proc = fresh_python("-c", "import cooprob; print(cooprob.nplayer.__name__, cooprob.nplayer.balanced_pn is cooprob.balanced_pn)")
    assert (proc.returncode, proc.stdout.strip()) == (0, "cooprob.nplayer True"), proc.stderr


def test_an_unknown_name_raises_attribute_error_naming_it():
    import cooprob

    with pytest.raises(AttributeError, match="no attribute 'balanced_q'"):
        cooprob.balanced_q


# every function of the package that uses numpy, called with its arguments
ARRAY_CALLS = {
    "estimators._balance_root2_batch": "np.array([1.0, 2.0]), np.array([2.0, 5.0]), np.array([3.0, 1.0]), np.array([4.0, 3.0])",
    "estimators._balanced_p_batch": "[9.0, 10.0], [8.0, 7.0], 5.0, [2.0, 1.0]",
    "iteration._fixed_point_batch": (
        "iteration.weights3, tuple(np.array([v]) for v in (10.0, 8.0, 7.0, 5.0, 4.0, 2.0)), np.array([0.5])"
    ),
    "iteration.iterate2_limits": "tables.GameTag.STAG_HUNT, [8.0], [9.0], [5.0], [2.0], 1.0",
    "iteration.iterate3_limits": "[10.0], [8.0], [7.0], [5.0], [4.0], [2.0]",
    "nplayer._real_roots": "[1.0, -3.0, 2.0], 1e-9",
    "nplayer._power_form": "[1.0, 2.0, 4.0]",
    "applications._read_only_copy": "[0.25, 0.75]",
    "applications.public_goods_distribution": "applications.PublicGoodsSpec(r=100, k=1.5, options=4)",
    "applications._traveler_p_by_delta": "applications.TravelerSpec(4, 2, 2, 2), np.array([1.0, 2.0])",
    "applications.traveler_pij": "applications.TravelerSpec(4, 2, 2, 2), 2, 1",
    "applications.traveler_distribution": "applications.TravelerSpec(100, 2, 2, 98)",
    "applications._traveler_mean": (
        "applications.TravelerSpec(100, 2, 2, 98), applications.traveler_distribution(applications.TravelerSpec(100, 2, 2, 98))"
    ),
    "applications.attrition_distribution": "applications.AttritionSpec(8.001, 10), 'dispatch'",
    "applications._pairwise_distribution": "np.array([0.5, 0.25]), False",
    "applications._add_ones": "np.array([0.0, 0.5, 0.0, 0.0]), 1, np.arange(4.0)",
    "_writer._packed": "['0.', '-0.000', 'e+16']",
    "_writer._writer_tables": "",
    "_writer._decimals": "np.array([0.5, -1e-7, 0.0, 999999999999.5])",
    "_writer._repr_columns": "[0.5, -1e-7, 0.0, 999999999999.5]",
    "_writer._write_reprs": "np.array([0.5]), np.empty((1, 4), '<u8')",
    "_writer._rounded_array": "[0.5, -1e-7, 0.0, 1e-30]",
    "_writer._index_rows": "12",
    "_writer._block": "2, b'x', np.array([[49, 0], [50, 51]], np.uint8), b'\\n'",
}

PRELUDE = """if True:
    from cooprob import _writer, applications, estimators, iteration, nplayer, tables
    import numpy as np

    def plain(x):
        if isinstance(x, applications.OptionDistribution):
            return plain((x.probabilities, x.weights, x.total))
        if isinstance(x, (tuple, list)):
            return [plain(v) for v in x]
        return x.tolist() if hasattr(x, "tolist") else x
"""


def _functions_using_numpy() -> dict[str, bool]:
    """Each package function whose body names ``np``, and whether it
    imports numpy itself."""
    found = {}
    for path in sorted((ROOT / "src" / "cooprob").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == "np" for stmt in node.body for n in ast.walk(stmt)
            ):
                found[f"{path.stem}.{node.name}"] = any(
                    isinstance(stmt, ast.Import) and [(a.name, a.asname) for a in stmt.names] == [("numpy", "np")]
                    for stmt in node.body
                )
    return found


def test_every_function_that_uses_numpy_imports_it_and_is_called_below():
    assert _functions_using_numpy() == dict.fromkeys(ARRAY_CALLS, True)


@pytest.mark.parametrize("name", sorted(ARRAY_CALLS))
def test_an_array_function_called_first_imports_numpy_itself(name):
    call = f"plain({name}({ARRAY_CALLS[name]}))"
    proc = fresh_python("-c", PRELUDE + f"    print(repr({call}))\n")
    assert proc.returncode == 0, proc.stderr
    here: dict = {}
    exec(PRELUDE, here)
    assert proc.stdout.strip() == repr(eval(call, here))
