import argparse
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from lieq.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text_and_json_agree(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == 0
    assert "positive roots (3)" in out
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2", "--json")
    data = json.loads(out)
    assert data["weyl_order"] == 6
    assert len(data["positive_roots"]) == 3
    assert data["rho"] == [1, 1]


@pytest.mark.parametrize(
    "type_label,rank,name", [("A", 3, "A3"), ("G2", 2, "G2"), ("F4", 4, "F4")]
)
def test_roots_header_names_the_system(capsys, type_label, rank, name):
    code, out, _ = run_cli(capsys, "roots", "--type", type_label, "--rank", str(rank))
    assert code == 0
    assert out.splitlines()[0] == f"root system {name}"


def test_roots_prints_weyl_order_above_the_weyl_cap(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "6")
    assert code == 0
    assert "|W| = 5040" in out.splitlines()


def test_qanalog_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "qanalog", "--type", "G2", "--rank", "2",
        "--mu", "0,1", "--lambda", "0,0", "--parabolic", "2",
    )
    assert code == 0
    assert out.strip() == "q"


def test_qanalog_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "qanalog", "--type", "A", "--rank", "3",
        "--mu", "0,1,2", "--lambda", "0,0,0", "--parabolic", "2", "--json",
    )
    data = json.loads(out)
    assert data["m"] == {"3": 1}


@pytest.mark.parametrize("value", ["", " "])
def test_empty_parabolic_is_the_borel_default(capsys, value):
    argv = ["qanalog", "--type", "A", "--rank", "2", "--mu", "1,1", "--lambda", "0,0", "--json"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--parabolic", value)
    assert code == 0
    assert json.loads(out) == json.loads(default)
    assert json.loads(out)["parabolic"] == []


def test_root_coordinate_input(capsys):
    code, out, _ = run_cli(
        capsys,
        "qanalog", "--type", "A", "--rank", "3", "--root-coords",
        "--mu", "1,2,2", "--lambda", "0,0,0", "--parabolic", "2",
    )
    assert code == 0
    assert out.strip() == "q^3"


def test_cht_command(capsys):
    code, out, _ = run_cli(capsys, "cht", "--type", "A", "--rank", "1", "--weight", "2")
    assert code == 0
    assert "cht        = 0" in out
    code, out, _ = run_cli(
        capsys, "cht", "--type", "A", "--rank", "2", "--weight=-1,-1", "--json"
    )
    data = json.loads(out)
    assert data["cht"] == 1
    assert data["star"] == [0, 0]
    assert data["cht_zero_fast"] is False


def test_orbit_command(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--type", "A", "--rank", "3", "--partition", "2,1,1"
    )
    assert code == 0
    assert "even       = False" in out
    code, out, _ = run_cli(
        capsys, "orbit", "--type", "A", "--rank", "3", "--partition", "3,1", "--json"
    )
    data = json.loads(out)
    assert data["labels"] == [2, 0, 2]
    assert data["parabolic"] == [2]
    assert data["even"] is True
    assert data["centralizer_dimension"] == data["levi_dimension"] == 5


def test_orbit_builtin(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--type", "G2", "--rank", "2", "--orbit", "subregular", "--json"
    )
    data = json.loads(out)
    assert data["even"] is True
    assert data["centralizer_dimension"] == 4


def test_bk_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "bk", "--type", "A", "--rank", "3",
        "--mu", "0,1,2", "--lambda", "0,0,0", "--partition", "3,1", "--json",
    )
    data = json.loads(out)
    assert data["r"] == {"3": 1}
    assert data["dims"] == [0, 0, 0, 1]
    assert data["module_dimension"] == 45
    code, out, _ = run_cli(
        capsys,
        "bk", "--type", "A", "--rank", "1",
        "--mu", "2", "--lambda", "0", "--orbit", "principal",
    )
    assert "r = q" in out


def test_verify_command(tmp_path, capsys):
    config = tmp_path / "instances.json"
    config.write_text(
        json.dumps(
            [
                {
                    "type": "A", "rank": 3, "partition": [3, 1],
                    "mu": [0, 1, 2], "lambda": [0, 0, 0],
                },
                {
                    "type": "G2", "rank": 2, "orbit": "subregular",
                    "mu": [0, 1], "lambda": [0, 0],
                },
                {
                    "type": "A", "rank": 2, "partition": [3],
                    "mu": [1, 1], "lambda": [0, 0],
                },
            ]
        )
    )
    code, out, _ = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    assert out.count("OK") == 3
    assert [line.split()[1] for line in out.splitlines()] == ["A3", "G2", "A2"]
    code, out, _ = run_cli(capsys, "verify", "--config", str(config), "--json")
    data = json.loads(out)
    assert [r["equal"] for r in data] == [True, True, True]
    assert data[0]["r"] == data[0]["m"] == {"3": 1}
    assert data[1]["r"] == {"1": 1}


def test_text_and_json_encode_identical_reports(tmp_path, capsys):
    config = tmp_path / "one.json"
    config.write_text(
        json.dumps(
            [{"type": "A", "rank": 2, "partition": [3], "mu": [1, 1], "lambda": [0, 0]}]
        )
    )
    _, text_out, _ = run_cli(capsys, "verify", "--config", str(config))
    _, json_out, _ = run_cli(capsys, "verify", "--config", str(config), "--json")
    record = json.loads(json_out)[0]
    assert f"cert={record['certificate']}" in text_out
    poly_text = text_out.split("r=")[1].split(" m=")[0].strip()
    from lieq.qpoly import QPolynomial

    assert QPolynomial({int(k): v for k, v in record["r"].items()}).__str__() == poly_text


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"rank": 2, "partition": [3], "mu": [1, 1], "lambda": [0, 0]}, "missing key 'type'"),
        ({"type": "A", "partition": [3], "mu": [1, 1], "lambda": [0, 0]}, "missing key 'rank'"),
        ({"type": "A", "rank": 2, "partition": [3], "lambda": [0, 0]}, "missing key 'mu'"),
        ({"type": "A", "rank": 2, "partition": [3], "mu": [1, 1]}, "missing key 'lambda'"),
        ({"type": "A", "rank": 2, "mu": [1, 1], "lambda": [0, 0]}, "needs 'partition' or 'orbit'"),
        ([1, 2], "must be a JSON object"),
        ({"type": "A", "rank": 2, "partition": [3], "mu": 5, "lambda": [0, 0]},
         "'mu' must be a list of integers"),
        ({"type": "A", "rank": 2, "orbit": 3, "mu": [1, 1], "lambda": [0, 0]},
         "'orbit' must be a string"),
        ({"type": "A", "rank": 2, "partition": "31", "mu": [1, 1], "lambda": [0, 0]},
         "'partition' must be a list of integers"),
        ({"type": "A", "rank": 2, "partition": [3], "mu": [1, 1, 1], "lambda": [0, 0]},
         "'mu' has length 3, not rank 2"),
        ({"type": "A", "rank": 2, "partition": [3], "mu": [1, 1], "lambda": [0]},
         "'lambda' has length 1, not rank 2"),
        ({"type": "A", "rank": 2, "partition": [2, 2], "mu": [1, 1], "lambda": [0, 0]},
         "partition of 4 does not match A2"),
        ({"type": "B", "rank": 2, "partition": [3], "mu": [1, 1], "lambda": [0, 0]},
         "partition orbits are a type A construction, not B"),
        ({"type": "G2", "rank": 3, "orbit": "subregular", "mu": [1, 1], "lambda": [0, 0]},
         "G2 has rank 2, not 3"),
        ({"type": "A", "rank": 2, "orbit": "bogus", "mu": [1, 1], "lambda": [0, 0]},
         "unknown orbit 'bogus' for A2"),
        ({"type": "A", "rank": 2, "partition": [2, 1], "mu": [1, 1], "lambda": [0, 0]},
         "orbit [2,1] is not even; no filtration theorem"),
        ({"type": "G2", "rank": 2, "orbit": "regular", "mu": [1, 1], "lambda": [0, 0]},
         "unknown orbit 'regular' for G2"),
        ({"type": "A", "rank": 3, "partition": [4], "mu": [-1, 0, 1], "lambda": [0, 0, 0]},
         "highest weight (-1, 0, 1) is not dominant"),
        ({"type": "A", "rank": 3, "partition": [4], "mu": [9, 9, 9], "lambda": [0, 0, 0]},
         "dim V(9, 9, 9) = 1000000 exceeds the module cap 500"),
        ({"type": "A", "rank": 2, "partition": [3], "orbit": "principal", "mu": [1, 1],
          "lambda": [0, 0]},
         "gives both 'partition' and 'orbit'"),
    ],
)
def test_verify_rejects_malformed_entry(tmp_path, capsys, monkeypatch, entry, message):
    # every entry is checked before the first one runs
    ran = []
    monkeypatch.setattr("lieq.cli.verify_theorem", lambda *args, **kwargs: ran.append(args))
    good = {"type": "A", "rank": 2, "partition": [3], "mu": [1, 1], "lambda": [0, 0]}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps([good, entry]))
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert code != 0
    assert out == ""
    assert err.splitlines() == [f"error: verify entry 1: {message}"]
    assert ran == []


def test_verify_runs_entries_above_the_weyl_cap(tmp_path, capsys, monkeypatch):
    # the Weyl cap gates only weyl_group(), which verify never calls
    monkeypatch.setenv("LIEQ_WEYL_CAP", "100")
    entry = {"type": "A", "rank": 4, "partition": [5], "mu": [1, 0, 0, 0],
             "lambda": [1, 0, 0, 0]}
    config = tmp_path / "a4.json"
    config.write_text(json.dumps([entry]))
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0, err
    assert out.startswith("OK  A4 orbit=[5] mu=[1, 0, 0, 0]")


def _readme_block(text, fence, after):
    """The text of the first ```fence block after the first `after`."""
    start = text.index(f"```{fence}\n", text.index(after)) + len(fence) + 4
    return text[start:text.index("```", start)]


def test_readme_command_line_examples_run(tmp_path, capsys, monkeypatch):
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [
        line for line in _readme_block(readme, "sh", "## Command line").splitlines()
        if line.startswith("lieq ")
    ]
    assert commands and commands[-1] == "lieq verify --config instances.json"
    (tmp_path / "instances.json").write_text(_readme_block(readme, "json", "A valid config"))
    monkeypatch.chdir(tmp_path)
    for command in commands:
        code, _, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, f"{command}: {err}"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["orbit", "--type", "A", "--rank", "3", "--partition", "3,2"],
         "partition of 5 does not match A3"),
        (["orbit", "--type", "B", "--rank", "2", "--partition", "3"],
         "partition orbits are a type A construction, not B"),
        (["bk", "--type", "A", "--rank", "3", "--mu", "1,0,0", "--lambda", "0,0,0",
          "--partition", "3,2"],
         "partition of 5 does not match A3"),
        (["bk", "--type", "B", "--rank", "2", "--mu", "1,0", "--lambda", "0,0",
          "--partition", "3"],
         "partition orbits are a type A construction, not B"),
        (["orbit", "--type", "A", "--rank", "2", "--partition", ""],
         "partition parts must be positive"),
        (["bk", "--type", "A", "--rank", "2", "--mu", "1,1", "--lambda", "0,0",
          "--partition", ""],
         "partition parts must be positive"),
    ],
)
def test_partition_must_fit_the_system(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command,arg", [("qanalog", "--mu"), ("partition", "--gamma")])
@pytest.mark.parametrize("node", ["5", "0", "-1"])
def test_parabolic_nodes_are_named_as_typed(capsys, command, arg, node):
    code, out, err = run_cli(
        capsys, command, "--type", "A", "--rank", "3", arg, "1,0,1",
        *(["--lambda", "0,0,0"] if command == "qanalog" else []),
        f"--parabolic=2,{node}",
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: parabolic node {node} is not in 1..3"]


@pytest.mark.parametrize(
    "argv,flag,text",
    [
        (["bk", "--mu", "a,b", "--lambda", "0,0", "--orbit", "principal"], "mu", "a,b"),
        (["bk", "--mu", "1,1", "--lambda", "0,x", "--orbit", "principal"], "lambda", "0,x"),
        (["cht", "--weight", "1;2"], "weight", "1;2"),
        (["partition", "--gamma", "1,1", "--parabolic", "1.5"], "parabolic", "1.5"),
        (["partition", "--gamma", "1,,q"], "gamma", "1,,q"),
        (["orbit", "--partition", "2+1"], "partition", "2+1"),
        (["qanalog", "--mu", "1,,1", "--lambda", "0,0"], "mu", "1,,1"),
        (["qanalog", "--mu", "1,1", "--lambda", "0,0", "--parabolic", "1,1,"],
         "parabolic", "1,1,"),
        (["cht", "--weight", ",1"], "weight", ",1"),
    ],
)
def test_unreadable_integers_name_the_flag_and_text(capsys, argv, flag, text):
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--type", "A", "--rank", "2", *rest)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: --{flag} {text!r} is not a comma-separated list of integers"
    ]


@pytest.mark.parametrize(
    "type_label,rank,message",
    [("G2", 3, "G2 has rank 2, not 3"), ("F4", 5, "F4 has rank 4, not 5"),
     ("B", 1, "type B needs rank at least 2, not 1")],
)
def test_wrong_rank_names_the_type_and_rank(capsys, type_label, rank, message):
    mu = ",".join(["1"] * rank)
    code, out, err = run_cli(
        capsys, "bk", "--type", type_label, "--rank", str(rank),
        "--mu", mu, "--lambda", mu, "--orbit", "principal",
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bk", "--type", "A", "--rank", "2", "--mu", "1,1", "--lambda", "0,0"])
    assert exc.value.code == 2
    assert "one of the arguments --partition --orbit is required" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "roots", "--type", "G2", "--rank", "3")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--partition", "2,2", "--orbit", "principal"],
        ["bk", "--mu", "1,0,0", "--lambda", "1,0,0", "--partition", "4", "--orbit", "principal"],
    ],
    ids=["orbit", "bk"],
)
def test_conflicting_orbit_flags_are_a_usage_error(capsys, argv):
    # one orbit per run: argparse refuses a second orbit flag rather than
    # letting one of them win silently
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "A", "--rank", "3", *rest])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --orbit: not allowed with argument --partition" in captured.err


def test_subcommand_options_are_pinned():
    # a new flag must show up here as a deliberate change
    system = {"-h", "--help", "--type", "--rank", "--json"}
    weights = system | {"--root-coords"}
    expected = {
        "roots": system,
        "qanalog": weights | {"--mu", "--lambda", "--parabolic"},
        "partition": weights | {"--gamma", "--parabolic"},
        "cht": weights | {"--weight"},
        "orbit": system | {"--partition", "--orbit", "--seed"},
        "bk": weights | {"--mu", "--lambda", "--partition", "--orbit", "--seed"},
        "verify": {"-h", "--help", "--config", "--json", "--seed"},
    }
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert options == expected


@pytest.mark.parametrize(
    "argv",
    [["roots"], ["orbit", "--partition", "3,1"]],
    ids=["roots", "orbit"],
)
def test_root_coords_is_a_usage_error_where_no_weight_is_read(capsys, argv):
    # --root-coords only changes how a weight is read, so a subcommand
    # that reads none refuses it rather than ignoring it
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "A", "--rank", "3", *rest, "--root-coords"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --root-coords" in captured.err


def test_oversized_partition_table_is_refused_in_one_line(capsys):
    # the table was allocated from the box alone and ended in MemoryError
    code, out, err = run_cli(
        capsys, "partition", "--type", "A", "--rank", "2", "--gamma", "99999999,0"
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: a partition table of 2222222277777778 cells exceeds the limit of 25000"
    ]


def test_unknown_orbit_name(capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--type", "G2", "--rank", "2", "--orbit", "nope"
    )
    assert code == 1
    assert "unknown orbit 'nope' for G2" in err


@pytest.mark.parametrize("name,value", [("LIEQ_RANK_CAP", "abc"), ("LIEQ_MODULE_CAP", "0")])
def test_bad_cap_variable_is_one_error_line(name, value):
    # a fresh interpreter, so that importing lieq runs under the variable
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **{name: value})
    proc = subprocess.run(
        [sys.executable, "-m", "lieq", "roots", "--type", "A", "--rank", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {name}={value!r} is not a positive integer"
    ]


def test_non_dominant_qanalog_warns_in_one_line():
    # a fresh interpreter, so that Python's own warning filters apply
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "lieq", "qanalog", "--type", "A", "--rank", "2",
         "--mu=-1,0", "--lambda", "0,0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n"
    assert proc.stderr.splitlines() == [
        "warning: q-analog requested for a non-dominant highest weight"
    ]
