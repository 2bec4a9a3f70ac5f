import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gmspace
from gmspace import _orders, automata, cli, partitions, zcong
from gmspace.cli import InputError, dispatch, parse_poly
from gmspace.spaces import FiniteGms
from gmspace.zcong import IntPoly


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


CHAIN2 = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
CYCLE3 = {"vertices": ["a", "b", "c"],
          "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}


def test_poly_parser():
    assert parse_poly("x^2/2 - x/2") == IntPoly.of([0, 0, 1])
    assert parse_poly("C(x,2)") == IntPoly.of([0, 0, 1])
    assert parse_poly("3x^2 + 1") == IntPoly.from_standard([1, 0, 3])
    assert parse_poly("2*C(x,3) - C(x,1)") == IntPoly.of([0, -1, 0, 2])
    assert parse_poly("-7") == IntPoly.of([-7])
    assert parse_poly("x") == IntPoly.of([0, 1])
    with pytest.raises(InputError):
        parse_poly("x/3")
    with pytest.raises(InputError):
        parse_poly("y + 1")


def test_zigzag_dist(tmp_path, capsys):
    path = write(tmp_path, "g.json", CHAIN2)
    code, out = run(capsys, "zigzag", "dist", path)
    assert code == 0 and '["+"]' in out
    code, out = run(capsys, "zigzag", "dist", path, "--from", "a", "--to", "b")
    assert code == 0 and '["+"]' in out
    for src, dst in (("zz", "b"), ("a", "zz")):
        code, out = run(capsys, "zigzag", "dist", path, "--from", src, "--to", dst)
        assert code == 2 and out == ""


def test_zigzag_embeddable(tmp_path, capsys):
    good = write(tmp_path, "g.json", CHAIN2)
    assert run(capsys, "zigzag", "embeddable", good)[0] == 0
    bad = write(tmp_path, "c3.json", CYCLE3)
    code, out = run(capsys, "zigzag", "embeddable", bad)
    assert code == 1 and "witness" in out


def test_zigzag_fence(tmp_path, capsys):
    path = write(tmp_path, "g.json", CHAIN2)
    code, out = run(capsys, "zigzag", "fence", path, "--from", "a", "--to", "b")
    assert code == 0
    assert "up_fence: 1" in out and "down_fence: 2" in out


def test_zcong_check_exit_codes(capsys):
    code, out = run(capsys, "zcong", "check", "x^2/2 - x/2")
    assert code == 1
    assert '"k": 2' in out and '"x": 0' in out
    code, _ = run(capsys, "zcong", "check", "x^2 - x")
    assert code == 0
    assert run(capsys, "zcong", "gen", "4")[0] == 0


def test_zcong_extend_and_affine(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [[0, 1], [3, 7]])
    code, out = run(capsys, "zcong", "extend", pairs, "1")
    assert code == 0 and "value: 1" in out
    values = [[[x, y], [1 + 3 * x, 2 + 3 * y]]
              for x in range(-2, 3) for y in range(-2, 3)]
    grid = write(tmp_path, "grid.json",
                 {"dimension": 2, "window": [[-2, 2], [-2, 2]],
                  "values": values})
    code, out = run(capsys, "zcong", "affine", grid)
    assert code == 0 and "multiplier: 3" in out


CHAIN1 = {"elements": [0, 1], "leq": [[0, 1]],
          "oplus": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
          "involution": [[0, 0], [1, 1]], "zero": 0}
SPACE2 = {"points": ["x", "y"], "monoid": CHAIN1, "dist": [[0, 1], [1, 0]]}


def test_gms_commands(tmp_path, capsys):
    path = write(tmp_path, "space.json", SPACE2)
    assert run(capsys, "gms", "check", path)[0] == 0
    code, out = run(capsys, "gms", "hyperconvex", path)
    assert code == 0
    code, out = run(capsys, "gms", "fpp", path)
    assert code == 1 and "witness" in out  # the swap has no fixed point


def test_gms_hyperconvex_checks_each_property_once(tmp_path, capsys,
                                                  monkeypatch):
    calls = Counter()
    for name in ("is_convex", "is_2helly", "is_hyperconvex", "check_axioms"):
        def counted(self, _method=getattr(FiniteGms, name), _name=name):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(FiniteGms, name, counted)
    code, out = run(capsys, "--json", "gms", "hyperconvex",
                    write(tmp_path, "space.json", SPACE2))
    assert code == 0 and json.loads(out)["result"] == \
        {"hyperconvex": True, "convex": True, "two_helly": True}
    # the axioms are checked once per space, not once per property
    assert calls == {"is_convex": 1, "is_2helly": 1, "check_axioms": 1}


def test_one_preservation_error_class():
    assert partitions.PreservationViolated is zcong.PreservationViolated \
        is _orders.PreservationViolated


def test_gms_rejects_malformed_spaces(tmp_path, capsys):
    repeated = {"points": ["a", "a", "b"], "monoid": CHAIN1,
                "dist": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]}
    short_row = {"points": ["x", "y"], "monoid": CHAIN1, "dist": [[0, 1], [1]]}
    short_table = {"points": ["x", "y"], "monoid": CHAIN1, "dist": [[0, 1]]}
    long_table = {"points": ["x", "y"], "monoid": CHAIN1,
                  "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
    for name, space in (("repeated", repeated), ("short_row", short_row),
                        ("short_table", short_table), ("long", long_table)):
        path = write(tmp_path, f"{name}.json", space)
        for cmd in ("check", "fpp"):
            code, out = run(capsys, "gms", cmd, path)
            assert code == 2 and out == "", (name, cmd)


def test_commands_build_no_automaton(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("an automaton was built")

    monkeypatch.setattr(automata.Automaton, "__post_init__", refuse)
    chain = write(tmp_path, "g.json", CHAIN2)
    cycle = write(tmp_path, "c3.json", CYCLE3)
    product = write(tmp_path, "ac.json", ["+-"])
    space = write(tmp_path, "space.json", SPACE2)
    for argv, expect in (
            (("zigzag", "dist", cycle), 0),
            (("zigzag", "dist", cycle, "--from", "a", "--to", "c"), 0),
            (("zigzag", "embeddable", chain), 0),
            (("zigzag", "embeddable", cycle), 1),
            (("zigzag", "fence", chain, "--from", "a", "--to", "b"), 0),
            (("freemon", "factor", product), 0),
            (("freemon", "irreducible", product), 1),
            (("gms", "check", space), 0)):
        assert run(capsys, "--json", *argv)[0] == expect, argv


def test_eqv_commands(tmp_path, capsys):
    system = {"carrier": [0, 1, 2, 3, 4, 5],
              "relations": [[[0, 2, 4], [1, 3, 5]], [[0, 3], [1, 4], [2, 5]]]}
    path = write(tmp_path, "sys.json", system)
    assert run(capsys, "eqv", "arithmetical", path)[0] == 0
    crt = dict(system)
    crt["constraints"] = [[1, 0], [2, 1]]
    code, out = run(capsys, "eqv", "crt", write(tmp_path, "crt.json", crt))
    assert code == 0 and "solution: 5" in out
    bad = dict(system)
    bad["constraints"] = [[0, 0], [1, 0]]
    code, out = run(capsys, "eqv", "crt", write(tmp_path, "bad.json", bad))
    assert code == 1 and "witness_pair" in out
    ext = dict(system)
    ext.update({"map": [[0, 0], [1, 1]], "z": 5})
    code, out = run(capsys, "eqv", "extend", write(tmp_path, "ext.json", ext))
    assert code == 0 and "extension" in out
    code, out = run(capsys, "eqv", "orthogonal", "4")
    assert code == 0 and "size: 3" in out


def test_eqv_extend_rejects_points_outside_the_carrier(tmp_path, capsys):
    # the point named is the same wherever in the map it stands
    system = {"carrier": [0, 1, 2, 3, 4, 5],
              "relations": [[[0, 2, 4], [1, 3, 5]], [[0, 3], [1, 4], [2, 5]]]}
    for m, z in (([[1, "u"], [0, 0], [3, 1]], 5),
                 ([[0, 0], [3, 1], [1, "u"]], 5),
                 ([["u", 0], [0, 0]], 5),
                 ([[0, 0]], "u")):
        path = write(tmp_path, "ext.json", {**system, "map": m, "z": z})
        code = dispatch(["eqv", "extend", path])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err == (
            "error: point 'u' is not in the carrier\n"), (m, z, err)


def test_semirigid_commands(tmp_path, capsys):
    code, out = run(capsys, "semirigid", "zadori", "6", "--check")
    assert code == 0 and "semirigid: true" in out
    code, _ = run(capsys, "semirigid", "zadori", "4")
    assert code == 2
    system = {"carrier": [0, 1, 2], "relations": [[[0], [1], [2]]]}
    path = write(tmp_path, "sys.json", system)
    code, out = run(capsys, "semirigid", "check", path)
    assert code == 1 and "witness" in out
    pts = write(tmp_path, "pts.json", [[0, 0], [1, 0], [0, 1]])
    code, out = run(capsys, "semirigid", "plane", pts,
                    "--monogenic", "--symmetry", "--check")
    assert code == 0
    assert "monogenic: true" in out and "semirigid: true" in out
    assert "has_center_of_symmetry: false" in out


def test_semirigid_witness_does_not_depend_on_hash_seed(tmp_path):
    # a carrier of strings, whose hashes are salted per process
    letters = [[["a", "b"], ["c", "d"], ["e", "f"]], [["a", "c"], ["b", "d", "e", "f"]]]
    path = write(tmp_path, "letters.json", letters)
    src = str(Path(gmspace.__file__).parent.parent)
    reports = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", "from gmspace.cli import main; main()",
             "--json", "semirigid", "check", path],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1


def cli_module(*argv, seed="0"):
    """Run `python -m gmspace.cli` on argv under a fixed hash seed."""
    src = str(Path(gmspace.__file__).parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "gmspace.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)


def test_cli_module_runs_as_a_script():
    proc = cli_module("--json", "zcong", "gen", "4")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "zcong gen"
    assert report["result"] == {"binomial_coefficients": [0, 0, 0, 0, 12],
                                "lcm": 12}


def test_order_error_names_the_first_violating_pair(tmp_path):
    # a <= b <= a and c <= d <= c: the pairs are walked in the order given,
    # whatever the hash seed
    elems = ["a", "b", "c", "d", "e"]
    space = {"points": ["a"], "dist": [["a"]],
             "monoid": {"elements": elems, "zero": "e", "oplus": [],
                        "leq": [["a", "b"], ["b", "a"], ["c", "d"], ["d", "c"]],
                        "involution": [[x, x] for x in elems]}}
    path = write(tmp_path, "space.json", space)
    for seed in ("0", "1", "2", "3"):
        proc = cli_module("gms", "check", path, seed=seed)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "error: order is not antisymmetric at ('a', 'b')\n"), seed


def test_zcong_guards_admit_their_bounds(capsys):
    n, degree = cli.ZCONG_MAX_N, cli.ZCONG_MAX_DEGREE
    code, out = run(capsys, "--json", "zcong", "gen", str(n))
    assert code == 0
    assert json.loads(out)["result"]["lcm"] == zcong.lcm_upto(n)
    assert run(capsys, "zcong", "check", f"x^{degree}")[0] == 0
    code, out = run(capsys, "--json", "zcong", "check", f"C(x,{degree})")
    assert code == 1 and json.loads(out)["result"]["witness"] == {"k": 2, "x": 48}


def test_freemon_commands(tmp_path, capsys):
    path = write(tmp_path, "ac.json", ["+-"])
    code, out = run(capsys, "freemon", "factor", path)
    assert code == 0 and '[["+"], ["-"]]' in out
    code, _ = run(capsys, "freemon", "irreducible", path)
    assert code == 1
    single = write(tmp_path, "s.json", ["+"])
    assert run(capsys, "freemon", "irreducible", single)[0] == 0
    empty = write(tmp_path, "e.json", [])
    assert run(capsys, "freemon", "factor", empty)[0] == 2


def test_input_errors(tmp_path, capsys):
    assert run(capsys, "zigzag", "dist", "/nonexistent.json")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "zigzag", "dist", str(bad))[0] == 2
    assert dispatch(["nonsense"]) == 2
    good = write(tmp_path, "g.json", CHAIN2)
    assert dispatch(["--json", "zigzag", "dist", good]) == 0
    assert dispatch(["--seed", "1", "--json", "zigzag", "dist", good]) == 2


SYSTEM3 = {"carrier": [0, 1, 2], "relations": [[[0, 1], [2]], [[0], [1, 2]]]}

# (argv, JSON file or None): every one is an input error, exit 2
MALFORMED = [
    (("zigzag", "dist"), []),
    (("zigzag", "dist"), {"vertices": 5, "edges": []}),
    (("zigzag", "embeddable"), {"vertices": ["a"], "edges": [["a"]]}),
    (("zigzag", "fence", "--from", "a", "--to", "b"), {"vertices": ["a", "b"]}),
    (("gms", "check"), {**SPACE2, "dist": [[0, 1]]}),
    (("gms", "hyperconvex"), {**SPACE2, "monoid": []}),
    (("gms", "fpp"), {**SPACE2, "dist": [[0, 1], [1, 7]]}),
    (("eqv", "arithmetical"), {"carrier": [0, 1], "relations": 5}),
    (("eqv", "crt"), {**SYSTEM3, "constraints": [[0, 0], [1, 2]]}),
    (("eqv", "crt"), {**SYSTEM3, "constraints": [[0, 0], [1, -1]]}),
    (("eqv", "crt"), {**SYSTEM3, "constraints": [[0, "0"]]}),
    (("eqv", "crt"), {**SYSTEM3, "relations": [], "constraints": [[0, 0]]}),
    (("eqv", "crt"), {**SYSTEM3, "constraints": 3}),
    (("eqv", "extend"), {**SYSTEM3, "map": [[0]], "z": 2}),
    (("zcong", "extend", "1"), [[0]]),
    (("zcong", "affine"), {"dimension": 1, "window": [[0, 1]], "values": []}),
    (("semirigid", "check"), {"carrier": [0, 1], "relations": [[[0, 1], [1]]]}),
    (("semirigid", "plane"), [["1/0", 0]]),
    (("semirigid", "plane"), [[0, "2/0"]]),
    (("semirigid", "plane"), [[0, 0, 0]]),
    (("freemon", "factor"), [5]),
    (("freemon", "factor"), "+-"),
    (("freemon", "irreducible"), {"+": 1}),
    (("freemon", "irreducible"), ["+x", None]),
    (("zcong", "check", "1/0"), None),
    (("zcong", "check", "x/0"), None),
    (("zcong", "check", "x^2/0 + 1"), None),
]


@pytest.mark.parametrize("argv, payload", MALFORMED,
                         ids=[" ".join(a) + f" #{i}"
                              for i, (a, _) in enumerate(MALFORMED)])
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, argv,
                                                   payload):
    if payload is not None:
        path = write(tmp_path, "in.json", payload)
        argv = argv[:2] + (path,) + argv[2:]
    code = dispatch(["--json", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == "", (argv, out, err)
    assert err.startswith("error: ") and "Traceback" not in err, err


NINE = [f"p{i}" for i in range(9)]
# (argv, JSON file or None): well formed, but past a search's size guard
GUARDED = [
    (("eqv", "orthogonal", "9"), None),
    (("gms", "fpp"), {**SPACE2, "points": NINE,
                      "dist": [[int(a != b) for b in NINE] for a in NINE]}),
    (("semirigid", "check"), {"carrier": list(range(13)),
                              "relations": [[[i] for i in range(13)]]}),
    (("zcong", "gen", "5001"), None),
    (("zcong", "gen", "10000"), None),
    (("zcong", "check", "C(x,51)"), None),
    (("zcong", "check", "x^3000 - x"), None),
]


@pytest.mark.parametrize("argv, payload", GUARDED,
                         ids=[" ".join(a) for a, _ in GUARDED])
def test_size_guard_exits_3_without_traceback(tmp_path, capsys, argv,
                                              payload):
    if payload is not None:
        argv = argv + (write(tmp_path, "in.json", payload),)
    code = dispatch(["--json", *argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == "", (argv, out, err)
    assert err.startswith("error: ") and "guard" in err, err


def test_reports_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "g.json", CYCLE3)
    outs = set()
    for _ in range(3):
        code, out = run(capsys, "--json", "zigzag", "dist", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    report = json.loads(outs.pop())
    assert set(report) == {"command", "input_digest", "result"}


def test_json_round_trip_through_cli(tmp_path, capsys):
    path = write(tmp_path, "g.json", CHAIN2)
    _, out = run(capsys, "--json", "zigzag", "dist", path)
    matrix = json.loads(out)["result"]["matrix"]
    # re-serialize and re-parse: identity
    assert json.loads(json.dumps(matrix)) == matrix
    assert matrix["matrix"][0][1] == ["+"]
