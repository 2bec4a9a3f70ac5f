"""Golden CLI reports: the exit code and the sha256 of stdout of every
subcommand, in text and `--json` mode, against `cli_golden.json`.

An argv word `@name` stands for the file INPUTS[name], written to a
temporary directory; a name missing from INPUTS stands for a file that does
not exist.  Reports never name their input paths, so the digests do not
depend on where the files live.

The fixture records the CLI's behaviour and is not rewritten to make a
change pass.  After a deliberate change of the reports, regenerate it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from gmspace.cli import dispatch

FIXTURE = Path(__file__).with_name("cli_golden.json")

CHAIN1 = {"elements": [0, 1], "leq": [[0, 1]],
          "oplus": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
          "involution": [[0, 0], [1, 1]], "zero": 0}
FOUR = ["0", "p", "m", "t"]
INVOLUTIVE_FOUR = {
    "elements": FOUR,
    "leq": [["0", "p"], ["0", "m"], ["0", "t"], ["p", "t"], ["m", "t"]],
    "oplus": [[a, b, b if a == "0" else a if b == "0" else "t"]
              for a in FOUR for b in FOUR],
    "involution": [["0", "0"], ["p", "m"], ["m", "p"], ["t", "t"]],
    "zero": "0"}
Z6 = {"carrier": [0, 1, 2, 3, 4, 5],
      "relations": [[[0, 2, 4], [1, 3, 5]], [[0, 3], [1, 4], [2, 5]]]}
M3 = [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]
# the two coordinate kernels on the pairs over {0, 1}
PAIRS2 = {"carrier": [[0, 0], [0, 1], [1, 0], [1, 1]],
          "relations": [[[[0, 0], [0, 1]], [[1, 0], [1, 1]]],
                        [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]]}
AFFINE = [[[x, y], [1 + 3 * x, 2 + 3 * y]]
          for x in range(-2, 3) for y in range(-2, 3)]

INPUTS = {
    "chain2": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
    "cycle3": {"vertices": ["a", "b", "c"],
               "edges": [["a", "b"], ["b", "c"], ["c", "a"]]},
    "apart": {"vertices": ["a", "b"], "edges": []},
    "space2": {"points": ["x", "y"], "monoid": CHAIN1, "dist": [[0, 1], [1, 0]]},
    "point": {"points": ["p"], "monoid": CHAIN1, "dist": [[0]]},
    "swap": {"points": ["x", "y"], "monoid": INVOLUTIVE_FOUR,
             "dist": [["0", "t"], ["t", "0"]]},
    "unseparated": {"points": ["x", "y"], "monoid": CHAIN1,
                    "dist": [[0, 0], [0, 0]]},
    "short_row": {"points": ["x", "y"], "monoid": CHAIN1, "dist": [[0, 1], [1]]},
    "z6": Z6,
    "m3": M3,
    "crt": {**Z6, "constraints": [[1, 0], [2, 1]]},
    "crt_bad": {**Z6, "constraints": [[0, 0], [1, 0]]},
    "extend": {**Z6, "map": [[0, 0], [1, 1]], "z": 5},
    "extend_bad": {**Z6, "map": [[0, 0], [2, 1]], "z": 5},
    "crt_pairs": {**PAIRS2, "constraints": [[[0, 1], 0], [[1, 0], 1]]},
    "extend_pairs": {**PAIRS2, "map": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
                     "z": [1, 0]},
    "pairs": [[0, 1], [3, 7]],
    "pairs_bad": [[0, 0], [1, 2], [2, 1]],
    "affine": {"dimension": 2, "window": [[-2, 2], [-2, 2]], "values": AFFINE},
    "swapped": {"dimension": 2, "window": [[-2, 2], [-2, 2]],
                "values": [[p, [v[1], v[0]]] for p, v in AFFINE]},
    "discrete3": {"carrier": [0, 1, 2], "relations": [[[0], [1], [2]]]},
    "pairs3": {"carrier": [0, 1, 2],
               "relations": [[[0, 1], [2]], [[0, 2], [1]], [[1, 2], [0]]]},
    "letters": [[["a", "b"], ["c", "d"], ["e", "f"]],
                [["a", "c"], ["b", "d", "e", "f"]]],
    "triangle": [[0, 0], [1, 0], [0, 1]],
    "square": [[0, 0], [1, 0], [0, 1], [1, 1]],
    "product": ["+-"],
    "letter": ["+"],
    "empty": [],
}
RAW = {"not_json": "{not json"}

ARGVS = [
    ["zigzag", "dist", "@cycle3"],
    ["zigzag", "dist", "@apart"],
    ["zigzag", "dist", "@cycle3", "--from", "a", "--to", "c"],
    ["zigzag", "dist", "@cycle3", "--from", "a"],
    ["zigzag", "dist", "@cycle3", "--from", "zz", "--to", "a"],
    ["zigzag", "embeddable", "@chain2"],
    ["zigzag", "embeddable", "@cycle3"],
    ["zigzag", "fence", "@chain2", "--from", "a", "--to", "b"],
    ["zigzag", "fence", "@apart", "--from", "a", "--to", "b"],
    ["zigzag", "fence", "@chain2"],
    ["gms", "check", "@space2"],
    ["gms", "check", "@unseparated"],
    ["gms", "check", "@short_row"],
    ["gms", "hyperconvex", "@space2"],
    ["gms", "hyperconvex", "@swap"],
    ["gms", "hyperconvex", "@unseparated"],
    ["gms", "fpp", "@point"],
    ["gms", "fpp", "@space2"],
    ["gms", "fpp", "@unseparated"],
    ["eqv", "arithmetical", "@z6"],
    ["eqv", "arithmetical", "@m3"],
    ["eqv", "crt", "@crt"],
    ["eqv", "crt", "@crt_bad"],
    ["eqv", "crt", "@z6"],
    ["eqv", "extend", "@extend"],
    ["eqv", "extend", "@extend_bad"],
    ["eqv", "arithmetical", "@crt_pairs"],
    ["eqv", "crt", "@crt_pairs"],
    ["eqv", "extend", "@extend_pairs"],
    ["eqv", "orthogonal", "4"],
    ["eqv", "orthogonal", "4", "--block-size", "2"],
    ["eqv", "orthogonal", "0"],
    ["eqv", "orthogonal", "9"],
    ["zcong", "check", "x^2/2 - x/2"],
    ["zcong", "check", "x^2 - x"],
    ["zcong", "check", "y + 1"],
    ["zcong", "gen", "4"],
    ["zcong", "extend", "@pairs", "1"],
    ["zcong", "extend", "@pairs_bad", "5"],
    ["zcong", "affine", "@affine"],
    ["zcong", "affine", "@swapped"],
    ["semirigid", "check", "@discrete3"],
    ["semirigid", "check", "@pairs3"],
    ["semirigid", "check", "@letters"],
    ["semirigid", "zadori", "6"],
    ["semirigid", "zadori", "6", "--check"],
    ["semirigid", "zadori", "4"],
    ["semirigid", "plane", "@triangle"],
    ["semirigid", "plane", "@triangle", "--monogenic"],
    ["semirigid", "plane", "@triangle", "--symmetry"],
    ["semirigid", "plane", "@triangle", "--check"],
    ["semirigid", "plane", "@triangle", "--monogenic", "--symmetry", "--check"],
    ["semirigid", "plane", "@square", "--monogenic", "--symmetry", "--check"],
    ["freemon", "factor", "@product"],
    ["freemon", "factor", "@letter"],
    ["freemon", "factor", "@empty"],
    ["freemon", "irreducible", "@product"],
    ["freemon", "irreducible", "@letter"],
    ["zigzag", "dist", "@missing"],
    ["zigzag", "dist", "@not_json"],
    ["nonsense"],
    ["zigzag"],
    ["--seed", "1", "zigzag", "dist", "@chain2"],
    [],
]
MODES = [[], ["--json"]]


def reports(directory: Path) -> dict:
    """Run every argv in both modes; key -> [exit code, stdout sha256]."""
    for name, payload in INPUTS.items():
        (directory / f"{name}.json").write_text(json.dumps(payload))
    for name, text in RAW.items():
        (directory / f"{name}.json").write_text(text)
    out = {}
    for mode in MODES:
        for argv in ARGVS:
            words = [str(directory / f"{w[1:]}.json") if w.startswith("@") else w
                     for w in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = dispatch(mode + words)
            out[" ".join(mode + argv)] = [
                code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]
    return out


def test_reports_match_golden_fixture(tmp_path):
    golden = json.loads(FIXTURE.read_text())
    assert {code for code, _ in golden.values()} == {0, 1, 2, 3}
    got = reports(tmp_path)
    assert set(got) == set(golden)
    assert {k: v for k, v in got.items() if v != golden[k]} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f" {json.dumps(k)}: {json.dumps(v)}"
                 for k, v in reports(Path(tmp)).items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
