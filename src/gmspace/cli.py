"""Unified command-line front end.

Exit codes: 0 when the computation succeeds or the checked property holds,
1 when a checked property fails (a witness is printed), 2 on input errors,
3 when an input is well formed but a search would pass its size guard
(``SizeGuard``).
Reports are deterministic for identical inputs; timing goes to stderr only.

Each subcommand has one handler in COMMANDS.  It gets the parsed arguments,
every JSON file already loaded, and returns (result, exit code).  With
--json, `dispatch` prints {"command", "input_digest", "result"}; otherwise
it prints the result's keys, one per line.  The input digest is the sha256
of the subcommand's inputs in table order, each followed by a NUL byte: a
JSON file contributes json.dumps(payload, sort_keys=True), any other value
its str.  --from, --to, --check, --monogenic and --symmetry only choose what
is reported, so they are not inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import factorization, semirigid, zcong, zigzag
from ._orders import PreservationViolated
from .partitions import (EquivSystem, crt_solve, is_arithmetical,
                         kaarli_extend, orthogonal_family_search,
                         sublattice_closure)
from .segments import FinalSegment
from .spaces import SizeGuard, space_from_json
from .words import PLUS_MINUS
from .zcong import Affine, GridMap, IntPoly


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


# zcong size guards (exit 3): lcm(1..n) has about 0.43n digits, below the
# 4,300 that Python prints; a check up to degree 50 takes under a second
ZCONG_MAX_N = 5000
ZCONG_MAX_DEGREE = 50

_TERM = re.compile(
    r"^([+-]?)\s*(\d+(?:/\d+)?)?\s*\*?\s*"
    r"(?:(x)(?:\^(\d+))?|C\(\s*x\s*,\s*(\d+)\s*\))?"
    r"(?:/(\d+))?$")


def parse_poly(text: str) -> IntPoly:
    """Parse standard or binomial-coefficient polynomial notation, e.g.
    'x^2/2 - x/2', '3x^2 + 1', '2*C(x,3) - C(x,1)'."""
    src = text.replace("**", "^").replace("-", "+-")
    power: dict[int, Fraction] = {}
    binom: dict[int, int] = {}
    for raw in src.split("+"):
        term = raw.strip()
        if not term:
            continue
        m = _TERM.match(term)
        if not m or (m.group(2) is None and m.group(3) is None
                     and m.group(5) is None):
            raise InputError(f"cannot parse term {raw.strip()!r} in {text!r}")
        try:
            coef = Fraction(m.group(2) or 1) / int(m.group(6) or 1)
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {raw.strip()!r}") from None
        if m.group(1) == "-":
            coef = -coef
        if m.group(5) is not None:  # C(x, k)
            if coef.denominator != 1:
                raise InputError("binomial terms need integer coefficients")
            k = int(m.group(5))
            binom[k] = binom.get(k, 0) + int(coef)
        elif m.group(3):  # x^k
            k = int(m.group(4) or 1)
            power[k] = power.get(k, Fraction(0)) + coef
        else:  # constant
            power[0] = power.get(0, Fraction(0)) + coef
    degree = max([*power, *binom, 0])
    if degree > ZCONG_MAX_DEGREE:
        raise SizeGuard(f"degree {degree} exceeds the guard {ZCONG_MAX_DEGREE}")
    std = [Fraction(0)] * (max(power, default=0) + 1)
    for k, c in power.items():
        std[k] = c
    extra = IntPoly.of([binom.get(k, 0)
                        for k in range(max(binom, default=-1) + 1)])
    try:
        # the binomial part is integer-valued, so the sum is exactly when
        # the power part is
        return IntPoly.from_standard(std) + extra
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _point(x):
    """A carrier point from JSON: a list (say, a pair) becomes a tuple."""
    return tuple(x) if isinstance(x, list) else x


def _system_from_json(payload) -> EquivSystem:
    if isinstance(payload, dict):
        carrier = [_point(x) for x in payload["carrier"]]
        rels = payload["relations"]
    else:
        rels = payload
        carrier = sorted({_point(x) for rel in rels for block in rel for x in block})
    return EquivSystem.of(carrier, [[[_point(x) for x in b] for b in rel]
                                    for rel in rels])


def _verdict(key: str, found: tuple, render, **result) -> tuple[dict, int]:
    """Add to `result` whether a checked property holds, under `key`, and
    its rendered witness, if any; exit code 1 when the property fails."""
    ok, witness = found
    result[key] = ok
    if witness:
        result["witness"] = render(witness)
    return result, 0 if ok else 1


def _str_map(witness: dict) -> dict:
    return {str(k): str(v) for k, v in witness.items()}


def _label(point) -> str:
    return "|".join(map(str, point))


# --- subcommand handlers ---------------------------------------------------------


def _zigzag_dist(args):
    g = zigzag.ReflexiveDigraph.from_json(args.graph)
    if (args.src is None) != (args.dst is None):
        raise InputError("--from and --to must be given together")
    if args.src is None:
        return {"matrix": zigzag.distance_matrix(g).to_json()}, 0
    return {"distance": zigzag.zigzag_distance(g, args.src, args.dst).to_json()}, 0


def _zigzag_embeddable(args):
    g = zigzag.ReflexiveDigraph.from_json(args.graph)
    return _verdict("embeddable", zigzag.oriented_embeddable(g),
                    lambda w: {"pair": [w[0], w[1]], "u": str(w[2][0]),
                               "v": str(w[2][1])})


def _zigzag_fence(args):
    g = zigzag.ReflexiveDigraph.from_json(args.graph)
    if args.src is None or args.dst is None:
        raise InputError("fence needs --from and --to")
    up, down = zigzag.fence_distance(g, args.src, args.dst)
    return {"up_fence": up if up is not None else "infinite",
            "down_fence": down if down is not None else "infinite"}, 0


def _gms_check(args):
    bad = space_from_json(args.space).check_axioms()
    result = {"axioms_hold": not bad}
    if bad:
        result["violations"] = [list(map(str, b)) for b in bad]
    return result, 0 if not bad else 1


def _gms_hyperconvex(args):
    space = space_from_json(args.space)
    convex, two_helly = space.is_convex(), space.is_2helly()
    ok = convex and two_helly  # what ``is_hyperconvex`` decides
    return {"hyperconvex": ok, "convex": convex,
            "two_helly": two_helly}, 0 if ok else 1


def _gms_fpp(args):
    return _verdict("fixed_point_property",
                    space_from_json(args.space).fpp_check(), _str_map)


def _eqv_arithmetical(args):
    lattice = sublattice_closure(_system_from_json(args.input).relations)
    ok = is_arithmetical(lattice)
    return {"closure_size": len(lattice), "arithmetical": ok}, 0 if ok else 1


def _eqv_crt(args):
    rels = _system_from_json(args.input).relations
    pairs = args.input["constraints"]
    bad = [i for _, i in pairs if type(i) is not int or not 0 <= i < len(rels)]
    if bad:
        raise InputError(f"no relation {bad[0]!r} among the {len(rels)} given")
    res = crt_solve(sublattice_closure(rels),
                    [(_point(a), rels[i]) for a, i in pairs])
    result = {"status": res.status}
    if res.status == "ok":
        result["solution"] = res.solution
    elif res.witness_pair:
        result["witness_pair"] = list(res.witness_pair)
    return result, 0 if res else 1


def _eqv_extend(args):
    system = _system_from_json(args.input)
    f = {_point(k): _point(v) for k, v in args.input["map"]}
    z = _point(args.input["z"])
    outside = [x for x in (*f, *f.values(), z) if x not in system.carrier]
    if outside:
        raise InputError(f"point {outside[0]!r} is not in the carrier")
    try:
        g = kaarli_extend(list(sublattice_closure(system.relations)), f, z)
    except PreservationViolated as exc:
        return {"status": "preservation_violated", "detail": str(exc)}, 1
    return {"status": "ok", "extension": sorted([k, v] for k, v in g.items())}, 0


def _eqv_orthogonal(args):
    fam = orthogonal_family_search(args.n, block_size=args.block_size)
    return {"size": len(fam), "family": [p.to_json() for p in fam]}, 0


def _zcong_check(args):
    poly = parse_poly(args.poly)
    return _verdict("congruence_preserving", zcong.is_congruence_preserving(poly),
                    lambda w: {"x": w[0], "k": w[1]},
                    binomial_coefficients=list(poly.coeffs))


def _zcong_gen(args):
    if args.n > ZCONG_MAX_N:
        raise SizeGuard(f"n = {args.n} exceeds the guard {ZCONG_MAX_N}")
    return {"binomial_coefficients": list(zcong.cgg_generator(args.n).coeffs),
            "lcm": zcong.lcm_upto(args.n)}, 0


def _zcong_extend(args):
    f = {int(a): int(v) for a, v in args.pairs}
    try:
        value = zcong.extend_congruence_map(f, args.z)
    except PreservationViolated as exc:
        return {"status": "preservation_violated", "detail": str(exc)}, 1
    return {"status": "ok", "value": value}, 0


def _zcong_affine(args):
    grid = GridMap.of(args.grid["dimension"],
                      [tuple(w) for w in args.grid["window"]],
                      {tuple(p): tuple(v) for p, v in args.grid["values"]})
    result = zcong.zn_affine_check(grid)
    if isinstance(result, Affine):
        return {"affine": True, "offset": list(result.offset),
                "multiplier": result.multiplier}, 0
    return {"affine": False, "reason": result.reason,
            "witness": [list(p) for p in result.witness]}, 1


def _semirigid_check(args):
    system = _system_from_json(args.system)
    return _verdict("semirigid", semirigid.is_semirigid(system), _str_map)


def _semirigid_zadori(args):
    system = semirigid.zadori_system(args.n)
    result = {"system": system.to_json()}
    if not args.check:
        return result, 0
    return _verdict("semirigid", semirigid.is_semirigid(system), _str_map, **result)


def _semirigid_plane(args):
    pts = semirigid.parse_points(args.points)
    system = semirigid.plane_system(pts)
    result = {"points": semirigid.points_to_json(pts),
              "relations": [[list(map(_label, b)) for b in r.blocks]
                            for r in system.relations]}
    if args.monogenic:
        result["monogenic"], seed = semirigid.is_monogenic(pts)
        if seed is not None:
            result["seed"] = semirigid.points_to_json(seed)
    if args.symmetry:
        result["has_center_of_symmetry"], center = \
            semirigid.has_center_of_symmetry(pts)
        if center:
            result["center"] = [str(center[0]), str(center[1])]
    if not args.check:
        return result, 0
    return _verdict("semirigid", semirigid.is_semirigid(system),
                    lambda w: {_label(k): _label(v) for k, v in w.items()}, **result)


def _freemon_factor(args):
    seg = FinalSegment.from_json(args.antichain, PLUS_MINUS)
    if seg.is_empty_set():
        raise InputError("the empty segment has no factorization")
    return {"segment": seg.to_json(),
            "factors": [f.to_json() for f in factorization.factorize(seg)]}, 0


def _freemon_irreducible(args):
    seg = FinalSegment.from_json(args.antichain, PLUS_MINUS)
    ok = factorization.is_irreducible(seg)
    return {"segment": seg.to_json(), "irreducible": ok}, 0 if ok else 1


# --- parser ----------------------------------------------------------------------

# An argument is (name, add_argument options, role); an optional input names
# its dest.  A JSON file (_FILE) or a plain value (_VALUE) is an input of the
# digest; a _CHOICE only chooses what is reported.
_FILE, _VALUE, _CHOICE = "file", "value", "choice"
_GRAPH = [("graph", {"help": "graph JSON file"}, _FILE)]
_ENDS = [("--from", {"dest": "src", "default": None}, _CHOICE),
         ("--to", {"dest": "dst", "default": None}, _CHOICE)]
_SPACE = [("space", {"help": "space JSON file"}, _FILE)]
_EQV_INPUT = [("input", {"help": "JSON input file"}, _FILE)]
_ANTICHAIN = [("antichain", {"help": "JSON list of generator strings"}, _FILE)]
_N = [("n", {"type": int}, _VALUE)]
_CHECK = ("--check", {"action": "store_true"}, _CHOICE)

# command -> (help, {subcommand: (handler, arguments)})
COMMANDS = {
    "zigzag": ("zigzag distances on reflexive digraphs", {
        "dist": (_zigzag_dist, _GRAPH + _ENDS),
        "embeddable": (_zigzag_embeddable, _GRAPH),
        "fence": (_zigzag_fence, _GRAPH + _ENDS)}),
    "gms": ("finite generalized metric spaces", {
        "check": (_gms_check, _SPACE),
        "hyperconvex": (_gms_hyperconvex, _SPACE),
        "fpp": (_gms_fpp, _SPACE)}),
    "eqv": ("equivalence lattices", {
        "arithmetical": (_eqv_arithmetical, _EQV_INPUT),
        "crt": (_eqv_crt, _EQV_INPUT),
        "extend": (_eqv_extend, _EQV_INPUT),
        "orthogonal": (_eqv_orthogonal, _N + [
            ("--block-size", {"dest": "block_size", "type": int, "default": None},
             _VALUE)])}),
    "zcong": ("congruence-preserving maps on Z", {
        "check": (_zcong_check, [
            ("poly", {"help": "polynomial, e.g. 'x^2/2 - x/2' or 'C(x,2)'"}, _VALUE)]),
        "gen": (_zcong_gen, _N),
        "extend": (_zcong_extend, [
            ("pairs", {"help": "JSON list of [point, value] pairs"}, _FILE),
            ("z", {"type": int}, _VALUE)]),
        "affine": (_zcong_affine, [("grid", {"help": "grid map JSON file"}, _FILE)])}),
    "semirigid": ("semirigid equivalence systems", {
        "check": (_semirigid_check, [("system", {"help": "system JSON file"}, _FILE)]),
        "zadori": (_semirigid_zadori, _N + [_CHECK]),
        "plane": (_semirigid_plane, [
            ("points", {"help": "plane point set JSON file"}, _FILE),
            ("--monogenic", {"action": "store_true"}, _CHOICE),
            ("--symmetry", {"action": "store_true"}, _CHOICE), _CHECK])}),
    "freemon": ("free-monoid factorization", {
        "factor": (_freemon_factor, _ANTICHAIN),
        "irreducible": (_freemon_irreducible, _ANTICHAIN)}),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gmspace",
        description="Exact computations on generalized metric spaces over "
                    "involutive quantales")
    top.add_argument("--json", action="store_true", help="machine-readable report")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, (help_text, subcommands) in COMMANDS.items():
        subs = sub.add_parser(name, help=help_text).add_subparsers(
            dest=f"{name}_cmd", required=True)
        for sub_name, (_, arguments) in subcommands.items():
            p = subs.add_parser(sub_name)
            for argument, options, _ in arguments:
                p.add_argument(argument, **options)
    return top


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = getattr(args, f"{args.cmd}_cmd")
    handler, arguments = COMMANDS[args.cmd][1][command]
    start = time.monotonic()
    digest = hashlib.sha256()
    try:
        for name, options, role in arguments:
            if role == _CHOICE:
                continue
            dest = options.get("dest", name)
            value = getattr(args, dest)
            if role == _FILE:
                value = _load_json(value)
                setattr(args, dest, value)
                value = json.dumps(value, sort_keys=True)
            digest.update(f"{value}\0".encode())
        result, code = handler(args)
        if args.json:
            print(json.dumps({"command": f"{args.cmd} {command}",
                              "input_digest": digest.hexdigest(),
                              "result": result}, sort_keys=True, default=str))
        else:
            for key in sorted(result):
                print(f"{key}: {json.dumps(result[key], default=str, sort_keys=True)}")
    except SizeGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError) as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
