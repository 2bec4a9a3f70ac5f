"""Unified command-line front end.

Exit codes: 0 when the computation succeeds or the checked property holds,
1 when a checked property fails (a witness is printed), 2 on input errors.
Reports are deterministic for identical inputs; timing goes to stderr only.
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
from .partitions import (CrtResult, EquivSystem, PreservationViolated,
                         crt_solve, is_arithmetical, kaarli_extend,
                         orthogonal_family_search, sublattice_closure)
from .segments import FinalSegment
from .spaces import space_from_json
from .words import PLUS_MINUS
from .zcong import Affine, GridMap, IntPoly


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


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
        coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coef = -coef
        if m.group(6):
            coef /= int(m.group(6))
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
    std = [Fraction(0)] * (max(power, default=0) + 1)
    for k, c in power.items():
        std[k] = c
    if binom:
        extra = IntPoly.of([binom.get(k, 0) for k in range(max(binom) + 1)])
        for k, c in enumerate(extra.to_standard()):
            while len(std) <= k:
                std.append(Fraction(0))
            std[k] += c
    try:
        return IntPoly.from_standard(std)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _json_digest(payload) -> str:
    return _digest([json.dumps(payload, sort_keys=True)])


def _emit(args, payload: dict, exit_code: int) -> int:
    report = {"command": f"{args.cmd} {getattr(args, args.cmd + '_cmd')}",
              "input_digest": payload.pop("_digest"),
              "result": payload}
    if args.json:
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for key in sorted(payload):
            print(f"{key}: {json.dumps(payload[key], default=str, sort_keys=True)}")
    return exit_code


def _system_from_json(payload) -> EquivSystem:
    if isinstance(payload, dict):
        carrier = [tuple(x) if isinstance(x, list) else x
                   for x in payload["carrier"]]
        rels = payload["relations"]
    else:
        rels = payload
        carrier = sorted({x for rel in rels for block in rel for x in block})
    conv = lambda b: [tuple(x) if isinstance(x, list) else x for x in b]
    return EquivSystem.of(carrier, [[conv(b) for b in rel] for rel in rels])


# --- subcommand handlers ---------------------------------------------------------


def _cmd_zigzag(args) -> int:
    payload = _load_json(args.graph)
    g = zigzag.ReflexiveDigraph.from_json(payload)
    base = {"_digest": _json_digest(payload)}
    if args.zigzag_cmd == "dist":
        if (args.src is None) != (args.dst is None):
            raise InputError("--from and --to must be given together")
        if args.src is not None:
            d = zigzag.zigzag_distance(g, args.src, args.dst)
            base["distance"] = d.to_json()
        else:
            base["matrix"] = zigzag.distance_matrix(g).to_json()
        return _emit(args, base, 0)
    if args.zigzag_cmd == "embeddable":
        ok, witness = zigzag.oriented_embeddable(g)
        base["embeddable"] = ok
        if not ok:
            x, y, (u, v) = witness
            base["witness"] = {"pair": [x, y], "u": str(u), "v": str(v)}
        return _emit(args, base, 0 if ok else 1)
    if args.zigzag_cmd == "fence":
        if args.src is None or args.dst is None:
            raise InputError("fence needs --from and --to")
        up, down = zigzag.fence_distance(g, args.src, args.dst)
        base["up_fence"] = up if up is not None else "infinite"
        base["down_fence"] = down if down is not None else "infinite"
        return _emit(args, base, 0)
    raise InputError(f"unknown zigzag subcommand {args.zigzag_cmd!r}")


def _cmd_gms(args) -> int:
    payload = _load_json(args.space)
    space = space_from_json(payload)
    base = {"_digest": _json_digest(payload)}
    if args.gms_cmd == "check":
        bad = space.check_axioms()
        base["axioms_hold"] = not bad
        if bad:
            base["violations"] = [list(map(str, b)) for b in bad]
        return _emit(args, base, 0 if not bad else 1)
    if args.gms_cmd == "hyperconvex":
        ok = space.is_hyperconvex()
        base["hyperconvex"] = ok
        base["convex"] = space.is_convex()
        base["two_helly"] = space.is_2helly()
        return _emit(args, base, 0 if ok else 1)
    if args.gms_cmd == "fpp":
        ok, witness = space.fpp_check()
        base["fixed_point_property"] = ok
        if witness:
            base["witness"] = {str(k): str(v) for k, v in witness.items()}
        return _emit(args, base, 0 if ok else 1)
    raise InputError(f"unknown gms subcommand {args.gms_cmd!r}")


def _cmd_eqv(args) -> int:
    if args.eqv_cmd == "orthogonal":
        fam = orthogonal_family_search(args.n, block_size=args.block_size)
        base = {"_digest": _digest([str(args.n), str(args.block_size)]),
                "size": len(fam), "family": [p.to_json() for p in fam]}
        return _emit(args, base, 0)
    payload = _load_json(args.input)
    base = {"_digest": _json_digest(payload)}
    if args.eqv_cmd == "arithmetical":
        system = _system_from_json(payload)
        lattice = sublattice_closure(system.relations)
        ok = is_arithmetical(lattice)
        base["closure_size"] = len(lattice)
        base["arithmetical"] = ok
        return _emit(args, base, 0 if ok else 1)
    if args.eqv_cmd == "crt":
        system = _system_from_json(payload)
        lattice = list(sublattice_closure(system.relations))
        constraints = []
        for a, i in payload["constraints"]:
            constraints.append((a, system.relations[i]))
        for _, theta in constraints:
            if theta not in lattice:
                lattice.append(theta)
        res: CrtResult = crt_solve(lattice, constraints)
        base["status"] = res.status
        if res.status == "ok":
            base["solution"] = res.solution
        elif res.witness_pair:
            base["witness_pair"] = list(res.witness_pair)
        return _emit(args, base, 0 if res else 1)
    if args.eqv_cmd == "extend":
        system = _system_from_json(payload)
        lattice = sublattice_closure(system.relations)
        f = {k: v for k, v in (tuple(p) for p in payload["map"])}
        try:
            g = kaarli_extend(list(lattice), f, payload["z"])
        except PreservationViolated as exc:
            base["status"] = "preservation_violated"
            base["detail"] = str(exc)
            return _emit(args, base, 1)
        base["status"] = "ok"
        base["extension"] = sorted([k, v] for k, v in g.items())
        return _emit(args, base, 0)
    raise InputError(f"unknown eqv subcommand {args.eqv_cmd!r}")


def _cmd_zcong(args) -> int:
    if args.zcong_cmd == "check":
        poly = parse_poly(args.poly)
        ok, witness = zcong.is_congruence_preserving(poly)
        base = {"_digest": _digest([args.poly]), "congruence_preserving": ok,
                "binomial_coefficients": list(poly.coeffs)}
        if witness:
            base["witness"] = {"x": witness[0], "k": witness[1]}
        return _emit(args, base, 0 if ok else 1)
    if args.zcong_cmd == "gen":
        poly = zcong.cgg_generator(args.n)
        base = {"_digest": _digest([str(args.n)]),
                "binomial_coefficients": list(poly.coeffs),
                "lcm": zcong.lcm_upto(args.n)}
        return _emit(args, base, 0)
    if args.zcong_cmd == "extend":
        payload = _load_json(args.pairs)
        f = {int(a): int(v) for a, v in payload}
        base = {"_digest": _digest([json.dumps(payload, sort_keys=True),
                                    str(args.z)])}
        try:
            value = zcong.extend_congruence_map(f, args.z)
        except zcong.PreservationViolated as exc:
            base["status"] = "preservation_violated"
            base["detail"] = str(exc)
            return _emit(args, base, 1)
        base["status"] = "ok"
        base["value"] = value
        return _emit(args, base, 0)
    if args.zcong_cmd == "affine":
        payload = _load_json(args.grid)
        grid = GridMap.of(payload["dimension"],
                          [tuple(w) for w in payload["window"]],
                          {tuple(p): tuple(v) for p, v in payload["values"]})
        base = {"_digest": _json_digest(payload)}
        result = zcong.zn_affine_check(grid)
        if isinstance(result, Affine):
            base["affine"] = True
            base["offset"] = list(result.offset)
            base["multiplier"] = result.multiplier
            return _emit(args, base, 0)
        base["affine"] = False
        base["reason"] = result.reason
        base["witness"] = [list(p) for p in result.witness]
        return _emit(args, base, 1)
    raise InputError(f"unknown zcong subcommand {args.zcong_cmd!r}")


def _cmd_semirigid(args) -> int:
    if args.semirigid_cmd == "zadori":
        system = semirigid.zadori_system(args.n)
        base = {"_digest": _digest([str(args.n)]), "system": system.to_json()}
        if args.check:
            ok, witness = semirigid.is_semirigid(system)
            base["semirigid"] = ok
            if witness:
                base["witness"] = {str(k): str(v) for k, v in witness.items()}
            return _emit(args, base, 0 if ok else 1)
        return _emit(args, base, 0)
    if args.semirigid_cmd == "check":
        payload = _load_json(args.system)
        system = _system_from_json(payload)
        base = {"_digest": _json_digest(payload)}
        ok, witness = semirigid.is_semirigid(system)
        base["semirigid"] = ok
        if witness:
            base["witness"] = {str(k): str(v) for k, v in witness.items()}
        return _emit(args, base, 0 if ok else 1)
    if args.semirigid_cmd == "plane":
        payload = _load_json(args.points)
        pts = semirigid.parse_points(payload)
        system = semirigid.plane_system(pts)
        base = {"_digest": _json_digest(payload),
                "points": semirigid.points_to_json(pts),
                "relations": [[["|".join(map(str, p)) for p in b] for b in r.blocks]
                              for r in system.relations]}
        code = 0
        if args.monogenic:
            mono, seed = semirigid.is_monogenic(pts)
            base["monogenic"] = mono
            if seed is not None:
                base["seed"] = semirigid.points_to_json(seed)
        if args.symmetry:
            sym, center = semirigid.has_center_of_symmetry(pts)
            base["has_center_of_symmetry"] = sym
            if center:
                base["center"] = [str(center[0]), str(center[1])]
        if args.check:
            ok, witness = semirigid.is_semirigid(system)
            base["semirigid"] = ok
            if witness:
                base["witness"] = {"|".join(map(str, k)): "|".join(map(str, v))
                                   for k, v in witness.items()}
            code = 0 if ok else 1
        return _emit(args, base, code)
    raise InputError(f"unknown semirigid subcommand {args.semirigid_cmd!r}")


def _cmd_freemon(args) -> int:
    payload = _load_json(args.antichain)
    seg = FinalSegment.from_json(payload, PLUS_MINUS)
    base = {"_digest": _json_digest(payload), "segment": seg.to_json()}
    if args.freemon_cmd == "factor":
        if seg.is_empty_set():
            raise InputError("the empty segment has no factorization")
        factors = factorization.factorize(seg)
        base["factors"] = [f.to_json() for f in factors]
        return _emit(args, base, 0)
    if args.freemon_cmd == "irreducible":
        ok = factorization.is_irreducible(seg)
        base["irreducible"] = ok
        return _emit(args, base, 0 if ok else 1)
    raise InputError(f"unknown freemon subcommand {args.freemon_cmd!r}")


# --- parser ----------------------------------------------------------------------


_GRAPH = [("graph", {"help": "graph JSON file"})]
_ENDS = [("--from", {"dest": "src", "default": None}),
         ("--to", {"dest": "dst", "default": None})]
_N = [("n", {"type": int})]
_CHECK = ("--check", {"action": "store_true"})

# command -> (help, handler, {subcommand: [(argument, add_argument options)]})
COMMANDS = {
    "zigzag": ("zigzag distances on reflexive digraphs", _cmd_zigzag, {
        "dist": _GRAPH + _ENDS, "embeddable": _GRAPH, "fence": _GRAPH + _ENDS}),
    "gms": ("finite generalized metric spaces", _cmd_gms, dict.fromkeys(
        ("check", "hyperconvex", "fpp"), [("space", {"help": "space JSON file"})])),
    "eqv": ("equivalence lattices", _cmd_eqv, {
        **dict.fromkeys(("arithmetical", "crt", "extend"),
                        [("input", {"help": "JSON input file"})]),
        "orthogonal": _N + [("--block-size", {"type": int, "default": None})]}),
    "zcong": ("congruence-preserving maps on Z", _cmd_zcong, {
        "check": [("poly", {"help": "polynomial, e.g. 'x^2/2 - x/2' or 'C(x,2)'"})],
        "gen": _N,
        "extend": [("pairs", {"help": "JSON list of [point, value] pairs"}),
                   ("z", {"type": int})],
        "affine": [("grid", {"help": "grid map JSON file"})]}),
    "semirigid": ("semirigid equivalence systems", _cmd_semirigid, {
        "check": [("system", {"help": "system JSON file"})],
        "zadori": _N + [_CHECK],
        "plane": [("points", {"help": "plane point set JSON file"}),
                  ("--monogenic", {"action": "store_true"}),
                  ("--symmetry", {"action": "store_true"}), _CHECK]}),
    "freemon": ("free-monoid factorization", _cmd_freemon, dict.fromkeys(
        ("factor", "irreducible"),
        [("antichain", {"help": "JSON list of generator strings"})])),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gmspace",
        description="Exact computations on generalized metric spaces over "
                    "involutive quantales")
    top.add_argument("--json", action="store_true", help="machine-readable report")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, (help_text, handler, subcommands) in COMMANDS.items():
        subs = sub.add_parser(name, help=help_text).add_subparsers(
            dest=f"{name}_cmd", required=True)
        for sub_name, arguments in subcommands.items():
            p = subs.add_parser(sub_name)
            for argument, options in arguments:
                p.add_argument(argument, **options)
            p.set_defaults(handler=handler)
    return top


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        code = args.handler(args)
    except (ValueError, KeyError, TypeError) as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
