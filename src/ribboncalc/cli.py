"""Command-line front end: one binary, deterministic output, no arithmetic.

Each subcommand parses flags, calls the owning module, and formats what
comes back; every number is an exact Fraction rendered as ``p/q``.  Library
errors exit 2 with a one-line JSON object ``{"error": code, "message": ...}``
on stderr, malformed flags and unwritable output files exit 64, and
``ribboncalc --repro`` replays the golden-value registry from
:mod:`ribboncalc.checks` as a pass/fail table.

``--manifest FILE`` records a run manifest (command, parameters, library
version, sha256 of the output) next to any command; identical manifests
come from byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import NamedTuple

from . import __version__, checks, clusters, combclasses, degeneration, enumeration, plforms, stable
from .enumeration import Profile
from .errors import DomainMismatch, InconsistentProfile, RibbonError
from .ribbon import (
    MarkedMetricGraph,
    edge_id,
    graph_from_json,
    graph_to_json,
    parse_rational,
    rational_str,
)

EX_OK, EX_DOMAIN, EX_USAGE = 0, 2, 64


class UsageError(Exception):
    """Malformed flags or arguments; the shell sees exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class RunManifest(NamedTuple):
    command: str
    parameters: dict
    version: str
    digest: str

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "version": self.version,
            "digest": self.digest,
        }


def build_manifest(command: str, parameters: dict, output: str) -> RunManifest:
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    return RunManifest(command, parameters, __version__, digest)


# --- flag parsing helpers ---------------------------------------------------------


def _ints(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as err:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from err


def _labels(text):
    out = [x.strip() for x in text.split(",") if x.strip()]
    if not out:
        raise UsageError(f"expected at least one label in {text!r}")
    return out


def _rational(text):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"expected a rational p/q, got {text!r}") from err


def _vertex_marks(items):
    marks = {}
    for item in items or ():
        name, sep, valency = item.partition("=")
        if not sep or not name.strip():
            raise UsageError(f"expected LABEL=VALENCY, got {item!r}")
        try:
            marks[name.strip()] = int(valency)
        except ValueError as err:
            raise UsageError(f"bad valency in {item!r}") from err
    return marks


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"{path} is not valid JSON: {err}") from err
    return graph_from_json(data)


def _metric_graph(path):
    graph, marking, lengths = _load_graph(path)
    if marking is None:
        raise DomainMismatch("the graph file carries no marking")
    if lengths is None:
        raise DomainMismatch("the graph file carries no edge lengths")
    return MarkedMetricGraph(graph, marking, lengths)


# --- subcommands ------------------------------------------------------------------


def _cmd_enumerate(args):
    labels = _labels(args.labels)
    profile = Profile(_ints(args.profile))
    marks = _vertex_marks(args.vertex_mark)
    cells = enumeration.enumerate(
        args.genus, labels, profile, vertex_marks=marks or None, max_sides=args.max_sides
    )
    n_holes = sum(1 for label in labels if label not in marks)
    if not cells and not profile.consistent_with(args.genus, n_holes):
        # the library answers an empty list; on the command line that is a domain error
        total = 4 * args.genus - 4 + 2 * n_holes
        raise InconsistentProfile(
            f"profile weight {profile.weight()} is not 4g-4+2n = {total} "
            f"for (g, n) = ({args.genus}, {n_holes})"
        )
    lines = []
    for cell in cells:
        data = graph_to_json(cell.graph, cell.marking)
        data["aut"] = cell.aut
        lines.append(json.dumps(data, sort_keys=True))
    return "\n".join(lines)


def _cmd_euler(args):
    value = enumeration.orbifold_euler(args.genus, args.n, max_sides=args.max_sides)
    if args.json:
        payload = {"genus": args.genus, "n": args.n, "euler": rational_str(value)}
        return json.dumps(payload, sort_keys=True)
    return str(value)


def _cmd_fpoly(args):
    profile = Profile(_ints(args.profile))
    if (args.g is None) != (args.n is None):
        raise UsageError("--g and --n go together")
    if args.g is None:
        g, n = combclasses.ambient_surface(profile)
    else:
        g, n = args.g, args.n
    poly = combclasses.kappa_polynomial(profile, g, n)
    if args.json:
        payload = {
            "profile": list(profile.m),
            "g": g,
            "n": n,
            "polynomial": poly.to_json(),
        }
        return json.dumps(payload, sort_keys=True)
    return poly.text()


def _cmd_relation(args):
    orders = _ints(args.rho)
    rho = {f"q{i + 1}": r for i, r in enumerate(orders)}
    kept = _labels(args.keep) if args.keep else []
    for label in kept:
        if label not in rho:
            raise UsageError(f"--keep names {label!r}; labels are {sorted(rho)}")
    labels = _labels(args.labels)
    g = args.g if args.g is not None else combclasses.ambient_genus(rho, len(labels))
    rel = combclasses.merge_relation(g, labels, rho, kept=kept)
    if args.json:
        payload = {
            "g": g,
            "holes": labels,
            "rho": orders,
            "keep": sorted(kept),
            "lhs": rel.lhs.to_json(),
            "rhs": rel.rhs.to_json(),
        }
        return json.dumps(payload, sort_keys=True)
    return f"lhs = {rel.lhs.text()}\nrhs = {rel.rhs.text()}"


def _cmd_check(args):
    res = combclasses.two_vertex_check(args.a, args.b)
    code = EX_OK if res.agree else 1
    if args.json:
        payload = {
            "a": args.a,
            "b": args.b,
            "solved": res.solved.to_json(),
            "formula": res.formula.to_json(),
            "agree": res.agree,
        }
        return json.dumps(payload, sort_keys=True), code
    verdict = "yes" if res.agree else "NO"
    text = f"solved  = {res.solved.text()}\nformula = {res.formula.text()}\nagree: {verdict}"
    return text, code


def _cmd_cluster_count(args):
    rho = _ints(args.rho)
    methods = {
        "brute": lambda: clusters.count_admissible(rho, max_sides=args.max_sides),
        "recurrence": lambda: clusters.count_by_recurrence(rho),
        "closed": lambda: clusters.closed_count(rho),
    }
    if args.method != "all":
        count = methods[args.method]()
        # the digit guard of rational_str: TooLarge, not a traceback, past the limit
        text = rational_str(count).removesuffix("/1")
        if args.json:
            payload = {"rho": rho, "method": args.method, "count": count}
            return json.dumps(payload, sort_keys=True)
        return text
    counts = {name: fn() for name, fn in methods.items()}
    agree = len(set(counts.values())) == 1
    if args.json:
        payload = {"rho": rho, "counts": counts, "agree": agree}
        return json.dumps(payload, sort_keys=True), EX_OK if agree else 1
    if agree:
        return f"3-way agreement: {counts['brute']}"
    body = ", ".join(f"{name}={counts[name]}" for name in sorted(counts))
    return f"DISAGREEMENT: {body}", 1


def _cmd_fiber(args):
    eps = _rational(args.eps)
    if args.kind == "disk":
        if args.r is None:
            raise UsageError("--kind disk needs --r")
        value = plforms.fiber_integral_disk(args.r, eps)
        payload = {"kind": "disk", "r": args.r}
    else:
        if args.v1 is None or args.v2 is None:
            raise UsageError("--kind cyl needs --v1 and --v2")
        value = plforms.fiber_integral_cyl(args.v1, args.v2, eps)
        payload = {"kind": "cyl", "v1": args.v1, "v2": args.v2}
    if args.json:
        payload |= {"eps": rational_str(eps), "value": rational_str(value)}
        return json.dumps(payload, sort_keys=True)
    return str(value)


def _cmd_omega(args):
    mmg = _metric_graph(args.graph)
    form = plforms.omega_on_cell(mmg, args.hole)
    payload = {
        "hole": args.hole,
        "edges": [edge_id(e) for e in form.edges],
        "matrix": [[rational_str(x) for x in row] for row in form.matrix],
    }
    lines = ["edges: " + " ".join(payload["edges"]), "matrix:"]
    lines += [" ".join(str(x) for x in row) for row in form.matrix]
    if args.pfaffian:
        ok, pf = plforms.nondegeneracy_check(mmg)
        payload["pfaffian"] = rational_str(pf)
        payload["nondegenerate"] = ok
        lines.append(f"pfaffian: {pf}")
        lines.append(f"nondegenerate: {'yes' if ok else 'no'}")
    if args.json:
        return json.dumps(payload, sort_keys=True)
    return "\n".join(lines)


def _cmd_shrink(args):
    res = degeneration.shrink(_metric_graph(args.graph), args.hole)
    if args.json:
        return json.dumps(degeneration.shrink_to_json(res), sort_keys=True)
    topo = res.topology
    lines = [f"kind: {res.kind}", f"zone genus: {topo.genus}"]
    if topo.boundary:
        lines.append("boundary valencies: " + " ".join(str(v) for v in topo.boundary))
    if topo.closed_complement:
        lines.append("closed complement: yes")
    lines.append(f"components: {len(res.components)}")
    lines.append(f"nodes: {len(res.nodes)}")
    lines.append(f"dual: {res.dual!r}")
    return "\n".join(lines)


def _cmd_strata(args):
    cells = enumeration.enumerate_all_cells(
        args.genus, _labels(args.labels), max_sides=args.max_sides
    )
    census = {}
    excluded = 0
    total = 0
    for classes in cells.values():
        for cell in classes:
            topo = degeneration.hole_topology((cell.graph, cell.marking), args.hole)
            total += 1
            if topo.closed_complement:
                excluded += 1
                continue
            census[topo.kind] = census.get(topo.kind, 0) + 1
    if args.json:
        payload = {
            "genus": args.genus,
            "labels": _labels(args.labels),
            "hole": args.hole,
            "census": census,
            "excluded_closed_complement": excluded,
            "cells": total,
        }
        return json.dumps(payload, sort_keys=True)
    lines = [f"{kind}: {census[kind]}" for kind in sorted(census)]
    if excluded:
        lines.append(f"excluded (closed complement): {excluded}")
    lines.append(f"cells: {total}")
    return "\n".join(lines)


def _cmd_stable(args):
    graph, marking, _ = _load_graph(args.graph)
    if marking is None:
        raise DomainMismatch("the graph file carries no marking")
    try:
        stages = json.loads(args.zseq)
    except json.JSONDecodeError as err:
        raise UsageError(f"--zseq is not valid JSON: {err}") from err
    if not isinstance(stages, list) or not all(
        isinstance(stage, list)
        and all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
            for e in stage
        )
        for stage in stages
    ):
        raise UsageError("--zseq must be a JSON list of stages of [a, b] edge pairs")
    zseq = [[tuple(e) for e in stage] for stage in stages]
    data = stable.build_stable(graph, marking, zseq)
    return json.dumps(stable.stable_to_json(data), sort_keys=True)


# --- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    common.add_argument("--manifest", metavar="FILE", help="write a run manifest")

    parser = _Parser(prog="ribboncalc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--repro",
        action="store_true",
        help="rerun every golden-value check and print a pass/fail table",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("enumerate", parents=[common], help="isomorphism classes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--labels", required=True, help="comma-separated hole labels")
    p.add_argument("--profile", required=True, help="m0,m1,... vertex counts")
    p.add_argument("--vertex-mark", action="append", metavar="LABEL=VALENCY")
    p.add_argument("--max-sides", type=int)
    p.add_argument("--out", default="-", help="output file, - for stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("euler", parents=[common], help="orbifold Euler characteristic")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-sides", type=int)
    p.set_defaults(func=_cmd_euler)

    p = subs.add_parser("fpoly", parents=[common], help="kappa polynomial of a locus")
    p.add_argument("--profile", required=True, help="m0,m1,... vertex counts")
    p.add_argument("--g", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_fpoly)

    p = subs.add_parser("relation", parents=[common], help="merging relation")
    p.add_argument("--rho", required=True, help="marking orders, labels become q1,q2,...")
    p.add_argument("--keep", help="labels kept as psi factors")
    p.add_argument("--g", type=int)
    p.add_argument("--labels", default="p", help="hole labels (default p)")
    p.set_defaults(func=_cmd_relation)

    p = subs.add_parser("check", parents=[common], help="cross-check the solver")
    p.add_argument("what", choices=["two-vertex"])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("cluster-count", parents=[common], help="admissible censuses")
    p.add_argument("--rho", required=True, help="per-hole excesses")
    p.add_argument(
        "--method",
        choices=["brute", "recurrence", "closed", "all"],
        default="all",
    )
    p.add_argument("--max-sides", type=int)
    p.set_defaults(func=_cmd_cluster_count)

    p = subs.add_parser("fiber", parents=[common], help="exact fiber integrals")
    p.add_argument("--kind", choices=["disk", "cyl"], required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--v1", type=int)
    p.add_argument("--v2", type=int)
    p.add_argument("--eps", default="1", help="perimeter bound, a rational p/q")
    p.set_defaults(func=_cmd_fiber)

    p = subs.add_parser("omega", parents=[common], help="cell 2-form of a hole")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--hole", required=True)
    p.add_argument(
        "--pfaffian",
        action="store_true",
        help="also run the top-cell nondegeneracy check",
    )
    p.set_defaults(func=_cmd_omega)

    p = subs.add_parser("shrink", parents=[common], help="crush one hole's zone")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--hole", required=True)
    p.set_defaults(func=_cmd_shrink)

    p = subs.add_parser("strata", parents=[common], help="zone-kind census")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--hole", required=True)
    p.add_argument("--max-sides", type=int)
    p.set_defaults(func=_cmd_strata)

    p = subs.add_parser("stable", parents=[common], help="stable graph of a collapse")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--zseq", required=True, help="JSON list of edge-set stages")
    p.set_defaults(func=_cmd_stable)

    return parser


def _repro_table() -> tuple[str, int]:
    results = checks.run_all()
    width = max(len(r.name) for r in results)
    lines = [
        f"{r.name.ljust(width)}  {'PASS' if r.ok else 'FAIL'}  {r.detail}"
        for r in results
    ]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines), EX_OK if passed == len(results) else 1


def _manifest_parameters(args) -> dict:
    hidden = {"func", "command", "manifest", "repro"}
    params = {}
    for key, value in vars(args).items():
        if key in hidden:
            continue
        params[key] = list(value) if isinstance(value, tuple) else value
    return params


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err}") from err


def _emit(args, text: str) -> None:
    destination = getattr(args, "out", "-")
    if destination and destination != "-":
        _write(destination, text)
    else:
        print(text)
    if args.manifest:
        manifest = build_manifest(args.command, _manifest_parameters(args), text)
        _write(args.manifest, json.dumps(manifest.to_json(), sort_keys=True))


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as err:  # --help and --version print for themselves
        return int(err.code or 0)
    if args.repro:
        text, code = _repro_table()
        print(text)
        return code
    if getattr(args, "func", None) is None:
        print("usage error: pick a subcommand or --repro", file=sys.stderr)
        return EX_USAGE
    try:
        out = args.func(args)
        text, code = out if isinstance(out, tuple) else (out, EX_OK)
        _emit(args, text)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EX_USAGE
    except RibbonError as err:
        payload = {"error": err.code, "message": str(err)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return EX_DOMAIN
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
