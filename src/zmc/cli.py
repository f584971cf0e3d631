"""Command-line front end.

Subcommands: classify, sample, graph, check, reduce.  Inputs are either a
JSON surface document or a gallery name like scherk:3.  Exit codes:
0 success, 2 input error, 3 precondition unmet, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain

import numpy as np

from . import analysis as _analysis
from .angular import AngularData, BlaschkeParams
from .domain import FinitePoint, iota, sample_edges
from .errors import (InputError, NumericError, OutsideDomain, ParityError, PreconditionUnmet,
                     ZmcError)
from .gallery import GalleryEntry, Normalization, get_entry
from .polycheb import ComplexPoly, ReciprocalClass, reduce_reciprocal
from .surface import SurfaceEvaluator, eval_on_disk
from .weierstrass import (KobayashiData, build, coefficients, period_check,
                          verify_fold_type)

REPORT_SCHEMA = "zmc-report/1"

_ANGLE_RE = re.compile(r"^\s*(?P<sign>[+-])?\s*(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*)?pi\s*$")


def _parse_angle(value, where: str) -> tuple[float, Fraction | None]:
    """Radians as a number, or an exact multiple of pi like '3/4 pi'."""
    if type(value) in (int, float):  # a JSON number; true and false are not
        if value == 0:
            return 0.0, Fraction(0)
        return _number(value, where), None
    if isinstance(value, str):
        m = _ANGLE_RE.match(value)
        if m:
            num = int(m.group("num") or 1)
            den = int(m.group("den") or 1)
            if den == 0:
                raise InputError(f"{where}: zero denominator in angle {value!r}")
            f = Fraction(num, den)
            if m.group("sign") == "-":
                f = -f
            return _number(f, where) * math.pi, f
        raise InputError(f"{where}: cannot parse angle {value!r}; use radians or 'k/m pi'")
    raise InputError(f"{where}: angle must be a number or string, got {type(value).__name__}")


def _number(value, where: str) -> float:
    """float(value) of a JSON number or an angle's exact fraction; anything
    else, a string or a boolean too, is an input error."""
    try:
        if type(value) in (int, float, Fraction):
            return float(value)
    except OverflowError:  # beyond the float range
        pass
    raise InputError(f"{where}: expected a number, got {value!r}")


def _integer(value, where: str) -> int:
    """An integral number such as 3 or 3.0; 2.7 is an input error."""
    x = _number(value, where)
    if not x.is_integer():
        raise InputError(f"{where}: expected an integer, got {value!r}")
    return int(x)


@dataclass
class Options:
    u_max: float = 3.0
    resolution: int = 100
    margin: float = 1e-3
    base_point: tuple[float, float] | None = None


@dataclass
class Target:
    """A resolved surface: Kobayashi data or a raw negative pair."""

    name: str
    entry: GalleryEntry | None = None
    data: KobayashiData | None = None
    options: Options = field(default_factory=Options)

    @property
    def normalization(self) -> Normalization:
        return self.entry.normalization if self.entry else Normalization()


def load_surface_document(path: str) -> Target:
    """Parse the JSON surface document; errors carry locations."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    if "n" not in doc:
        raise InputError(f"{path}: missing required field 'n'")
    n = _integer(doc["n"], f"{path}: n")
    raw_alphas = doc.get("alphas")
    if not isinstance(raw_alphas, list) or len(raw_alphas) != 2 * n:
        raise InputError(f"{path}: 'alphas' must list exactly {2 * n} angles")
    alphas, fracs, exact = [], [], True
    for i, item in enumerate(raw_alphas):
        val, fr = _parse_angle(item, f"{path}: alphas[{i}]")
        alphas.append(val)
        fracs.append(fr)
        exact = exact and fr is not None
    raw_b = doc.get("blaschke", [])
    if not isinstance(raw_b, list):
        raise InputError(f"{path}: 'blaschke' must be a list, got {type(raw_b).__name__}")
    b = []
    for i, item in enumerate(raw_b):
        if isinstance(item, dict):
            b.append(complex(_number(item.get("re", 0.0), f"{path}: blaschke[{i}].re"),
                             _number(item.get("im", 0.0), f"{path}: blaschke[{i}].im")))
        elif isinstance(item, (int, float)):
            b.append(complex(_number(item, f"{path}: blaschke[{i}]")))
        else:
            raise InputError(f"{path}: blaschke[{i}] must be a number or {{re, im}}")
    opts = doc.get("options", {})
    where = f"{path}: options"
    if not isinstance(opts, dict):
        raise InputError(f"{where}: must be an object, got {type(opts).__name__}")
    base_point = opts.get("base_point")
    if base_point is not None:
        if not isinstance(base_point, list) or len(base_point) != 2:
            raise InputError(f"{where}.base_point: expected [u, theta], got {base_point!r}")
        base_point = tuple(_number(v, f"{where}.base_point") for v in base_point)
        if not all(math.isfinite(v) for v in base_point):
            raise InputError(f"{where}.base_point: must be finite, got {list(base_point)}")
    options = Options(
        u_max=_number(opts.get("u_max", 3.0), f"{where}.u_max"),
        resolution=_integer(opts.get("resolution", 100), f"{where}.resolution"),
        margin=_number(opts.get("margin", 1e-3), f"{where}.margin"),
        base_point=base_point,
    )
    angular = (AngularData.from_fractions(n, fracs) if exact
               else AngularData(n, tuple(alphas)))
    data = build(angular, BlaschkeParams(tuple(b)))
    return Target(name=os.path.basename(path), data=data, options=options)


def resolve_target(args) -> Target:
    if getattr(args, "gallery", None):
        entry = get_entry(args.gallery)
        return Target(name=entry.name, entry=entry, data=entry.data)
    if getattr(args, "surface", None):
        return load_surface_document(args.surface)
    raise InputError("give a surface document or --gallery NAME[:n]")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _fold_dict(rep) -> dict:
    """The report's fold_type object, for Kobayashi data and raw pairs alike."""
    return {"ends_on_circle": rep.ends_on_circle, "gauss_circle_ok": rep.gauss_circle_ok,
            "max_re_condition": rep.max_re_condition, "is_fold_type": rep.is_fold_type}


def _report_dict(target: Target) -> dict:
    if target.data is None:
        return {
            "schema": REPORT_SCHEMA,
            "name": target.name,
            "kind": "raw-pair",
            "fold_type": _fold_dict(verify_fold_type(target.entry.pair)),
        }
    rep = _analysis.classify(target.data)
    cond = rep.conditions
    return {
        "schema": REPORT_SCHEMA,
        "name": target.name,
        "kind": "kobayashi",
        "n": rep.n,
        "principal": rep.principal,
        "alphas": list(target.data.angular.alphas),
        "blaschke": [[b.real, b.imag] for b in target.data.blaschke.b],
        "fold_type": _fold_dict(rep.fold),
        "period_residual": rep.period_residual,
        "graph_condition": cond.graph_condition.value,
        "immersion_condition": cond.immersion_condition.value,
        "witness": list(cond.witness) if cond.witness else None,
        "immersion_witness": list(cond.immersion_witness) if cond.immersion_witness else None,
        "gap_arithmetic": cond.arithmetic,
        "umbilics": [[z.real, z.imag, m] for z, m in (cond.umbilics or ())],
        "ends": [[e.real, e.imag, m] for e, m in rep.ends],
        "hopf_pole_order": rep.hopf_orders[0],
        "hopf_zero_order": rep.hopf_orders[1],
        "entire_graph_certified": rep.entire_graph_certified,
    }


def cmd_classify(args) -> int:
    target = resolve_target(args)
    report = _report_dict(target)
    if args.json:
        _write(args.json, [json.dumps(report, indent=2)], ())
    print(f"surface: {report['name']}")
    ft = report["fold_type"]
    print(f"  fold-type: {'yes' if ft['is_fold_type'] else 'NO'} "
          f"(ends on circle: {ft['ends_on_circle']}, |g|=1 on circle: {ft['gauss_circle_ok']}, "
          f"Re[dg/(g^2 omega)] = 0 identity residual {ft['max_re_condition']:.3e})")
    if report["kind"] == "kobayashi":
        print(f"  order n = {report['n']}, "
              f"{'principal' if report['principal'] else 'general'} type")
        print(f"  period residual: {report['period_residual']:.3e}")
        print(f"  graph condition (gaps vs pi/(n-1)): {report['graph_condition']}"
              f" [{report['gap_arithmetic']} arithmetic]")
        if report["witness"]:
            print(f"    witness critical point (u, theta) = "
                  f"({report['witness'][0]:.6f}, {report['witness'][1]:.6f})")
        print(f"  immersion condition (gaps vs 2pi/(n-1)): {report['immersion_condition']}")
        print(f"  ends: " + ", ".join(
            f"({e[0]:.4f}{e[1]:+.4f}i) x{e[2]}" for e in report["ends"]))
        print(f"  umbilics in the open disk: " + (", ".join(
            f"({z[0]:.4f}{z[1]:+.4f}i) x{z[2]}" for z in report["umbilics"]) or "none"))
        print(f"  entire graph certified: {report['entire_graph_certified']}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _grid(data: KobayashiData, options: Options, resolution: int | None):
    """The (u, theta) sample grid: rows evenly spaced in u from the checked
    lower edges of `sample_edges` up to u_max."""
    res = options.resolution if resolution is None else resolution
    th, lo = sample_edges(data.angular, res, options.margin, options.u_max)
    hi = np.full(res, options.u_max)
    u = np.linspace(lo, hi, res, axis=0)
    return u, th


def _write(path: str, head: list[str], rows) -> None:
    """The header lines, then each chunk of text in `rows` as it comes.  A
    path that cannot be opened, written or closed is an input error; it is
    not removed (it may be a device), so a failed write can leave part of
    the file."""
    try:
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in head))
            fh.writelines(rows)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}")


def _reprs(a) -> list[str]:
    """repr(x) of every value of the float array `a`, in flat (C) order.

    orjson writes the same shortest round-trip digits as repr, several times
    faster, and differs only in layout.  Below 1e-9 the text is the same
    (7.7e-15, 5e-324).  For 1e-9 <= |x| < 1e-5 orjson writes one exponent
    digit (1e-7) where repr writes two (1e-07), so those entries are padded.
    repr itself is left only for 1e-5 <= |x| < 1e-4 (orjson's 0.000032 is
    repr's 3.2e-05), for |x| >= 1e16 (1e16 against 1e+16) and for nan and
    inf (null)."""
    import orjson  # imported on first use: `import zmc.cli` loads no orjson
    flat = np.ravel(a)  # C-contiguous, as orjson requires
    out = (orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
           if flat.size else [])
    mag = np.abs(flat)
    odd = np.flatnonzero((mag >= 1e-9) & (mag < 1e-4) | ~(mag < 1e16))  # nan too
    for i, x in zip(odd.tolist(), flat[odd].tolist()):
        out[i] = out[i].replace("e-", "e-0") if abs(x) < 1e-5 else repr(x)
    return out


def _sample_rows(fmt: str, u, th, vals, labels):
    """The body of a `zmc sample` file, one chunk per u-row of vertices and
    per band of faces.  Every float is `_reprs` text, taken one u-row at a
    time (a whole file at once would hold every string in memory), and a
    vertex row is one `%` over a repeated template; theta takes only `res`
    values, so it is formatted once."""
    res = th.size
    starts = range(0, u.size, res)
    if fmt == "csv":
        th_s, line = _reprs(th), "%s,%s,%s,%s,%s,%s\n" * res
        for a, row in zip(starts, u):
            s = _reprs(np.vstack([row, vals[:, a:a + res]]))  # u, t, x, y rows
            u_s, *txy = (s[k:k + res] for k in range(0, 4 * res, res))
            yield line % tuple(chain.from_iterable(zip(u_s, th_s, *txy,
                                                       labels[a:a + res].tolist())))
        return
    obj = fmt == "obj"
    vertex = ("v %s %s %s\n" if obj else "%s %s %s\n") * res
    for a in starts:
        yield vertex % tuple(_reprs(vals[:, a:a + res].T))
    # quad (i, j) -> (i, j + 1) -> (i + 1, j + 1) -> (i + 1, j), closed in theta
    j = np.stack([np.arange(res), np.roll(np.arange(res), -1)])
    quad = np.ascontiguousarray(np.concatenate([j, j[::-1] + res]).T) + obj
    import orjson
    lead = "f " if obj else "4 "
    for a in starts[:-1]:  # orjson's "[[a,b,c,d],[...]]" of a band, as face lines
        band = orjson.dumps(quad + a, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
        yield lead + band.replace("],[", "\n" + lead).replace(",", " ") + "\n"


def cmd_sample(args) -> int:
    target = resolve_target(args)
    if target.data is None:
        raise PreconditionUnmet(
            f"{target.name} is a raw negative example without an extension domain")
    data = target.data
    options = target.options
    if args.u_max is not None:
        options.u_max = args.u_max
    if args.margin is not None:
        options.margin = args.margin
    fmt = args.format
    names = ["t", "x", "y"]
    if args.axis_order:
        names = [s.strip() for s in args.axis_order.split(",")]
        if sorted(names) != ["t", "x", "y"]:
            raise InputError("--axis-order must be a permutation of t,x,y")
    u, th = _grid(data, options, args.resolution)
    res = u.shape[0]
    evaluator = SurfaceEvaluator(data)
    base = np.zeros(3)
    if options.base_point is not None:
        try:
            base = evaluator.eval(FinitePoint(*options.base_point)).as_array()
        except OutsideDomain:
            raise InputError(f"options.base_point {list(options.base_point)} is not "
                             "strictly inside the extension domain")
    with np.errstate(all="ignore"):
        vals = target.normalization.apply_batch(evaluator.eval_batch(u, th) - base[:, None])
    bad = ~np.isfinite(vals).all(axis=0)
    if bad.any():
        i, j = divmod(np.argmax(bad), res)
        raise NumericError(f"non-finite value at (u, theta) = ({u[i, j]}, {th[j]})")

    if fmt == "csv":
        labels = _analysis.causal_label(data, u, th).ravel()
        head = ["u,theta,t,x,y,causal"]
    else:
        vals = vals[["txy".index(nm) for nm in names]]
        labels = None
        head = ([f"# zmc surface {target.name}; axis order " + ",".join(names)] if fmt == "obj"
                else ["ply", "format ascii 1.0", f"comment zmc surface {target.name}",
                      f"element vertex {u.size}",
                      "property double x", "property double y", "property double z",
                      f"element face {(res - 1) * res}",
                      "property list uchar int vertex_indices", "end_header"])
    _write(args.out, head, _sample_rows(fmt, u, th, vals, labels))
    print(f"wrote {u.size} vertices to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def _parse_range(text: str, where: str) -> tuple[float, float]:
    try:
        lo, _, hi = text.partition(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise InputError(f"{where}: expected LO:HI, got {text!r}")
    if not math.isfinite(hi - lo):
        raise InputError(f"{where}: both ends and their distance must be finite, got {text!r}")
    return lo, hi


def cmd_graph(args) -> int:
    target = resolve_target(args)
    if target.data is None:
        raise PreconditionUnmet(f"{target.name} is not a graph surface")
    x0, x1 = _parse_range(args.x_range, "--x-range")
    y0, y1 = _parse_range(args.y_range, "--y-range")
    res = args.resolution
    if res < 1:
        raise InputError(f"--resolution must be at least 1, got {res}")
    # --h is still checked, but ignored: the residual is analytic
    if not (math.isfinite(args.h) and args.h > 0):
        raise InputError(f"--h must be positive and finite, got {args.h}")
    norm = target.normalization
    inverter = _analysis.GraphInverter(target.data)
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    raw_x, raw_y = np.stack([xs, ys]) / np.array(norm.scale[1:])[:, None]
    l, th, lam, ok, rn = inverter._grid(raw_x, raw_y)
    with np.errstate(all="ignore"):
        F = inverter.evaluator.jet(l.ravel(), th.ravel(), 2)[1:]
    err = inverter._chart_error(*F[:2], l, rn, *np.meshgrid(raw_x, raw_y))
    _, _, resid, finite = _analysis.graph_derivatives(inverter, l, th, norm.scale, F)
    if not (ok & finite).all():
        i, j = np.argwhere(~(ok & finite))[0]
        why = "graph inversion failed" if not ok[i, j] else "non-finite graph derivatives"
        raise NumericError(f"{why} at (x, y) = ({xs[j]}, {ys[i]})")
    causal = _analysis.causal_label(target.data, inverter._from_chart(l, th)[0], th, (l, *err))
    # whole columns at once (unlike `_sample_rows`): the solve above, not
    # these strings, sets the command's peak memory
    xs_s, lam_s, res_s = _reprs(xs), _reprs(norm.scale[0] * lam), _reprs(resid)
    labels = causal.ravel().tolist()
    rows = (f"%s,{y},%s,%s,%s\n" * res
            % tuple(chain.from_iterable(zip(xs_s, lam_s[a:a + res], labels[a:a + res],
                                            res_s[a:a + res])))
            for a, y in zip(range(0, res * res, res), _reprs(ys)))
    _write(args.out, ["x,y,lambda,causal,zmc_residual"], rows)
    print(f"wrote {res * res} graph samples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _random_domain_points(data: KobayashiData, rng, count: int):
    th = rng.uniform(0.0, 2 * math.pi, size=count)
    lo = np.asarray(data.angular.max_cos(th))
    u = lo + rng.uniform(0.15, 2.0, size=count)
    return u, th


def _check_surface(target: Target, rng, lines: list[str]) -> bool:
    name = target.name
    ok_all = True

    def note(ok: bool, what: str):
        nonlocal ok_all
        ok_all = ok_all and ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {what}")

    expected = target.entry.expected if target.entry else {}
    if target.data is None:
        rep = verify_fold_type(target.entry.pair)
        want = expected.get("fold_type", True)
        note(rep.is_fold_type == want,
             f"fold-type verdict {rep.is_fold_type} (expected {want})")
        return ok_all

    data = target.data
    rep = verify_fold_type(data)
    note(rep.is_fold_type, "fold-type conditions")
    period = period_check(data)
    note(period < 1e-10, f"period residual {period:.2e} < 1e-10")

    if data.angular.is_distinct:
        c = coefficients(data)
        sums = np.abs(c.weights().sum(axis=1)).max()
        note(sums < 1e-12, f"residue sums {sums:.2e} < 1e-12")

    # nullity of the coordinate forms at random points
    zs = rng.uniform(0.2, 0.8, 8) * np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
    worst = 0.0
    for z in zs:
        v = [data.phi[k](z) for k in range(3)]
        worst = max(worst, abs(-v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
                    / max(1.0, abs(v[0]) ** 2))
    note(worst < 1e-10, f"nullity residual {worst:.2e}")

    # Jacobian formula vs the evaluator's analytic derivatives
    ev = SurfaceEvaluator(data)
    u, th = _random_domain_points(data, rng, 8)
    du, dth = ev.partials(u, th)
    J_ev = du[1] * dth[2] - dth[1] * du[2]
    J = np.array([_analysis.jacobian_x1x2(data, ui, ti) for ui, ti in zip(u, th)])
    worst = float(np.max(np.abs(J - J_ev) / np.maximum(1e-12, np.abs(J_ev))))
    note(worst < 1e-10, f"jacobian vs evaluator derivatives, rel err {worst:.2e}")

    # closed form against the disk-side quadrature at two points
    worst = 0.0
    for z in (0.35 + 0.1j, -0.2 + 0.45j):
        a = ev.eval(iota(z)).as_array()
        b = eval_on_disk(data, z).as_array()
        worst = max(worst, np.abs(a - b).max())
    note(worst < 1e-8, f"closed form vs quadrature, diff {worst:.2e}")
    return ok_all


def _random_principal(rng, n: int) -> KobayashiData:
    """Principal data with distinct angles, rejection-sampled until every
    gap sits strictly below pi/(n-1)."""
    bound = math.pi / (n - 1)
    while True:
        gaps = rng.uniform(0.05, 1.0, size=2 * n)
        gaps *= 2 * math.pi / gaps.sum()
        if gaps.max() < bound * 0.98:
            alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
            return build(AngularData(n, tuple(alphas)), BlaschkeParams(()))


def cmd_check(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed: expected a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    lines: list[str] = []
    ok = True
    if args.all_gallery:
        names = ["scherk:2", "scherk:3", "scherk:4", "jorge-meeks:2", "jorge-meeks:3",
                 "ruled-enneper", "parabolic", "self-intersecting-fb",
                 "self-intersecting-n3", "helicoid-negative", "elliptic-catenoid-negative"]
        for nm in names:
            entry = get_entry(nm)
            ok = _check_surface(Target(name=nm, entry=entry, data=entry.data),
                                rng, lines) and ok
        for n in (3, 4, 5):
            data = _random_principal(rng, n)
            ok = _check_surface(Target(name=f"random-principal:{n}", data=data),
                                rng, lines) and ok
    else:
        target = resolve_target(args)
        ok = _check_surface(target, rng, lines)
    print("\n".join(lines))
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

_COEFF_MAX = sys.float_info.max / 2  # the reduction adds two coefficients


def _coefficient(item, i: int) -> complex:
    """One `--coeffs` entry, a number or [re, im], finite and small enough
    that the reduction cannot overflow."""
    parts = item if isinstance(item, list) and len(item) == 2 else [item, 0]
    try:
        c = complex(*parts) if all(type(x) in (int, float) for x in parts) else math.nan
        if abs(c) < _COEFF_MAX:  # false for NaN
            return c
    except OverflowError:  # beyond the float range
        pass
    raise InputError(f"--coeffs[{i}]: expected a number or [re, im] of modulus "
                     f"below {_COEFF_MAX:.6g}")


def cmd_reduce(args) -> int:
    try:
        raw = json.loads(args.coeffs)
    except json.JSONDecodeError as exc:
        raise InputError(f"--coeffs: {exc.msg}")
    if not isinstance(raw, list) or not raw:
        raise InputError("--coeffs must be a nonempty JSON list")
    coeffs = [_coefficient(item, i) for i, item in enumerate(raw)]
    poly = ComplexPoly(coeffs)
    if poly.is_zero:
        raise InputError("--coeffs: the zero polynomial has no reciprocal class")
    parity = ReciprocalClass.SELF if args.parity == "self" else ReciprocalClass.ANTI
    try:
        w = reduce_reciprocal(poly, args.m, parity)
    except ParityError as exc:
        raise InputError(f"--coeffs, --m, --parity: {exc}")
    kind, factor = ("T", "") if parity is ReciprocalClass.SELF else ("U", " * ((r - 1/r)/2)")
    # a coefficient prints as its real part unless its imaginary part shows
    terms = [(f"{c.real:.12g}" if abs(c.imag) <= 1e-12 * (1 + abs(c)) else f"({c:.12g})")
             + f"*{kind}{i}" for i, c in enumerate(w.tolist()) if c != 0]
    print(f"p(r) = r^{args.m}{factor} * q(u),  u = (r + 1/r)/2")
    print(f"q(u) = {' + '.join(terms) or '0'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_target_args(p):
    p.add_argument("surface", nargs="?", help="JSON surface document")
    p.add_argument("--gallery", help="gallery entry, e.g. scherk:3")


@cache
def _parser() -> argparse.ArgumentParser:  # built once per process
    parser = argparse.ArgumentParser(
        prog="zmc",
        description="Zero-mean-curvature surfaces of mixed type: classify, "
                    "tabulate, and export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="fold-type / period / graph-condition report")
    _add_target_args(p)
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample", help="export a surface mesh over the extension domain")
    _add_target_args(p)
    p.add_argument("--format", choices=("obj", "ply", "csv"), default="obj")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--u-max", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--axis-order", default=None,
                   help="vertex component order, e.g. x,t,y to put t on the viewer's vertical axis")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("graph", help="tabulate the entire graph lambda(x, y)")
    _add_target_args(p)
    p.add_argument("--x-range", default="-2:2")
    p.add_argument("--y-range", default="-2:2")
    p.add_argument("--resolution", type=int, default=41)
    p.add_argument("--h", type=float, default=1e-3,
                   help="ignored: the PDE residual is analytic (kept while bench/ passes it)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("check", help="run the invariant battery")
    _add_target_args(p)
    p.add_argument("--all-gallery", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="reduce an (anti-)self-reciprocal polynomial")
    p.add_argument("--coeffs", required=True,
                   help="JSON list of coefficients, constant term first")
    p.add_argument("--m", type=int, required=True, help="half the reciprocal order")
    p.add_argument("--parity", choices=("self", "anti"), required=True)
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionUnmet as exc:
        print(f"precondition unmet: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ZmcError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
