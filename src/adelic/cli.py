"""Command line front end.

Every library operation is reachable as a subcommand with deterministic
output: identical invocations produce byte identical stdout.  Exact
rationals print as ``p/q``, decimal values carry an explicit precision
annotation, tables are CSV with a header row, and ``--output json``
wraps the same data in a single versioned JSON object.

Exit codes: 0 success, 2 rejected input (one machine parsable line on
stderr), 3 capacity or quadrature budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from fractions import Fraction

from .arakelov import (
    ArakelovSeriesSpec,
    arakelov_series_and_rows,
    grouped_series_coefficients,
    theta_duality_defect,
)
from .counts import count_Pn, count_table, enumerate_Pn, fit_asymptotics, height_zeta_partial, render_count_csv
from .errors import CapacityError, PoleError, QuadratureError, SectionZeroError, ValidationError
from .fibration import (
    FibrationLineClass,
    FnPoint,
    HirzebruchSurface,
    anticanonical_class,
    character_shift_invariance,
    enumerate_Fn,
    height_Fn,
    height_Fn_raw,
    height_Fn_sq,
)
from .heights import ArchKind, MetrizedLineBundle, ProjPoint, Section, height_point, height_point_sq
from .lattice import (
    HermitianLattice,
    completed_lambda,
    lattice_zeta,
    theta,
    theta_functional_equation_defect,
)
from .numeric import Ctx
from .places import INF, Place, euler_phi, product_formula_check
from .tamagawa import Pn, TamagawaSpec, peyre_constant_check, tamagawa_number, tamagawa_report
from .twist import AdelicGroupElement, compare_twisted, twisted_height, twisted_height_sq

SCHEMA_VERSION = 1

_EPILOG = """\
file formats:
  Gram matrix (--gram): either the shorthand I<d> (identity of rank d),
  diag:a,b,... (diagonal entries), or a path to a text file
      rank d
      g11 g12 ... g1d
      ...
  with d*d whitespace separated exact rationals, row major.  Lines whose
  first non-blank character is '#' are comments.  No floats: entries are
  parsed bit exactly as p/q.

  Twist description (--element): a text file
      rank d
      place inf        (or a prime, e.g. place 5)
      <d*d rationals>
      place 3
      <d*d rationals>
      default          (optional block, identity when absent)
      <d*d rationals>
  The rank must be n+1 for a bundle on P^n.

csv columns:
  arakelov          height_sq,point,covolume,phi_value,phi_error,term,term_error
  arakelov --grouped  N,count,reference_coefficient,theta_value,term
  count --table     threshold,count
  fit               threshold,count,model
  hirzebruch enumerate  base,fiber,height_sq
  Projective points print as colon separated primitive integers (2:3).

exit codes:
  0 success; 2 invalid input (stderr: 'error: validation: <reason>');
  3 enumeration cap or quadrature budget exceeded
    (stderr: 'error: capacity: <reason>').

notes:
  --output json emits one object with a schema_version field; numeric
  fields are IEEE doubles, so use csv output to keep digits beyond 64
  bits.  --threads is accepted for config parity; every reduction is
  deterministic and single threaded.  `tamagawa` prints a JSON report in
  both output modes.
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors on one line instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


# -- input parsing -----------------------------------------------------


def _parse_fraction(text, name: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{name} must be an exact rational, got {text!r}") from None


def _parse_scalar(text, name: str) -> complex:
    """Rational or complex literal for series arguments."""
    t = str(text).strip()
    try:
        return complex(Fraction(t))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return complex(t)
    except ValueError:
        raise ValidationError(f"{name} must be a rational or complex literal, got {text!r}") from None


def _parse_int_list(text, name: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        raise ValidationError(f"{name} must be a comma separated integer list, got {text!r}") from None


def _parse_fraction_list(text, name: str) -> list[Fraction]:
    return [_parse_fraction(part, name) for part in str(text).split(",") if part != ""]


def _tokens_from_file(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from None
    out: list[str] = []
    for line in raw.splitlines():
        body = line.split("#", 1)[0]
        out.extend(body.split())
    return out


def _take_rank(tokens: list[str], pos: int, path: str) -> tuple[int, int]:
    if pos + 1 >= len(tokens) or tokens[pos] != "rank":
        raise ValidationError(f"{path!r} must start with a 'rank d' header")
    try:
        d = int(tokens[pos + 1])
    except ValueError:
        raise ValidationError(f"{path!r}: rank must be an integer, got {tokens[pos + 1]!r}") from None
    if d < 1:
        raise ValidationError(f"{path!r}: rank must be positive, got {d}")
    return d, pos + 2


def _take_matrix(tokens: list[str], pos: int, d: int, path: str) -> tuple[tuple, int]:
    if pos + d * d > len(tokens):
        raise ValidationError(f"{path!r}: expected {d * d} matrix entries, file ended early")
    vals = [_parse_fraction(tokens[pos + i], f"{path!r} entry {i}") for i in range(d * d)]
    rows = tuple(tuple(vals[i * d : (i + 1) * d]) for i in range(d))
    return rows, pos + d * d


def parse_gram(spec: str) -> HermitianLattice:
    """I<d> shorthand, diag:a,b,... shorthand, or a Gram file path."""
    spec = spec.strip()
    m = re.fullmatch(r"I(\d+)", spec)
    if m:
        return HermitianLattice.identity(int(m.group(1)))
    if spec.startswith("diag:"):
        entries = _parse_fraction_list(spec[5:], "--gram diagonal entry")
        if not entries:
            raise ValidationError("diag: needs at least one entry")
        return HermitianLattice.diagonal(entries)
    tokens = _tokens_from_file(spec)
    d, pos = _take_rank(tokens, 0, spec)
    rows, pos = _take_matrix(tokens, pos, d, spec)
    if pos != len(tokens):
        raise ValidationError(f"{spec!r}: trailing tokens after the Gram matrix")
    return HermitianLattice(rows)


def parse_element_file(path: str, size: int) -> AdelicGroupElement:
    """Twist description file to a group element of the given matrix size."""
    tokens = _tokens_from_file(path)
    d, pos = _take_rank(tokens, 0, path)
    if d != size:
        raise ValidationError(f"{path!r}: rank {d} does not match the required size {size}")
    components: dict[Place, tuple] = {}
    default = None
    while pos < len(tokens):
        head = tokens[pos]
        if head == "place":
            if pos + 1 >= len(tokens):
                raise ValidationError(f"{path!r}: 'place' needs inf or a prime")
            tag = tokens[pos + 1]
            place = INF if tag == "inf" else Place.finite(int(tag)) if tag.isdigit() else None
            if place is None:
                raise ValidationError(f"{path!r}: place must be 'inf' or a prime, got {tag!r}")
            mat, pos = _take_matrix(tokens, pos + 2, d, path)
            if place in components:
                raise ValidationError(f"{path!r}: duplicate block for place {tag}")
            components[place] = mat
        elif head == "default":
            if default is not None:
                raise ValidationError(f"{path!r}: duplicate default block")
            default, pos = _take_matrix(tokens, pos + 1, d, path)
        else:
            raise ValidationError(f"{path!r}: expected 'place' or 'default', got {head!r}")
    return AdelicGroupElement(d, components, default)


def _parse_variety(text: str):
    m = re.fullmatch(r"([PF])(\d+)", text.strip().upper())
    if not m:
        raise ValidationError(f"variety must look like P1, P2 or F0, F1, ..., got {text!r}")
    k = int(m.group(2))
    if m.group(1) == "P":
        return Pn(k)
    return HirzebruchSurface(k)


def _parse_pair(text, name: str) -> tuple[int, int]:
    parts = _parse_int_list(text, name)
    if len(parts) != 2:
        raise ValidationError(f"{name} must be two comma separated integers, got {text!r}")
    return parts[0], parts[1]


# -- output formatting -------------------------------------------------


def _dps(ctx: Ctx) -> int:
    return max(17, int(ctx.bits * 0.30103) + 2)


def _fmt_exact(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _decimal_str(z, ctx: Ctx) -> str:
    if isinstance(z, Fraction):
        z = ctx.real(z)
    if isinstance(z, (int, float)):
        return repr(float(z))
    if isinstance(z, complex):
        return repr(z.real) if z.imag == 0.0 else repr(z)
    import mpmath

    if hasattr(z, "imag") and z.imag == 0:
        z = z.real
    return mpmath.nstr(z, _dps(ctx))


def _json_number(z):
    """Downcast any scalar to JSON friendly floats."""
    if isinstance(z, Fraction):
        return float(z)
    if isinstance(z, complex):
        return float(z.real) if z.imag == 0.0 else {"re": float(z.real), "im": float(z.imag)}
    if isinstance(z, (int, float)):
        return float(z)
    if hasattr(z, "imag") and z.imag != 0:
        return {"re": float(z.real), "im": float(z.imag)}
    return float(z.real) if hasattr(z, "real") else float(z)


def _exact_or_float(h):
    return _fmt_exact(h) if isinstance(h, (Fraction, int)) else repr(float(h))


def _series_line(sv, ctx: Ctx) -> str:
    kind = "rigorous" if sv.rigorous else "heuristic"
    return (
        f"{_decimal_str(sv.value, ctx)} ± {float(sv.error_bound):.3e} "
        f"({sv.terms_used} terms, {kind}, {ctx.bits}-bit)"
    )


def _series_json(sv) -> dict:
    return {
        "value": _json_number(sv.value),
        "error_bound": float(sv.error_bound),
        "terms_used": int(sv.terms_used),
        "rigorous": bool(sv.rigorous),
    }


def _height_lines(h, h_sq, ctx: Ctx) -> list[str]:
    lines = []
    if isinstance(h, (Fraction, int)):
        lines.append(_fmt_exact(h))
    else:
        lines.append(f"exact-square: {_fmt_exact(h_sq)}")
    lines.append(f"decimal: {_decimal_str(h, ctx)} ({ctx.bits}-bit)")
    return lines


def _height_json(h, h_sq) -> dict:
    return {
        "exact": _fmt_exact(h) if isinstance(h, (Fraction, int)) else None,
        "exact_square": _fmt_exact(h_sq),
        "decimal": _json_number(h),
    }


def _point_str(x: ProjPoint) -> str:
    return ":".join(str(c) for c in x.coords)


def _pair_str(pair) -> str:
    return ":".join(str(c) for c in pair)


# -- subcommand handlers -----------------------------------------------


def _cmd_height(args, ctx: Ctx):
    B = MetrizedLineBundle(args.n, args.m, ArchKind.parse(args.arch))
    coords = [_parse_fraction(c, "coordinate") for c in args.coords]
    if len(coords) != args.n + 1:
        raise ValidationError(f"P^{args.n} needs {args.n + 1} coordinates, got {len(coords)}")
    x = ProjPoint(coords)
    h = height_point(B, x)
    h_sq = height_point_sq(B, x)
    payload = {"point": _point_str(x), **_height_json(h, h_sq)}
    return _height_lines(h, h_sq, ctx), payload


def _cmd_twist(args, ctx: Ctx):
    B = MetrizedLineBundle(args.n, args.m, ArchKind.parse(args.arch))
    coords = [_parse_fraction(c, "coordinate") for c in args.coords]
    if len(coords) != args.n + 1:
        raise ValidationError(f"P^{args.n} needs {args.n + 1} coordinates, got {len(coords)}")
    x = ProjPoint(coords)
    g = parse_element_file(args.element, args.n + 1)
    if args.compare:
        if args.section is not None:
            expo = _parse_int_list(args.section, "--section")
        else:
            expo = [args.m] + [0] * args.n
        s = Section(B, tuple(expo))
        lhs, rhs = compare_twisted(B, s, x, g)
        lines = [
            f"lhs: {_exact_or_float(lhs)}",
            f"rhs: {_exact_or_float(rhs)}",
            f"equal: {'true' if lhs == rhs else 'false'}",
        ]
        payload = {
            "point": _point_str(x),
            "section_exponents": list(map(int, expo)),
            "lhs": _exact_or_float(lhs),
            "rhs": _exact_or_float(rhs),
            "equal": lhs == rhs,
        }
        return lines, payload
    h = twisted_height(B, x, g)
    h_sq = twisted_height_sq(B, x, g)
    payload = {"point": _point_str(x), **_height_json(h, h_sq)}
    return _height_lines(h, h_sq, ctx), payload


def _cmd_lattice(args, ctx: Ctx):
    L = parse_gram(args.gram)
    if args.lattice_op == "theta":
        t = _parse_fraction(args.t, "--t")
        sv = theta(L, t, args.eps, ctx)
        return [_series_line(sv, ctx)], {"t": _fmt_exact(t), "rank": L.rank, **_series_json(sv)}
    if args.lattice_op == "check-fe":
        t = _parse_fraction(args.t, "--t")
        rep = theta_functional_equation_defect(L, t, args.eps, ctx)
        ok = rep.defect <= rep.allowance
        lines = [
            f"defect: {rep.defect:.6e}",
            f"allowance: {rep.allowance:.6e}",
            f"within: {'true' if ok else 'false'}",
            f"lhs: {_series_line(rep.lhs, ctx)}",
            f"rhs: {_series_line(rep.rhs, ctx)}",
        ]
        payload = {
            "t": _fmt_exact(t),
            "rank": L.rank,
            "defect": float(rep.defect),
            "allowance": float(rep.allowance),
            "within": ok,
            "lhs": _series_json(rep.lhs),
            "rhs": _series_json(rep.rhs),
        }
        return lines, payload
    s = _parse_scalar(args.s, "--s")
    fn = completed_lambda if args.lattice_op == "lambda" else lattice_zeta
    sv = fn(L, s, args.eps, ctx)
    payload = {"s": _json_number(s), "rank": L.rank, **_series_json(sv)}
    return [_series_line(sv, ctx)], payload


def _cmd_arakelov(args, ctx: Ctx):
    degrees = tuple(_parse_int_list(args.degrees, "--degrees"))
    s = _parse_scalar(args.s, "--s")
    spec = ArakelovSeriesSpec(
        bundle_degrees=degrees,
        arch=ArchKind.parse(args.arch),
        s=s,
        cutoff=args.cutoff,
        phi_kind=args.phi,
    )
    if args.duality:
        defect = theta_duality_defect(spec, args.eps, ctx)
        lines = [f"duality-defect: {defect:.6e}"]
        payload = {"degrees": list(degrees), "s": _json_number(s), "cutoff": spec.cutoff, "duality_defect": float(defect)}
        return lines, payload
    if args.grouped is not None:
        rows = grouped_series_coefficients(args.grouped, degrees, spec.arch, s, args.eps, ctx)
        lines = ["N,count,reference_coefficient,theta_value,term"]
        for r in rows:
            lines.append(
                f"{r.height},{r.count},{r.reference_coefficient},"
                f"{_decimal_str(r.theta_value, ctx)},{_decimal_str(r.term, ctx)}"
            )
        payload = {
            "degrees": list(degrees),
            "s": _json_number(s),
            "rows": [
                {
                    "N": r.height,
                    "count": r.count,
                    "reference_coefficient": r.reference_coefficient,
                    "theta_value": _json_number(r.theta_value),
                    "term": _json_number(r.term),
                }
                for r in rows
            ],
        }
        return lines, payload
    sv, rows = arakelov_series_and_rows(spec, args.eps, ctx)
    lines = [_series_line(sv, ctx), "height_sq,point,covolume,phi_value,phi_error,term,term_error"]
    for r in rows:
        lines.append(
            f"{_fmt_exact(r.height_sq)},{_point_str(r.point)},{_exact_or_float(r.covolume)},"
            f"{_decimal_str(r.phi_value, ctx)},{r.phi_error:.3e},"
            f"{_decimal_str(r.term, ctx)},{r.term_error:.3e}"
        )
    payload = {
        "degrees": list(degrees),
        "s": _json_number(s),
        "cutoff": spec.cutoff,
        "phi_kind": spec.phi_kind.value,
        "series": _series_json(sv),
        "terms": [
            {
                "height_sq": _fmt_exact(r.height_sq),
                "point": _point_str(r.point),
                "covolume": _exact_or_float(r.covolume),
                "phi_value": _json_number(r.phi_value),
                "term": _json_number(r.term),
            }
            for r in rows
        ],
    }
    return lines, payload


def _count_bundle(args) -> MetrizedLineBundle:
    return MetrizedLineBundle(args.n, args.m, ArchKind.parse(args.arch))


def _cmd_count(args, ctx: Ctx):
    B = _count_bundle(args)
    if args.table is not None:
        thresholds = _parse_fraction_list(args.table, "--table")
        table = count_table(args.n, B, thresholds, method=args.method)
        lines = render_count_csv(table).splitlines()
        payload = {
            "n": args.n,
            "m": args.m,
            "arch": B.arch.value,
            "rows": [{"threshold": float(t), "count": c} for t, c in zip(table.thresholds, table.counts)],
        }
        return lines, payload
    if args.H is None:
        raise ValidationError("count needs --H (single bound) or --table (bound list)")
    bound = _parse_fraction(args.H, "--H")
    if args.method == "enumerate":
        value = len(enumerate_Pn(args.n, B, bound))
    else:
        value = count_Pn(args.n, B, bound)
    payload = {"n": args.n, "m": args.m, "arch": B.arch.value, "H": _fmt_exact(bound), "count": value}
    return [str(value)], payload


def _cmd_zeta(args, ctx: Ctx):
    B = _count_bundle(args)
    s = _parse_scalar(args.s, "--s")
    bound = _parse_fraction(args.H, "--H")
    sv = height_zeta_partial(args.n, B, s, bound, grouped=args.grouped)
    payload = {
        "n": args.n,
        "m": args.m,
        "arch": B.arch.value,
        "s": _json_number(s),
        "H": _fmt_exact(bound),
        **_series_json(sv),
    }
    return [_series_line(sv, ctx)], payload


def _cmd_fit(args, ctx: Ctx):
    B = _count_bundle(args)
    thresholds = _parse_fraction_list(args.thresholds, "--thresholds")
    table = count_table(args.n, B, thresholds, method=args.method)
    a = None if args.a is None else float(_parse_fraction(args.a, "--a"))
    b = None if args.b is None else float(_parse_fraction(args.b, "--b"))
    fit = fit_asymptotics(table, a=a, b=b, window=args.window)
    lines = [
        f"a: {fit.a!r}",
        f"b: {fit.b!r}",
        f"theta: {fit.theta!r}",
        f"residual: {fit.residual:.3e}",
    ]
    lines.extend(render_count_csv(table, fit).splitlines())
    payload = {
        "n": args.n,
        "m": args.m,
        "arch": B.arch.value,
        "a": fit.a,
        "b": fit.b,
        "theta": fit.theta,
        "residual": fit.residual,
        "rows": [{"threshold": float(t), "count": c} for t, c in zip(table.thresholds, table.counts)],
    }
    return lines, payload


def _fibration_args(args) -> tuple[HirzebruchSurface, FibrationLineClass, ArchKind]:
    Y = HirzebruchSurface(args.n)
    k, w, j = (_parse_int_list(args.cls, "--cls") + [None] * 3)[:3]
    if j is None:
        raise ValidationError(f"--cls must be three comma separated integers k,w,j, got {args.cls!r}")
    return Y, FibrationLineClass(k, w, j), ArchKind.parse(args.arch)


def _cmd_hirzebruch(args, ctx: Ctx):
    if args.fib_op == "anticanonical":
        Y = HirzebruchSurface(args.n)
        c = anticanonical_class(Y)
        lines = ["k,w,j", f"{c.k},{c.w},{c.j}"]
        return lines, {"n": Y.n, "k": c.k, "w": c.w, "j": c.j}
    Y, c, arch = _fibration_args(args)
    if args.fib_op == "enumerate":
        bound = _parse_fraction(args.H, "--H")
        pts = enumerate_Fn(Y, c, arch, bound)
        lines = ["base,fiber,height_sq"]
        for P in pts:
            lines.append(f"{_point_str(P.base)},{_pair_str(P.fiber)},{_fmt_exact(height_Fn_sq(Y, c, P, arch))}")
        payload = {
            "n": Y.n,
            "cls": [c.k, c.w, c.j],
            "arch": arch.value,
            "H": _fmt_exact(bound),
            "count": len(pts),
            "points": [
                {"base": _point_str(P.base), "fiber": _pair_str(P.fiber)} for P in pts
            ],
        }
        return lines, payload
    P = FnPoint(_parse_pair(args.base, "--base"), _parse_pair(args.fiber, "--fiber"))
    if args.fib_op == "check-shift":
        h1, h2 = character_shift_invariance(Y, c, P, arch)
        c2 = c.shifted(Y.n)
        lines = [
            f"class: {c.k},{c.w},{c.j}",
            f"shifted: {c2.k},{c2.w},{c2.j}",
            f"h1: {_exact_or_float(h1)}",
            f"h2: {_exact_or_float(h2)}",
            f"equal: {'true' if h1 == h2 else 'false'}",
        ]
        payload = {
            "n": Y.n,
            "cls": [c.k, c.w, c.j],
            "shifted": [c2.k, c2.w, c2.j],
            "h1": _exact_or_float(h1),
            "h2": _exact_or_float(h2),
            "equal": h1 == h2,
        }
        return lines, payload
    h = height_Fn(Y, c, P, arch)
    h_sq = height_Fn_sq(Y, c, P, arch)
    payload = {
        "n": Y.n,
        "cls": [c.k, c.w, c.j],
        "base": _point_str(P.base),
        "fiber": _pair_str(P.fiber),
        **_height_json(h, h_sq),
    }
    return _height_lines(h, h_sq, ctx), payload


def _cmd_tamagawa(args, ctx: Ctx):
    variety = _parse_variety(args.variety)
    if args.peyre_check:
        if not isinstance(variety, Pn):
            raise ValidationError("--peyre-check needs a projective space variety (P1 or P2)")
        if args.H is None:
            raise ValidationError("--peyre-check needs --H (counting bound)")
        bound = _parse_fraction(args.H, "--H")
        predicted, fitted = peyre_constant_check(
            variety.n, args.cutoff, bound, arch=ArchKind.parse(args.arch), quad_eps=args.quad_eps
        )
        rel = abs(fitted - predicted) / abs(predicted)
        lines = [
            f"predicted: {predicted!r}",
            f"fitted: {fitted!r}",
            f"rel-diff: {rel:.3e}",
        ]
        payload = {
            "variety": args.variety.strip().upper(),
            "predicted": predicted,
            "fitted": fitted,
            "rel_diff": rel,
        }
        return lines, payload
    sigma = frozenset(_parse_int_list(args.sigma, "--sigma")) if args.sigma else frozenset()
    spec = TamagawaSpec(
        variety=variety,
        arch=ArchKind.parse(args.arch),
        prime_cutoff=args.cutoff,
        sigma=sigma,
    )
    report = tamagawa_report(spec, quad_eps=args.quad_eps)
    # the report is JSON in both output modes, per the interface contract
    text = json.dumps(report, sort_keys=True, separators=(",", ": "))
    return [text], report


# -- selftest ----------------------------------------------------------


def _st_product_formula():
    rng = random.Random(20260822)
    for _ in range(500):
        num = rng.randint(-(10**6), 10**6)
        den = rng.randint(1, 10**6)
        if num == 0:
            num = 1
        x = Fraction(num, den)
        if product_formula_check(x) != 1:
            raise AssertionError(f"product formula broke at {x}")


def _st_theta_functional_equation():
    lattices = [
        HermitianLattice.identity(1),
        HermitianLattice.diagonal([2, 3]),
        HermitianLattice([[2, 1], [1, 2]]),
    ]
    for L in lattices:
        for t in (Fraction(1, 3), Fraction(2)):
            rep = theta_functional_equation_defect(L, t, 1e-12)
            if rep.defect > rep.allowance:
                raise AssertionError(f"defect {rep.defect:.3e} above allowance {rep.allowance:.3e}")


def _st_lambda_special_value():
    sv = completed_lambda(HermitianLattice.identity(1), 2.0, 1e-12)
    err = abs(complex(sv.value) - math.pi / 3)
    if err > 1e-10:
        raise AssertionError(f"lambda at s=2 off by {err:.3e}")
    lhs = completed_lambda(HermitianLattice.diagonal([2, 3]), 1.7, 1e-12)
    rhs = completed_lambda(HermitianLattice([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), 2 - 1.7, 1e-12)
    gap = abs(complex(lhs.value) - complex(rhs.value))
    if gap > 1e-9:
        raise AssertionError(f"duality gap {gap:.3e}")


def _st_twist_consistency():
    rng = random.Random(7)
    B = MetrizedLineBundle(1, 1, ArchKind.MAX)
    for _ in range(20):
        x = ProjPoint([rng.randint(1, 9), rng.randint(-9, 9)])
        diag = lambda a, b: ((Fraction(a), Fraction(0)), (Fraction(0), Fraction(b)))  # noqa: E731
        g = AdelicGroupElement(
            2,
            {
                INF: diag(rng.randint(1, 5), rng.randint(1, 5)),
                Place.finite(3): diag(Fraction(1, rng.randint(1, 4)), rng.randint(1, 4)),
            },
        )
        ident = AdelicGroupElement(2)
        if twisted_height_sq(B, x, ident) != height_point_sq(B, x):
            raise AssertionError(f"identity twist moved the height at {x}")
        s = Section.coordinate(B, 0)
        lhs, rhs = compare_twisted(B, s, x, g)
        if lhs != rhs:
            raise AssertionError(f"metric vs translate mismatch at {x}")


def _st_arakelov_grouped():
    rows = grouped_series_coefficients(25, (1,), ArchKind.MAX, 2.5, 1e-12)
    for r in rows:
        want = 4 if r.height == 1 else 4 * euler_phi(r.height)
        if r.count != want:
            raise AssertionError(f"count at N={r.height} is {r.count}, enumeration says {want}")
    spec = ArakelovSeriesSpec(bundle_degrees=(1,), s=2.5, cutoff=50)
    defect = theta_duality_defect(spec, 1e-12)
    if defect > 1e-9:
        raise AssertionError(f"duality defect {defect:.3e} at cutoff 50")


def _st_count_consistency():
    for n, arch, bound in ((1, ArchKind.MAX, 30), (1, ArchKind.L2, 15), (2, ArchKind.MAX, 6)):
        B = MetrizedLineBundle(n, 1, arch)
        sieve = count_Pn(n, B, bound)
        listed = len(enumerate_Pn(n, B, bound))
        if sieve != listed:
            raise AssertionError(f"sieve {sieve} vs listing {listed} on P^{n} {arch.value}")
    B = MetrizedLineBundle(1, 1, ArchKind.MAX)
    sv = height_zeta_partial(1, B, 0.0, 25)
    if sv.value != float(count_Pn(1, B, 25)):
        raise AssertionError("zeta at s=0 disagrees with the count")


def _st_fibration_shift():
    rng = random.Random(11)
    for _ in range(100):
        Y = HirzebruchSurface(rng.randint(0, 2))
        c = FibrationLineClass(rng.randint(0, 3), rng.randint(-2, 2), rng.randint(-2, 2))
        P = FnPoint(
            (rng.randint(1, 9), rng.randint(-9, 9)),
            (rng.randint(1, 9), rng.randint(-9, 9)),
        )
        arch = ArchKind.MAX if rng.random() < 0.5 else ArchKind.L2
        h1, h2 = character_shift_invariance(Y, c, P, arch)
        if h1 != h2:
            raise AssertionError(f"shift changed the height on F{Y.n} for {c}")
        scale_b = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scale_f = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        # fiber t carries base weight n, so base rescaling twists it
        raw = height_Fn_raw(
            Y,
            c,
            [scale_b * v for v in P.base.coords],
            [scale_f * P.fiber[0], scale_f * scale_b**Y.n * P.fiber[1]],
            arch,
        )
        if raw != height_Fn(Y, c, P, arch):
            raise AssertionError(f"representative scaling changed the height on F{Y.n}")


def _st_tamagawa_stability():
    t1 = tamagawa_number(TamagawaSpec(variety=Pn(1), prime_cutoff=200))
    t2 = tamagawa_number(TamagawaSpec(variety=Pn(1), prime_cutoff=400))
    if abs(t1.value - t2.value) > t1.error_estimate + t2.error_estimate:
        raise AssertionError("doubling the prime cutoff moved tau outside the stated budget")
    target = 24 / math.pi**2
    if abs(t2.value - target) > t2.error_estimate:
        raise AssertionError(f"tau(P^1) {t2.value!r} not within budget of {target!r}")


_SELFTEST_SUITES = (
    ("product-formula", _st_product_formula),
    ("theta-functional-equation", _st_theta_functional_equation),
    ("lambda-duality", _st_lambda_special_value),
    ("twist-consistency", _st_twist_consistency),
    ("arakelov-grouped", _st_arakelov_grouped),
    ("count-consistency", _st_count_consistency),
    ("fibration-shift", _st_fibration_shift),
    ("tamagawa-stability", _st_tamagawa_stability),
)


def _selftest() -> int:
    failed = 0
    for name, fn in _SELFTEST_SUITES:
        try:
            fn()
        except Exception as exc:  # report every suite, keep going
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"selftest: {len(_SELFTEST_SUITES) - failed} passed, {failed} failed")
    return 1 if failed else 0


# -- parser ------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="adelic",
        description="Exact and certified-numerical heights, lattice series and point counts.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--precision-bits", type=int, default=64, help="float width in bits, >= 64 (default 64, IEEE double)")
    parser.add_argument("--eps", type=float, default=1e-12, help="target error bound for series (default 1e-12)")
    parser.add_argument("--output", choices=("csv", "json"), default="csv", help="output mode (default csv)")
    parser.add_argument("--threads", type=int, default=1, help="accepted for config parity; execution is deterministic")
    parser.add_argument("--selftest", action="store_true", help="run the built in property suite and exit nonzero on failure")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("height", help="height of a rational point of P^n under O(m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("arch", choices=("max", "l2"))
    p.add_argument("coords", nargs="+", help="n+1 exact rationals")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("twist", help="height twisted by an adelic group element")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("arch", choices=("max", "l2"))
    p.add_argument("coords", nargs="+", help="n+1 exact rationals")
    p.add_argument("--element", required=True, help="twist description file (see below)")
    p.add_argument("--compare", action="store_true", help="check metric twisting against character corrected translation")
    p.add_argument("--section", default=None, help="monomial exponents e0,e1,... for --compare (default m,0,...)")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("lattice", help="theta, zeta and Lambda functions of a Euclidean lattice")
    lat = p.add_subparsers(dest="lattice_op", required=True, parser_class=_Parser)
    for op, needs in (("theta", "t"), ("zeta", "s"), ("lambda", "s"), ("check-fe", "t")):
        q = lat.add_parser(op)
        q.add_argument("--gram", required=True, help="I<d>, diag:a,b,... or a Gram file")
        if needs == "t":
            q.add_argument("--t", required=True, help="exact rational t > 0")
        else:
            q.add_argument("--s", required=True, help="rational or complex s")
        q.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("arakelov", help="truncated L-series over the base points of P^1")
    p.add_argument("--degrees", default="1", help="comma separated bundle degrees (default 1)")
    p.add_argument("--arch", choices=("max", "l2"), default="max")
    p.add_argument("--s", default="0", help="series exponent (rational or complex)")
    p.add_argument("--cutoff", type=int, default=10, help="base height cutoff (default 10)")
    p.add_argument("--phi", choices=("theta", "zeta", "norm"), default="theta")
    p.add_argument("--duality", action="store_true", help="print |series(s) - mirror series(1-s)|")
    p.add_argument("--grouped", type=int, default=None, metavar="N", help="per height coefficient table up to N")
    p.set_defaults(func=_cmd_arakelov)

    p = sub.add_parser("count", help="count rational points of bounded height on P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--arch", choices=("max", "l2"), default="max")
    p.add_argument("--H", default=None, help="height bound (exact rational)")
    p.add_argument("--table", default=None, help="comma separated bounds for a CSV table")
    p.add_argument("--method", choices=("auto", "sieve", "enumerate"), default="auto")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("zeta", help="height zeta partial sum over P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--arch", choices=("max", "l2"), default="max")
    p.add_argument("--s", required=True, help="exponent (rational or complex)")
    p.add_argument("--H", required=True, help="height cutoff (exact rational)")
    p.add_argument("--grouped", action="store_true", help="sum height classes instead of single points")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("fit", help="fit theta * H^a * (log H)^(b-1) to a count table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--arch", choices=("max", "l2"), default="max")
    p.add_argument("--thresholds", required=True, help="comma separated height bounds")
    p.add_argument("--a", default=None, help="pin the power exponent")
    p.add_argument("--b", default=None, help="pin the log exponent")
    p.add_argument("--window", type=float, default=0.6, help="top fraction of thresholds used (default 0.6)")
    p.add_argument("--method", choices=("auto", "sieve", "enumerate"), default="auto")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("hirzebruch", help="heights and enumeration on Hirzebruch surfaces")
    fib = p.add_subparsers(dest="fib_op", required=True, parser_class=_Parser)
    for op in ("height", "enumerate", "check-shift", "anticanonical"):
        q = fib.add_parser(op)
        q.add_argument("--n", type=int, required=True, help="surface parameter")
        if op != "anticanonical":
            q.add_argument("--cls", required=True, help="line class k,w,j")
            q.add_argument("--arch", choices=("max", "l2"), default="max")
        if op in ("height", "check-shift"):
            q.add_argument("--base", required=True, help="base point M,N")
            q.add_argument("--fiber", required=True, help="fiber coordinates s,t")
        if op == "enumerate":
            q.add_argument("--H", required=True, help="height bound")
        q.set_defaults(func=_cmd_hirzebruch)

    p = sub.add_parser("tamagawa", help="Tamagawa number report (JSON)")
    p.add_argument("--variety", required=True, help="P1, P2, ... or F0, F1, ...")
    p.add_argument("--arch", choices=("max", "l2"), default="max")
    p.add_argument("--cutoff", type=int, default=1000, help="finite prime cutoff (default 1000)")
    p.add_argument("--sigma", default=None, help="finite primes to drop from the convergence product")
    p.add_argument("--quad-eps", type=float, default=1e-9, help="archimedean quadrature budget")
    p.add_argument("--peyre-check", action="store_true", help="compare the predicted constant against a fitted one")
    p.add_argument("--H", default=None, help="counting bound for --peyre-check")
    p.set_defaults(func=_cmd_tamagawa)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        if args.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {args.threads}")
        if not args.eps > 0:
            raise ValidationError(f"eps must be > 0, got {args.eps!r}")
        ctx = Ctx(args.precision_bits)
        if args.selftest:
            return _selftest()
        if args.command is None:
            raise ValidationError("a subcommand is required (or --selftest); see --help")
        lines, payload = args.func(args, ctx)
        if args.output == "json":
            body = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
            if "schema_version" in payload:
                body = payload  # reports carry their own version
            print(json.dumps(body, sort_keys=True, separators=(",", ": ")))
        else:
            for line in lines:
                print(line)
        return 0
    except (ValidationError, SectionZeroError, PoleError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, QuadratureError) as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
