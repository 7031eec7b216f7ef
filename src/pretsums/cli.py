"""Command-line front end.

Subcommands take `key=value` tokens plus `--format json|csv` and `--out FILE`.
Random functions take their seed in the spec (`randpm:SEED`).  Exit codes: 0
success, 1 domain error, 2 parse error.  Output is deterministic for fixed argv.
The subcommands are the name -> handler table SUBCOMMANDS.  JSON output
serializes a report from its fields and properties by name, complex numbers as
[re, im] (see jsonable).

    pretsums constants
    pretsums oscint x=1000 beta=0.01 t=2.5
    pretsums expsum direct f=legendre:5 alpha=2/5 x=100000
    pretsums expsum predict f=legendre:5 alpha=2/5 x=100000 J=3 eps=0.1
    pretsums expsum scan f=minus-all x=4096 grid=257
    pretsums pretend f=legendre:5 x=100000 q=5 J=3
    pretsums arcs alpha=0.61803398875 x=1000000
    pretsums energy f=minus-all x=16384
    pretsums twisted f=legendre:7 h=kloosterman:1,1 q=7 x=100000
    pretsums triples f=one g=one h=one a=1 b=1 c=1 x=2000
    pretsums partition f=one g=one h=one N=5000
"""

from __future__ import annotations

import dataclasses
import json
import sys
import warnings
from fractions import Fraction
from functools import partial

from .errors import DomainError, ParseError
from .funcspec import finite_float


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_alpha(text: str):
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational alpha {text!r}") from exc
    try:
        return finite_float(text)
    except ValueError as exc:
        raise ParseError(f"bad alpha {text!r}") from exc


def _parse_tokens(tokens: list[str]) -> tuple[dict, dict]:
    """Split key=value tokens from --flags."""
    kv = {}
    flags = {"format": "json", "out": None}
    it = iter(tokens)
    for tok in it:
        if tok == "--format":
            flags["format"] = next(it, "")
            if flags["format"] not in ("json", "csv"):
                raise ParseError(f"--format must be json or csv, got {flags['format']!r}")
        elif tok == "--out":
            flags["out"] = next(it, None)
            if not flags["out"]:
                raise ParseError("--out needs a file path")
        elif "=" in tok:
            k, _, v = tok.partition("=")
            kv[k] = v
        else:
            raise ParseError(f"unrecognized token {tok!r}")
    return kv, flags


def _need(kv: dict, key: str) -> str:
    if key not in kv:
        raise ParseError(f"missing required argument {key}=")
    return kv[key]


def _int(kv: dict, key: str, default=None) -> int:
    if key not in kv:
        if default is None:
            raise ParseError(f"missing required argument {key}=")
        return default
    try:
        return int(kv[key])
    except ValueError as exc:
        raise ParseError(f"argument {key}= needs an integer, got {kv[key]!r}") from exc


def _float(kv: dict, key: str, default=None) -> float:
    if key not in kv:
        if default is None:
            raise ParseError(f"missing required argument {key}=")
        return default
    try:
        return finite_float(kv[key])
    except ValueError as exc:
        raise ParseError(f"argument {key}= needs a finite number, got {kv[key]!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json_obj, csv_rows, csv_header), with
# reports left for jsonable to serialize
# ---------------------------------------------------------------------------


def _cmd_constants(kv):
    from .circle import extremal_table

    tab = extremal_table()
    obj = {
        "delta0": tab["delta0"],
        "kappa": tab["kappa"],
        "kappa_prime": tab["kappa_prime"],
        "C2_product": tab["C2_product"],
        "eight_forty_fifths": tab["eight_forty_fifths"],
        "two_minus_one_max": tab["two_minus_one_max"],
        "mixed_max": tab["mixed_max"],
    }
    header = list(obj.keys())[:6]
    rows = [[_fmt(obj[k]) for k in header]]
    return obj, rows, header


def _cmd_oscint(kv):
    from .oscint import I_bound, I_value

    x = _float(kv, "x")
    beta = _float(kv, "beta")
    t = _float(kv, "t")
    v = I_value(x, beta, t)
    method = "closed-form" if (beta == 0.0 or t == 0.0) else "quadrature"
    obj = {
        "re": v.real,
        "im": v.imag,
        "bound": I_bound(x, beta, t),
        "method": method,
    }
    return obj, [[_fmt(v.real), _fmt(v.imag), _fmt(obj["bound"]), method]], ["re", "im", "bound", "method"]


def _cmd_expsum(kv, action):
    from .expsum import classify_alpha, direct_sum_rational, predict_theorem1
    from .funcspec import parse_multfunc

    f = parse_multfunc(_need(kv, "f"))
    x = _int(kv, "x")
    if action == "scan":
        return _cmd_scan(kv, f, x)
    alpha = _parse_alpha(_need(kv, "alpha"))
    eps = _float(kv, "eps", 0.1)
    arc = classify_alpha(alpha, x, eps)
    if action == "direct":
        v = direct_sum_rational(f, arc.a, arc.q, arc.beta, x)
        obj = {"arc": arc, "re": v.real, "im": v.imag, "abs": abs(v)}
        return obj, [[_fmt(v.real), _fmt(v.imag), _fmt(abs(v))]], ["re", "im", "abs"]
    J = _int(kv, "J", 3)
    rep = predict_theorem1(f, arc.a, arc.q, arc.beta, x, J, eps)
    obj = {"arc": arc, **jsonable(rep)}
    rows = [
        [
            _fmt(rep.oracle.real),
            _fmt(rep.oracle.imag),
            _fmt(rep.predicted.real),
            _fmt(rep.predicted.imag),
            _fmt(rep.err_budget),
            _fmt(rep.abs_discrepancy),
        ]
    ]
    return obj, rows, ["oracle_re", "oracle_im", "pred_re", "pred_im", "err_budget", "abs_disc"]


def _cmd_scan(kv, f, x):
    from .expsum import _mark_major, arc_main_term, classify_alpha, exponential_sum_grid, thresholds
    from .pretentious import select_global_frame

    M = _int(kv, "grid")
    if M < 2:
        raise ParseError("grid= must be at least 2")
    eps = _float(kv, "eps", 0.1)
    thresholds(x, eps)  # x and eps are checked before the frame search
    frame = select_global_frame(f, x)
    grid_R = exponential_sum_grid(f, x, M)
    marked = _mark_major(M, x, eps)  # every major row is marked; classify_alpha decides these
    rows = []
    for k in range(M):
        Rv = grid_R[k]
        Mv = 0.0 + 0.0j
        regime = "minor"
        if marked[k]:
            arc = classify_alpha(Fraction(k, M), x, eps)
            regime = arc.regime
            Mv = arc_main_term(frame, arc)
        rows.append([_fmt(k / M), _fmt(abs(Rv)), regime, _fmt(abs(Mv)), _fmt(abs(Rv - Mv))])
    header = ["alpha", "absR", "regime", "absM", "absE"]
    obj = {"x": x, "grid": M, "rows": [dict(zip(header, r)) for r in rows]}
    return obj, rows, header


def _cmd_pretend(kv):
    from .pretentious import pretentious_distance, select_frames

    from .funcspec import parse_multfunc

    f = parse_multfunc(_need(kv, "f"))
    x = _int(kv, "x")
    q = _int(kv, "q")
    J = _int(kv, "J", 3)
    frames = select_frames(f, x, q, J)
    out = []
    for fr in frames:
        out.append(
            {
                "psi_index": list(fr.psi.exponents),
                "chi_index": list(fr.chi.exponents),
                "r": fr.r,
                "t": fr.t,
                "score": fr.score,
                "s_value": fr.s_value,
                "distance": pretentious_distance(f, fr.psi, fr.t, 1.5, x),
            }
        )
    obj = {"f": kv["f"], "x": x, "q": q, "J": J, "frames": out}
    rows = [
        [",".join(map(str, fr["psi_index"])), str(fr["r"]), _fmt(fr["t"]), _fmt(fr["score"]), _fmt(fr["distance"])]
        for fr in out
    ]
    return obj, rows, ["psi_index", "r", "t", "score", "distance"]


def _cmd_arcs(kv):
    from .expsum import classify_alpha

    alpha = _parse_alpha(_need(kv, "alpha"))
    x = _int(kv, "x")
    eps = _float(kv, "eps", 0.1)
    arc = classify_alpha(alpha, x, eps)
    rows = [[str(arc.a), str(arc.q), _fmt(arc.beta), arc.regime]]
    return arc, rows, ["a", "q", "beta", "regime"]


def _cmd_energy(kv):
    from .expsum import minor_arc_energy
    from .funcspec import parse_multfunc

    f = parse_multfunc(_need(kv, "f"))
    x = _int(kv, "x")
    M = _int(kv, "grid", 0) or None
    eps = _float(kv, "eps", 0.1)
    rep = minor_arc_energy(f, x, M, eps)
    rows = [[_fmt(rep.total_energy), _fmt(rep.minor_energy), _fmt(rep.minor_ratio)]]
    return rep, rows, ["total_energy", "minor_energy", "minor_ratio"]


def _cmd_twisted(kv):
    from .expsum import predict_twisted
    from .funcspec import parse_multfunc, parse_periodic

    f = parse_multfunc(_need(kv, "f"))
    q = _int(kv, "q")
    h = parse_periodic(_need(kv, "h"), q)
    x = _int(kv, "x")
    J = _int(kv, "J", 3)
    rep = predict_twisted(f, h, x, J)
    rows = [
        [
            _fmt(rep.oracle.real),
            _fmt(rep.oracle.imag),
            _fmt(rep.predicted.real),
            _fmt(rep.predicted.imag),
            _fmt(rep.abs_discrepancy),
        ]
    ]
    return rep, rows, ["oracle_re", "oracle_im", "pred_re", "pred_im", "abs_disc"]


def _cmd_triples(kv, mode):
    from .circle import TripleProblem, predict_triples
    from .funcspec import parse_multfunc

    f = parse_multfunc(_need(kv, "f"))
    g = parse_multfunc(_need(kv, "g"))
    h = parse_multfunc(_need(kv, "h"))
    if mode == "linear":
        prob = TripleProblem(
            f, g, h, _int(kv, "a", 1), _int(kv, "b", 1), _int(kv, "c", 1), x=_int(kv, "x")
        )
    else:
        prob = TripleProblem(f, g, h, mode="partition", N=_int(kv, "N"))
    rep = predict_triples(prob, _float(kv, "z") if "z" in kv else None)
    rows = [
        [
            _fmt(rep.oracle_density.real),
            _fmt(rep.predicted_density.real),
            "" if rep.rel_discrepancy is None else _fmt(rep.rel_discrepancy),
            rep.path,
        ]
    ]
    return rep, rows, ["oracle_density", "predicted_density", "rel_disc", "path"]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUBCOMMANDS = {
    "expsum": _cmd_expsum,
    "pretend": _cmd_pretend,
    "oscint": _cmd_oscint,
    "triples": partial(_cmd_triples, mode="linear"),
    "partition": partial(_cmd_triples, mode="partition"),
    "constants": _cmd_constants,
    "arcs": _cmd_arcs,
    "energy": _cmd_energy,
    "twisted": _cmd_twisted,
}


def _dispatch(argv: list[str]):
    if not argv:
        raise ParseError(f"usage: pretsums <{'|'.join(SUBCOMMANDS)}> key=value ...")
    cmd, rest = argv[0], argv[1:]
    if cmd not in SUBCOMMANDS:
        raise ParseError(f"unknown subcommand {cmd!r}; expected one of {', '.join(SUBCOMMANDS)}")
    handler = SUBCOMMANDS[cmd]
    if cmd == "expsum":
        if not rest or rest[0] not in ("direct", "predict", "scan"):
            raise ParseError("expsum needs an action: direct, predict, or scan")
        handler, rest = partial(handler, action=rest[0]), rest[1:]
    kv, flags = _parse_tokens(rest)
    return handler(kv), flags


def jsonable(obj):
    """obj as plain JSON values: a dataclass becomes a dict of its fields and
    properties by name, a complex number [re, im]; lists, tuples and dicts
    recurse, and anything else is returned as it is."""
    if dataclasses.is_dataclass(obj):
        cls = type(obj)
        names = [fd.name for fd in dataclasses.fields(cls)]
        names += [k for k in dir(cls) if isinstance(getattr(cls, k), property)]
        return {k: jsonable(getattr(obj, k)) for k in names}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    return obj


def render(result, flags) -> str:
    obj, rows, header = result
    if flags["format"] == "json":
        return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """One stderr line per warning, free of the source path and line."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        result, flags = _dispatch(argv)
        text = render(result, flags)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = saved
    if flags["out"]:
        with open(flags["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
