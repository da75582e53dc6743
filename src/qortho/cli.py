"""Command-line interface.

Numeric flags accept "p/q" literals; eval/coeffs/connect/expand keep those
exact (Fraction arithmetic end to end), while density/verify/sample always
work in float.  Output is CSV (default) or JSON, deterministic byte-for-byte
for a fixed command line: the first line is
`# qortho v1, <subcommand>, <flags>` with flags sorted by name.

Families and densities come from one name -> constructor table per kind;
each constructor gets the flags its signature names, and one it needs but
was not given is a ParameterError ("family 'rogers' requires --beta").  The
library checks every value (``qcore.check_params``), and only the
parameters an entry point uses, so a flag it does not use is never refused.

Only the exact layers (``qcore``, ``polyfam``, ``connect``) are imported
with this module; they need no numpy, so ``eval``, ``coeffs`` and
``connect`` run without it.  ``density``, ``expand``, ``verify`` and
``sample`` import their float layer, and with it numpy, when they run.

Exit codes: 0 success, 2 usage (argparse), 3 ParameterError,
4 NonConvergenceError or a float overflow, 1 other qortho errors or failed
verification.
"""

import argparse
import inspect
import json
import sys
from fractions import Fraction

from .qcore import EXPANSION_IDS, NonConvergenceError, ParameterError, QOrthoError
from . import connect, polyfam


def _num(s):
    """Parse a numeric literal: 'p/q' -> Fraction, '3' -> int, else float."""
    s = s.strip()
    if "/" in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError("bad rational literal %r" % s)
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError("bad numeric literal %r" % s)


def _num_list(s):
    return [_num(tok) for tok in s.split(",") if tok.strip()]


def _float_list(s):
    return [float(tok) for tok in s.split(",") if tok.strip()]


def _fmt(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json_val(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _flag_string(args):
    skip = {"func", "cmd", "out", "format"}
    parts = []
    for k in sorted(vars(args)):
        if k in skip:
            continue
        v = getattr(args, k)
        if v is None or v is False:
            continue
        if isinstance(v, list):
            v = ",".join(_fmt(item) for item in v)
        elif v is True:
            v = "true"
        else:
            v = _fmt(v)
        parts.append("%s=%s" % (k.replace("_", "-"), v))
    return " ".join(parts)


def _emit(args, columns, rows, extra_meta=None):
    flags = _flag_string(args)
    if args.format == "json":
        meta = {"tool": "qortho v1", "subcommand": args.cmd, "flags": flags}
        if extra_meta:
            meta.update(extra_meta)
        doc = {
            "meta": meta,
            "columns": list(columns),
            "rows": [[_json_val(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, sort_keys=True) + "\n"
    else:
        lines = ["# qortho v1, %s, %s" % (args.cmd, flags)]
        if extra_meta:
            lines.append(
                "# " + ", ".join("%s=%s" % (k, _fmt(v))
                                 for k, v in sorted(extra_meta.items()))
            )
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: name -> constructor, one table per kind
_FAMILIES = {
    "qhermite": polyfam.QHermite, "rogers": polyfam.Rogers, "asc": polyfam.ASC,
    "bigb": polyfam.BigB, "chebt": polyfam.ChebT, "chebu": polyfam.ChebU,
    "chebt-hat": polyfam.ChebT_hat, "chebu-hat": polyfam.ChebU_hat,
    "hermite": polyfam.ClassicalHermite, "kesten": polyfam.Kesten,
    "kesten-hat": polyfam.KestenHat,
}
#: name -> constructor name in ``densities``, looked up when a command runs
_DENSITIES = {name.lower(): name for name in ("fN", "fCN", "fR", "fU", "fT", "fK")}

#: the parameter flags of the library's entry points
_PARAMS = ("q", "y", "rho", "beta", "gamma")


def _build(kind, name, ctor, args):
    """ctor called with the flags its signature names; unset ones take the
    parameter's default, and without one they are a ParameterError."""
    kwargs = {}
    for param in inspect.signature(ctor).parameters.values():
        v = getattr(args, param.name, None)
        if v is not None:
            kwargs[param.name] = v
        elif param.default is param.empty:
            raise ParameterError("%s %r requires --%s"
                                 % (kind, name, param.name.replace("_", "-")))
    return ctor(**kwargs)


def _density(name, args):
    from . import densities

    return _build("density", name, getattr(densities, _DENSITIES[name]), args)


def _params(args):
    """The parameter flags that were given, by name."""
    return {name: getattr(args, name) for name in _PARAMS if getattr(args, name) is not None}


def _cmd_eval(args):
    fam = _build("family", args.family, _FAMILIES[args.family], args)
    rows = []
    for x in args.x:
        val = polyfam.eval(fam, args.n, x)
        rows.append((args.n, x, val))
    _emit(args, ("n", "x", "value"), rows)
    return 0


def _cmd_coeffs(args):
    fam = _build("family", args.family, _FAMILIES[args.family], args)
    poly = polyfam.coeffs(fam, args.n)
    rows = [(args.n, k, c) for k, c in enumerate(poly.coeffs)]
    _emit(args, ("n", "k", "coeff"), rows)
    return 0


def _cmd_density(args):
    from . import densities

    dens = _density(args.density, args)
    args.q = dens.q  # the header shows q as the float the density uses
    xs = [float(x) for x in args.x]
    rows = [(x, densities.density_eval(dens, x)) for x in xs]
    _emit(args, ("x", "value"), rows)
    return 0


def _cmd_expand(args):
    from . import expand

    params = _params(args)
    if args.x is not None:
        spec = expand.ExpansionSpec(args.id, dict(params), args.k)
        rows = []
        for x in args.x:
            res = expand.expansion_eval(spec, float(x), tol=args.tol)
            rows.append((float(x), res.value, res.tail, res.n_terms))
        _emit(args, ("x", "value", "tail", "n_terms"), rows)
        return 0
    k_max = args.k_max if args.k_max is not None else 8
    c = expand._coeff_rule(args.id, k_max, params)
    rows = [(n, c(n)) for n in range(k_max + 1)]
    _emit(args, ("n", "coeff"), rows)
    return 0


def _cmd_connect(args):
    mat = connect.connection(args.pair, args.n, **_params(args))
    row = mat.rows.get(args.n, {})
    rows = [(args.n, k, row[k]) for k in sorted(row, reverse=True)]
    _emit(args, ("n", "k", "coeff"), rows)
    return 0


def _cmd_verify(args):
    from . import verify

    config = {}
    if args.suite and args.suite != "all":
        config["suites"] = tuple(s.strip() for s in args.suite.split(","))
    if args.q_grid:
        config["q_grid"] = tuple(args.q_grid)
    if args.tol is not None:
        config["tol"] = args.tol
    reports, ok = verify.run_all(config)
    rows = [
        (r.check_id, json.dumps(r.params, sort_keys=True), r.residual,
         r.tolerance, r.passed)
        for r in reports
    ]
    n_fail = sum(1 for r in reports if not r.passed)
    _emit(args, ("check_id", "params", "residual", "tolerance", "pass"), rows,
          extra_meta={"checks": len(reports), "failures": n_fail})
    return 0 if ok else 1


def _cmd_sample(args):
    from . import sampler

    dens = _density(args.target, args)
    result = sampler.sample(dens, args.n, seed=args.seed, batch=args.batch)
    # proposals= counts the proposals whose ratio was evaluated, not those drawn
    meta = {
        "acceptance_rate": result.acceptance_rate,
        "envelope": result.envelope,
        "proposals": result.n_proposed,
    }
    if args.binary:
        data = result.samples.astype("<f8").tobytes()
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
        return 0
    rows = [(i, float(v)) for i, v in enumerate(result.samples)]
    _emit(args, ("i", "x"), rows, extra_meta=meta)
    return 0


def _add_common(p, *names):
    for name in names:
        p.add_argument("--" + name, type=_num, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="q-orthogonal polynomial families, densities, expansions",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate a family member p_n(x)")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_num_list, required=True)
    _add_common(p, "q", "y", "rho", "beta")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("coeffs", help="monomial coefficients of p_n (exact)")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, "q", "y", "rho", "beta")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("density", help="evaluate a density on points")
    p.add_argument("--density", choices=sorted(_DENSITIES), required=True)
    p.add_argument("--x", type=_num_list, required=True)
    p.add_argument("--trunc-eps", type=float, default=1e-14)
    _add_common(p, "q", "y", "rho", "beta")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("expand", help="expansion coefficients or kernel values")
    p.add_argument("--id", choices=sorted(EXPANSION_IDS), required=True)
    p.add_argument("--x", type=_num_list, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="fixed truncation order for evaluation")
    p.add_argument("--k-max", type=int, default=None,
                   help="highest coefficient index to list")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, "q", "y", "rho", "beta", "gamma")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("connect", help="connection coefficients for row n")
    p.add_argument("--pair", choices=sorted(connect.PAIRS), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, "q", "y", "rho", "beta", "gamma")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--suite", default="all")
    p.add_argument("--q-grid", type=_float_list, default=None, help="q values of every suite")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance of every suite but chapman (1e-6) and envelope, whose "
                        "1e-9 is the sampler's slack, not a tolerance")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="rejection-sample fn or fcn")
    p.add_argument("--target", choices=("fn", "fcn"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=65536,
                   help="proposals drawn per batch; with --seed it fixes the draw stream")
    p.add_argument("--binary", action="store_true")
    _add_common(p, "q", "y", "rho")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print("qortho: %s" % exc, file=sys.stderr)
        return 3
    except (NonConvergenceError, OverflowError) as exc:  # a value past the float range
        print("qortho: %s" % exc, file=sys.stderr)
        return 4
    except QOrthoError as exc:
        print("qortho: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
